"""Self-tests of the benchmark.  Run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = run.ROOT


def _copy_checkout(dest: Path, with_program: bool = True) -> Path:
    """The files a benchmark checkout holds: BENCHMARK.json, perfbench/, and the program."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests" / "goldens", dest / "tests" / "goldens")
    return dest


def _bench(checkout: Path, workload: str) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "0", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout.splitlines()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, capsys):
    result = run.run_workload(workloads.WORKLOADS[name](), 11, 0.0, trace,
                              min_ops=3, setup_repeats=1)
    line = run.report(result)
    printed = capsys.readouterr().out
    expected = run.declared_metrics(trace)
    assert list(line["metrics"]) == [metric for metric, _ in expected]
    for metric, unit in expected:
        assert f"  {metric} = " in printed
        assert line["metrics"][metric]["unit"] == unit
    assert "failed_op_share = 0 share" in printed
    assert line["correct"] and line["attempted"] == 3 and line["failed"] == 0
    if trace:
        Path(result["trace_file"]).unlink()


def test_corrupted_golden_byte_fails_the_run(tmp_path):
    checkout = _copy_checkout(tmp_path)
    golden = checkout / "tests" / "goldens" / workloads.GOLDEN_SWEEPS[1][0]
    data = bytearray(golden.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    golden.write_bytes(bytes(data))
    code, lines = _bench(checkout, "dimension-sweep")
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert any("differs from golden" in line for line in lines)


@pytest.mark.parametrize("ending, message", [
    ("return 3", "exit code 3"),
    ("raise RuntimeError('injected defect')", "RuntimeError: injected defect"),
])
def test_forced_nonzero_exit_or_exception_fails_the_run(tmp_path, ending, message):
    checkout = _copy_checkout(tmp_path)
    with open(checkout / "src" / "m2mpool" / "cli.py", "a", encoding="utf-8") as cli:
        cli.write(f"\n_main = main\n\ndef main(argv=None):\n    _main(argv)\n    {ending}\n")
    code, lines = _bench(checkout, "dimension-sweep")
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any(message in line for line in lines)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    code, lines = _bench(_copy_checkout(tmp_path, with_program=False), "headline-sim")
    assert code != 0 and lines == []


def test_independent_moments_agree_with_the_package():
    run.load_program()
    from m2mpool import SystemParams, demand_summary

    for p_e in (0.1, 0.4):
        summary = demand_summary(SystemParams(100, p_e, 10))
        mean, std = workloads.demand_moments(100, p_e, 10)
        assert mean == pytest.approx(summary.mean, rel=1e-12)
        assert std == pytest.approx(summary.std, rel=1e-12)


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()

    def inner() -> int:
        return sum(range(1000))

    def outer() -> int:
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    tracer.call("outer", outer)
    tracer.end_op()
    count, total, self_time = tracer.totals["outer"]
    assert count == 1 and tracer.totals["inner"][0] == 2
    assert self_time == pytest.approx(total - tracer.totals["inner"][1], abs=1e-12)
    assert tracer.kept[0][1][3] == 0  # the first inner span's parent is outer
