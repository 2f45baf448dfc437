"""Benchmark of the m2mpool command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from anywhere; the package is imported from `src/` next to this
directory.  One process, one client, no extra threads: a closed loop that
sends the next `m2mpool` command through `m2mpool.cli.main` only after the
previous one returned, each with `--out` set to a scratch file under
`.perfbench/` and its stdout and stderr captured.  Operation i uses
`--seed N+i`.  The loop runs for S seconds and at least MIN_OPS operations,
checks every output (see workloads.py), and prints the metrics by name, unit
and sample count.  The last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer ones with `--trace 1`.  The exit code is 0 only when every
check passed; 2 means the benchmark could not run at all.

With `--trace 1` every other operation runs with the layer spans of
tracing.py installed; the untraced ones give `trace.overhead_share`, and the
raw spans of the first traced operations go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

import tracing
import workloads
from workloads import ROOT

MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
SETUP_CODE = "import m2mpool.cli; m2mpool.cli.build_parser()"


class BenchError(Exception):
    """The benchmark cannot run here (no package, no goldens, set-up failed)."""


def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of each metric BENCHMARK.json declares for a traced or untraced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec["per_layer" if trace else "end_to_end"]]


def load_program() -> dict[str, Any]:
    """Import m2mpool from ROOT/src and return its modules by name."""
    src = ROOT / "src"
    if not (src / "m2mpool" / "cli.py").is_file():
        raise BenchError(f"no m2mpool package under {src}")
    sys.path.insert(0, str(src))
    import m2mpool.cli

    if Path(m2mpool.__file__).resolve().parent != (src / "m2mpool").resolve():
        raise BenchError(f"imported m2mpool from {m2mpool.__file__}, not from {src}")
    names = ("m2mpool.cli", "m2mpool.sim", "m2mpool.analytic", "m2mpool.numerics")
    return {name: sys.modules[name] for name in names}


class Runner:
    """Runs one operation's commands through m2mpool.cli.main, in this process."""

    def __init__(self, modules: dict[str, Any], workdir: Path) -> None:
        self.cli = modules["m2mpool.cli"]
        self.out = workdir / "out.csv"

    def op(self, workload: workloads.Workload, seed: int,
           tracer: tracing.Tracer | None = None) -> tuple[workloads.Outcome, float]:
        outcome = workloads.Outcome([], [])
        elapsed = 0.0
        for argv in workload.commands(seed):
            argv = argv + ["--out", str(self.out)]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter()
                try:
                    if tracer is None:
                        code = self.cli.main(argv)
                    else:
                        code = tracer.call("cli.main", self.cli.main, argv)
                except SystemExit as exc:  # argparse rejects a command this way
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a defect of the program fails the operation, not the run
                    traceback.print_exc()
                    code = 1
                elapsed += perf_counter() - start
            outcome.exit_codes.append(code)
            outcome.outputs.append(self.out.read_bytes() if code == 0 else sink.getvalue().encode())
            with contextlib.suppress(FileNotFoundError):
                self.out.unlink()
        return outcome, elapsed


def _setup_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_times(repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import m2mpool.cli and build its parser."""
    command = [sys.executable, "-c", SETUP_CODE]
    env = _setup_env()
    times = []
    for attempt in range(repeats + 1):
        start = perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True)
        if done.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {done.stderr.decode(errors='replace')}")
        if attempt:  # the first one only compiles bytecode
            times.append(perf_counter() - start)
    return times


def import_times(repeats: int) -> tuple[list[float], list[float]]:
    """(numpy, m2mpool) import seconds from `-X importtime`; m2mpool excludes numpy."""
    command = [sys.executable, "-X", "importtime", "-c", SETUP_CODE]
    numpy_s, package_s = [], []
    for _ in range(repeats):
        done = subprocess.run(command, cwd=ROOT, env=_setup_env(), capture_output=True, text=True)
        numpy_us = package_us = 0
        for line in done.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            name = parts[2].strip()
            if name == "numpy":
                numpy_us = int(parts[1])
            elif name.split(".")[0] == "m2mpool":
                package_us += int(parts[0])
        numpy_s.append(numpy_us / 1e6)
        package_s.append(package_us / 1e6)
    return numpy_s, package_s


def _quantile(values: list[float], q: int) -> float:
    """q-th decile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    with contextlib.suppress(OSError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if done.returncode == 0:
            return done.stdout.strip()
    return None


def provenance(workload: str, seed: int, ops: int) -> dict[str, Any]:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "m2mpool").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "op_seeds": [seed, seed + ops - 1],
    }


def run_workload(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
                 *, min_ops: int = MIN_OPS, setup_repeats: int = SETUP_REPEATS) -> dict[str, Any]:
    """Run one workload; return its result record (see `report`)."""
    modules = load_program()
    checks: list[tuple[str, bool]] = []
    if trace:
        numpy_s, package_s = import_times(IMPORTTIME_REPEATS)
    else:
        setup = setup_times(setup_repeats)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    # units of work and seconds spent, untraced [0] and traced [1]
    units, spent = [0, 0], [0.0, 0.0]
    traced_points = 0
    times: list[float] = []  # seconds of each untraced operation
    failures: list[str] = []
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        runner = Runner(modules, Path(scratch))
        # the determinism check doubles as warm-up: caches fill, lazy imports finish
        first, _ = runner.op(workload, seed)
        again, _ = runner.op(workload, seed)
        checks.append((f"determinism: seed {seed} rerun gives identical CSV bytes",
                       first == again and not any(first.exit_codes)))
        ops = 0
        start = perf_counter()
        while ops < min_ops or perf_counter() - start < seconds:
            op_seed = seed + ops
            with_spans = trace and ops % 2 == 1
            if with_spans:
                tracer.install(modules)
                try:
                    outcome, elapsed = runner.op(workload, op_seed, tracer)
                finally:
                    tracer.uninstall()
                tracer.end_op()
            else:
                outcome, elapsed = runner.op(workload, op_seed)
                times.append(elapsed)
            ops += 1
            units[with_spans] += workload.units(op_seed)
            spent[with_spans] += elapsed
            if with_spans:
                traced_points += workload.points(op_seed)
            try:
                for code, output in zip(outcome.exit_codes, outcome.outputs):
                    if code != 0:
                        raise ValueError(f"exit code {code}: {output.decode(errors='replace').strip()}")
                workload.check_op(op_seed, outcome)
            except ValueError as exc:
                failures.append(f"seed {op_seed}: {exc}")
    checks.extend(workload.pooled_checks())
    correct = not failures and all(passed for _, passed in checks)
    # a failed run-level check discredits every operation it pooled
    failed = len(failures) if all(passed for _, passed in checks) else ops
    result: dict[str, Any] = {
        "workload": workload.name,
        "unit": workload.unit,
        "correct": correct,
        "attempted": ops,
        "failed": failed,
        "checks": checks,
        "failures": failures,
        "provenance": provenance(workload.name, seed, ops),
    }
    if trace:
        layers = tracing.layer_metrics(tracer, traced_points)
        layers["setup.import_numpy_s"] = (statistics.median(numpy_s), len(numpy_s))
        layers["setup.import_m2mpool_s"] = (statistics.median(package_s), len(package_s))
        overhead = (spent[1] / units[1]) / (spent[0] / units[0]) - 1.0 if units[1] else 0.0
        layers["trace.overhead_share"] = (overhead, ops)
        result["metrics"] = {name: (*layers[name], unit) for name, unit in declared_metrics(True)}
        dump = workdir / f"trace-{workload.name}-seed{seed}.json"
        dump.write_text(json.dumps({"provenance": result["provenance"], "totals": tracer.totals,
                                    "counts": tracer.counts, "spans": tracer.kept}))
        result["trace_file"] = str(dump)
    else:
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "work_per_s": (units[0] / spent[0], len(times)),
            "op_p50_ms": (1e3 * _quantile(times, 5), len(times)),
            "op_p90_ms": (1e3 * _quantile(times, 9), len(times)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        result["metrics"] = {name: (*values[name], unit) for name, unit in declared_metrics(False)}
    with contextlib.suppress(OSError):
        workdir.rmdir()  # only when no trace file was written
    return result


def report(result: dict[str, Any]) -> dict[str, Any]:
    """Print the human-readable block and return the contract's JSON line."""
    print(f"workload {result['workload']}: {result['attempted']} operations")
    print("provenance " + json.dumps(result["provenance"]))
    for description, passed in result["checks"]:
        print(f"check {'ok  ' if passed else 'FAIL'} {description}")
    for failure in result["failures"][:10]:
        print(f"op FAIL {failure}")
    share = result["failed"] / result["attempted"]
    print(f"  failed_op_share = {share:g} share ({result['failed']} of {result['attempted']} ops)")
    for name, (value, samples, unit) in result["metrics"].items():
        note = f", {result['unit']}" if name == "work_per_s" else ""
        print(f"  {name} = {value:.6g} {unit} (n={samples}{note})")
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit) in result["metrics"].items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak memory is per process); one combined line."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode == 2 or not done.stdout.strip():
            return 2
        status = status or done.returncode
        line = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
