"""Fuzz test of `cli.main`, run in process over generated argument vectors
and config files.

Every run exits with a code from 0 to 4 and shows no traceback.  A failed
run writes nothing to stdout, ends its stderr with one `m2mpool:` line (or
with argparse's usage error), and leaves neither its `--out` target nor a
`.m2mpool-*.csv` temporary file behind.  Run counts are drawn on both sides
of the work budget: small ones run, and ones past `sim.MAX_WORK` must be
refused before any draw, whatever the retry limit.  Values near the engine's
other limits (devices, load, capacity, the sweep's points) come as fixed
texts, so that every example that is not refused stays small.  Nothing here
starts a process or a thread.
"""

from __future__ import annotations

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from m2mpool.cli import _COMMANDS, _OPTIONS, main
from m2mpool.sim import MAX_WORK

BIG = "1" + "0" * 400

# per key, texts inside and outside its range (and some that do not convert)
VALUES = {
    "devices": ["0", "1", "7", "100", "1000", "-3", "x", "1e3", BIG, "9223372036854775808", "1000000000000000"],
    "pe": ["0", "-0.0", "0.1", "0.4", "0.9", "0.999999", "1", "1.5", "-1", "nan", "inf", "1e-300", "x"],
    "max_attempts": ["1", "2", "10", "64", "70", "1000000000", "0", "-1", "1" + "0" * 30, "x"],
    "target_eps": ["0.001", "0.1", "0.5", "1e-9", "0", "1", "nan", "x"],
    "arrival": ["poisson", "one-per-ri", "bogus"],
    "load": ["1", "2", "45", "0.5", "1000", "1001", "0", "-1", "nan", "inf", "1e308", "x"],
    "report_bytes": ["1", "100", "1000", "0", "-5", "1000000", "x"],
    "modulation": ["qpsk", "qam64", "bogus"],
    "bandwidth_rbs": ["25", "1", "100", "0", "-1", "x"],
    "m2m_rbs": ["1", "25", "0", "26", "-2", "x"],
    "ri_seconds": ["60", "0.001", "0.0004", "86400", "86401", "nan", "inf", "1e-300", "x"],
    "seed": ["0", "1", "77", "-1", str(2**64), "x"],
    "policy": ["random", "fifo", "bogus"],
    "capacity": ["0", "1", "5", "926", "100000", "-1", str(2**63), "1" + "0" * 30, "x"],
}
RUNS = st.one_of(
    st.integers(-2, 30).map(str),  # small enough to run
    st.integers(MAX_WORK + 1, 10**30).map(str),  # past the budget at every retry limit
    st.sampled_from(["x", "1.5", "1e3", ""]),
)
SWEEPS = st.one_of(
    st.builds(lambda var, start, step, points: f"{var}:{start}:{start + step * points}:{step}",
              st.sampled_from(["devices", "report-bytes", "report_bytes", "bogus"]),
              st.sampled_from([-5, 0, 1, 10, 100, 1000]), st.sampled_from([-1, 0, 1, 7, 100, 1000]),
              st.integers(-2, 20)),
    st.sampled_from(["", "devices:1:2", "devices:a:b:c", "devices:1:10000000:1", "report-bytes:1:2000001:2"]),
)


def value_of(key: str) -> st.SearchStrategy[str]:
    return RUNS if key == "runs" else st.sampled_from(VALUES[key])


@st.composite
def invocations(draw) -> tuple[list[str], bytes | None, str | None]:
    """(argv less --config, the config file's bytes or None, the --out target or None)."""
    command = draw(st.sampled_from([*_COMMANDS, "frobnicate"]))
    reads = _COMMANDS[command][2] if command in _COMMANDS else ()
    # mostly keys the command reads; now and then one it does not (a usage error)
    keys = draw(st.lists(st.sampled_from(reads or tuple(_OPTIONS)), unique=True, max_size=5))
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(tuple(_OPTIONS))))
    argv = [command]
    for key in keys:
        argv += ["--" + key.replace("_", "-"), draw(value_of(key))]
    if command == "sweep" and draw(st.integers(0, 9)):
        argv += ["--sweep", draw(SWEEPS)]
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(["-h", "--bogus", "extra"])))
    config = None
    if draw(st.booleans()):
        lines = [f"{key}={draw(value_of(key))}" for key in draw(st.lists(st.sampled_from(tuple(_OPTIONS)),
                                                                        max_size=4))]
        lines += draw(st.lists(st.sampled_from(["# comment", "", "bogus_key=1", "no equals sign",
                                                "pe = 0.3  # trailing"]), max_size=2))
        config = "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n", b"\xff\xfe\n"]))
    out = draw(st.sampled_from([None, "out.csv", "out.csv", "missing/out.csv", "adir"]))
    return argv, config, out


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=2), database=None)
@given(invocations())
def test_main_exits_cleanly_on_any_invocation(invocation):
    argv, config, out = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "adir").mkdir()
        if config is not None:
            (root / "run.cfg").write_bytes(config)
            argv = [*argv, "--config", str(root / "run.cfg")]
        if out is not None:
            argv = [*argv, "--out", str(root / out)]
        before = sorted(os.listdir(root))
        code, stdout, stderr = run(argv)
        event(f"{argv[0]} exit {code}")
        assert code in range(5), (code, stderr)
        assert "Traceback" not in stdout + stderr
        left = sorted(os.listdir(root))
        assert not [name for name in left if name.startswith(".m2mpool-")], left
        if code == 0:
            return
        assert stdout == ""
        assert left == before  # no --out target written
        lines = stderr.splitlines()
        assert lines and lines[-1].startswith("m2mpool"), stderr
        if "usage:" not in stderr:  # argparse's usage error ends "m2mpool[ COMMAND]: error: ..."
            assert len(lines) == 1 and lines[0].startswith("m2mpool: "), stderr
