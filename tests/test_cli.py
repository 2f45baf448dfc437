"""Tests for the command-line front end."""

from __future__ import annotations

import ast
import csv
import errno
import inspect
import io
import os
import re
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from m2mpool import analytic, cli, numerics, sim
from m2mpool.analytic import AttemptLaw, DemandSummary, OnePerRI, SystemParams, demand_summary
from m2mpool.cli import _OPTIONS, _Config, build_parser, main
from m2mpool.lte import PoolPlan
from m2mpool.numerics import q_function
from m2mpool.errors import ParameterError
from m2mpool.sim import MAX_DEVICES, MAX_HISTOGRAM_WIDTH, MAX_LOAD, MAX_MEAN_REPORTS, MAX_WORK, _MAX_RINGS


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def resolve(args):
    return _Config(build_parser().parse_args(args))


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# the keys each command reads: each a --flag of it, and the config-file keys it resolves
READ_KEYS = {
    "dimension": ("devices", "pe", "max_attempts", "target_eps", "arrival", "load", "report_bytes",
                  "modulation", "bandwidth_rbs", "m2m_rbs", "ri_seconds"),
    "validate-clt": ("devices", "pe", "max_attempts", "arrival", "load", "runs", "seed"),
    "simulate": ("devices", "pe", "max_attempts", "target_eps", "arrival", "load", "runs", "seed",
                 "policy", "capacity"),
    "sweep": tuple(key for key in _OPTIONS if key != "capacity"),
}
# one small run of each command
SMALL_RUNS = {
    "dimension": ["dimension"],
    "validate-clt": ["validate-clt", "--devices", "10", "--runs", "1"],
    "simulate": ["simulate", "--devices", "10", "--runs", "1"],
    "sweep": ["sweep", "--sweep", "devices:10:20:10"],
}


class TestDimension:
    def test_defaults_reproduce_headline(self, tmp_path):
        out = tmp_path / "dimension.csv"
        code, _, _ = run_cli(["dimension", "--out", str(out)])
        assert code == 0
        (row,) = read_rows(out)
        assert row["N"] == "30000"
        assert row["C_min"] == "14841"
        assert float(row["fraction"]) == pytest.approx(0.09, abs=0.005)
        assert float(row["mu"]) == pytest.approx(14369.7, abs=0.1)
        assert float(row["sigma"]) == pytest.approx(152.3, abs=0.1)
        assert row["r_rbs"] == "3"
        assert float(row["delay_s"]) == pytest.approx(65.381, abs=1e-9)

    def test_qam64_fraction(self, tmp_path):
        out = tmp_path / "dimension.csv"
        code, _, _ = run_cli(["dimension", "--modulation", "qam64", "--out", str(out)])
        assert code == 0
        (row,) = read_rows(out)
        assert float(row["fraction"]) == pytest.approx(0.03, abs=0.005)

    def test_csv_goes_to_stdout_without_out(self):
        code, out, _ = run_cli(["dimension"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("N,pe,L,eps,mu,sigma,C_min,r_rbs,alpha,X_P,X_C,X,fraction,delay_s")
        assert row.startswith("30000,0.1,10,0.001,")

    def test_zero_devices_is_usage_error(self):
        code, _, err = run_cli(["dimension", "--devices", "0"])
        assert code == 1
        assert "n_devices" in err

    def test_infeasible_target_exit_code(self):
        code, _, err = run_cli(["dimension", "--pe", "0.4", "--max-attempts", "2"])
        assert code == 2
        assert "floor" in err

    def test_infeasible_geometry_exit_code(self):
        code, _, _ = run_cli(["dimension", "--report-bytes", "1000", "--modulation", "qpsk"])
        assert code == 3

    @pytest.mark.parametrize(
        "args", [["--devices", "300000000000000000000000"], ["--load", "1e20"]]
    )
    def test_capacity_beyond_double_precision_returns(self, args):
        # the closed form lands past 2**53, where the integer scan cannot move
        code, _, err = run_cli(["dimension", *args])
        assert code == 3
        assert err.startswith("m2mpool: infeasible geometry:")

    def test_unwritable_out_is_io_error(self, tmp_path):
        code, _, _ = run_cli(["dimension", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 4

    def test_zero_variance_demand_needs_no_capacity(self):
        # with one attempt per report W = 1 at any p_e, so R_i = 0 exactly
        code, out, _ = run_cli(["dimension", "--arrival", "one-per-ri", "--pe", "0.0001",
                                "--max-attempts", "1"])
        assert code == 0
        assert out.splitlines()[1].split(",")[6] == "0"

    def test_one_per_ri_demand_near_error_free_needs_one_slot(self):
        # the moments are about 3e-16, not 0: the Gaussian rule gives C = 1
        code, out, _ = run_cli(["dimension", "--arrival", "one-per-ri", "--pe", "1e-20"])
        assert code == 0
        assert out.splitlines()[1].split(",")[6] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["dimension", "--out", str(first)])[0] == 0
        assert run_cli(["dimension", "--out", str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestValidateClt:
    def test_default_covers_both_error_rates(self, tmp_path):
        out = tmp_path / "clt.csv"
        code, _, err = run_cli(["validate-clt", "--runs", "2000", "--seed", "5", "--out", str(out)])
        assert code == 0
        pes = {row["pe"] for row in read_rows(out)}
        assert pes == {"0.1", "0.4"}

    def test_explicit_pe_runs_single_value(self, tmp_path):
        out = tmp_path / "clt.csv"
        code, _, _ = run_cli(
            ["validate-clt", "--pe", "0.25", "--runs", "500", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert {row["pe"] for row in read_rows(out)} == {"0.25"}

    def test_single_run_is_legal(self, tmp_path):
        out = tmp_path / "clt.csv"
        code, _, _ = run_cli(["validate-clt", "--pe", "0.1", "--runs", "1", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert len(rows) >= 1
        assert sum(float(r["empirical_pdf"]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["validate-clt", "--runs", "1500", "--seed", "44"]
        assert run_cli(base + ["--out", str(first)])[0] == 0
        assert run_cli(base + ["--out", str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_cdf_columns_are_monotone(self, tmp_path):
        out = tmp_path / "clt.csv"
        run_cli(["validate-clt", "--pe", "0.4", "--runs", "2000", "--seed", "8", "--out", str(out)])
        rows = read_rows(out)
        empirical = [float(r["empirical_cdf"]) for r in rows]
        gaussian = [float(r["gaussian_cdf"]) for r in rows]
        assert empirical == sorted(empirical)
        assert gaussian == sorted(gaussian)
        assert empirical[-1] == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_columns_take_one_q_evaluation_per_value(self, tmp_path, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return q_function(x)

        monkeypatch.setattr(analytic, "q_function", counted)
        out = tmp_path / "clt.csv"
        code, summary, _ = run_cli(["validate-clt", "--runs", "3000", "--seed", "12", "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        # one evaluation per row, and one for the lower edge of each p_e's first row
        assert len(calls) == len(rows) + 2
        # every Gaussian column, and the KS distance, as three evaluations per value give them
        for pe, line in zip(("0.1", "0.4"), summary.splitlines()):
            summary_pe = demand_summary(SystemParams(100, float(pe), 10))
            mean, sigma = summary_pe.mean, summary_pe.std
            pe_rows = [row for row in rows if row["pe"] == pe]
            worst = 0.0
            cumulative = 0
            for row in pe_rows:
                value = int(row["value"])
                cdf_lo = 1.0 - q_function((value - 0.5 - mean) / sigma)
                cdf_hi = 1.0 - q_function((value + 0.5 - mean) / sigma)
                assert (row["gaussian_pdf"], row["gaussian_cdf"]) == (f"{cdf_hi - cdf_lo:.10g}", f"{cdf_hi:.10g}")
                count = round(float(row["empirical_pdf"]) * 3000)
                cumulative += count
                if count:
                    worst = max(worst, abs(cumulative / 3000 - cdf_hi))
            assert line.startswith(f"pe={pe}: ks={worst:.5f},")


class TestSimulate:
    def test_small_run(self, tmp_path):
        out = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            ["simulate", "--devices", "50", "--pe", "0.1", "--runs", "300", "--seed", "6",
             "--out", str(out)]
        )
        assert code == 0
        (row,) = read_rows(out)
        assert int(row["reports"]) > 0
        assert 0.0 <= float(row["p_hat"]) <= 1.0
        assert float(row["ci_low"]) <= float(row["p_hat"]) <= float(row["ci_high"])
        assert float(row["bound"]) >= 0.0

    def test_capacity_and_policy_flags(self, tmp_path):
        out = tmp_path / "sim.csv"
        code, _, _ = run_cli(
            ["simulate", "--devices", "50", "--pe", "0.4", "--capacity", "30", "--policy", "fifo",
             "--runs", "200", "--seed", "6", "--out", str(out)]
        )
        assert code == 0
        (row,) = read_rows(out)
        assert row["capacity"] == "30"
        assert row["policy"] == "fifo"

    def test_near_certain_errors_and_huge_retry_limit_finish(self):
        # a binomial attempt chain alone would run about 5e6 steps here
        start = time.perf_counter()
        code, _, _ = run_cli(
            ["simulate", "--devices", "100", "--pe", "0.999999", "--max-attempts", "1000000000",
             "--runs", "3"]
        )
        assert code == 0
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("policy", ["random", "fifo"])
    def test_huge_pending_against_a_small_pool_finishes(self, policy):
        # reports needing about 10^6 pool slots each, against 1000 slots
        start = time.perf_counter()
        code, _, _ = run_cli(
            ["simulate", "--devices", "100", "--pe", "0.999999", "--max-attempts", "1000000000",
             "--capacity", "1000", "--runs", "3", "--policy", policy]
        )
        assert code == 0
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("args, p_e", [
        (["--capacity", "1" + "0" * 309], 0.1),  # past the largest double, about 1.8e308
        (["--capacity", "1" + "0" * 200, "--devices", "1", "--arrival", "one-per-ri", "--pe", "1e-300"], 1e-300),
    ], ids=["capacity-past-double-range", "excess-over-sigma-past-double-range"])
    def test_the_bound_is_the_floor_where_no_gaussian_tail_is_left(self, args, p_e):
        # each died in failure_bound, the first with OverflowError at C - mu, the second
        # with q_function refusing (C - mu) / sigma = inf, after simulating every interval
        code, out, err = run_cli(["simulate", "--runs", "2", *args])
        assert code == 0 and "Traceback" not in err and err.count("\n") == 1
        [row] = list(csv.DictReader(io.StringIO(out)))
        floor = "%.10g" % AttemptLaw(p_e, 10).floor
        assert row["bound"] == floor and err.endswith(f" bound={floor}\n")

    @pytest.mark.parametrize("command", ["simulate", "validate-clt"])
    def test_retry_limit_beyond_int64_runs(self, command):
        code, _, _ = run_cli(
            [command, "--devices", "10", "--runs", "2", "--max-attempts", "100000000000000000000"]
        )
        assert code == 0


class TestSweep:
    def test_devices_sweep_fraction_is_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--sweep", "devices:1000:9000:2000", "--out", str(out)])
        assert code == 0
        fractions = [float(r["fraction"]) for r in read_rows(out)]
        assert len(fractions) == 5
        assert fractions == sorted(fractions)

    def test_report_bytes_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--sweep", "report-bytes:100:1000:300", "--modulation", "qam64",
             "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert [r["rs_bytes"] for r in rows] == ["100", "400", "700", "1000"]

    def test_empty_range_writes_header_only(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--sweep", "devices:100:50:10", "--out", str(out)])
        assert code == 0
        assert out.read_text().strip() == "N,rs_bytes,mu,sigma,C_min,r_rbs,X_P,X_C,fraction,p_hat,ci_high"

    def test_simulation_columns_fill_when_runs_positive(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--sweep", "devices:50:100:50", "--runs", "200", "--seed", "3",
             "--policy", "fifo", "--out", str(out)]
        )
        assert code == 0
        for row in read_rows(out):
            assert row["p_hat"] != ""
            assert float(row["ci_high"]) >= float(row["p_hat"])

    # what the swept value leaves alone is computed once; every row must still
    # be what `dimension` gives at that point
    @pytest.mark.parametrize("axis, model", [
        pytest.param(axis, model, id=f"{name}-{axis}")
        # 1000-byte QPSK reports need 28 RBs per subframe, more than 5 MHz has
        for name, model in [("poisson-qpsk", ["--arrival", "poisson", "--modulation", "qpsk",
                                              "--bandwidth-rbs", "50"]),
                            ("one-per-ri-qam64", ["--arrival", "one-per-ri", "--modulation", "qam64"])]
        for axis in ["devices:1000:30000:7000", "report-bytes:100:1000:300"]
    ] + [
        # C_min from 4.8e14 to 4.8e16: 82 of the 100 closed forms land past
        # 2**53, where the capacity comes without the integer scan
        pytest.param("devices:1000000000000000:100000000000000000:1000000000000000",
                     ["--ri-seconds", "86400", "--bandwidth-rbs", "1000000000000000"], id="past-2**53"),
    ])
    def test_every_point_matches_dimension(self, axis, model, tmp_path):
        sweep_out, point_out = tmp_path / "sweep.csv", tmp_path / "point.csv"
        assert run_cli(["sweep", "--sweep", axis, *model, "--out", str(sweep_out)])[0] == 0
        rows = read_rows(sweep_out)
        start, stop, step = (int(bound) for bound in axis.split(":")[1:])
        assert len(rows) == len(range(start, stop + 1, step))
        fields = ["N", "mu", "sigma", "C_min", "r_rbs", "X_P", "X_C", "fraction"]
        for row in rows:
            args = ["dimension", "--devices", row["N"], "--report-bytes", row["rs_bytes"], *model]
            assert run_cli([*args, "--out", str(point_out)])[0] == 0
            (point,) = read_rows(point_out)
            assert [row[k] for k in fields] == [point[k] for k in fields]

    def test_report_bytes_sweep_simulates_each_point_alike(self, tmp_path):
        sweep_out, point_out = tmp_path / "sweep.csv", tmp_path / "point.csv"
        common = ["--devices", "500", "--runs", "300", "--seed", "4", "--policy", "fifo"]
        assert run_cli(["sweep", "--sweep", "report-bytes:100:700:300", *common,
                        "--out", str(sweep_out)])[0] == 0
        rows = read_rows(sweep_out)
        assert run_cli(["simulate", *common, "--capacity", rows[0]["C_min"],
                        "--out", str(point_out)])[0] == 0
        (point,) = read_rows(point_out)
        assert len(rows) == 3
        assert all((row["p_hat"], row["ci_high"]) == (point["p_hat"], point["ci_high"]) for row in rows)

    def test_error_free_one_per_ri_needs_no_capacity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(["sweep", "--arrival", "one-per-ri", "--pe", "0",
                              "--sweep", "devices:1:3:1", "--out", str(out)])
        assert code == 0
        assert [row["C_min"] for row in read_rows(out)] == ["0", "0", "0"]

    def test_bad_axis_is_usage_error(self):
        assert run_cli(["sweep", "--sweep", "bogus:1:2:1"])[0] == 1
        assert run_cli(["sweep", "--sweep", "devices:1:10:0"])[0] == 1
        assert run_cli(["sweep"])[0] == 1
        code, out, err = run_cli(["sweep", "--sweep", "devices:1:3:1", "--runs", "-5"])
        assert code == 1
        assert out == ""
        assert err.startswith("m2mpool: error: sweep needs runs >= 0") and err.count("\n") == 1


class TestFailedWrite:
    @pytest.mark.parametrize("args", [
        ["dimension"],
        ["validate-clt", "--runs", "200"],
        ["simulate", "--devices", "100", "--runs", "20"],
        ["sweep", "--sweep", "devices:1000:3000:1000"],
    ], ids=lambda args: args[0])
    def test_summary_only_after_the_csv_is_written(self, tmp_path, args):
        target = str(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli([*args, "--out", target])
        assert code == 4
        assert out == ""
        assert err.startswith("m2mpool: I/O error:") and err.count("\n") == 1
        assert repr(target) in err and ".m2mpool-" not in err
        assert list(tmp_path.rglob(".m2mpool-*.csv")) == []

    def test_a_directory_target_is_named_alone(self, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        assert run_cli(["dimension", "--out", str(target)]) == (
            4, "", f"m2mpool: I/O error: [Errno {errno.EISDIR}] Is a directory: {str(target)!r}\n")
        assert list(tmp_path.rglob(".m2mpool-*.csv")) == []


class TestAtomicWrite:
    """A --out CSV is written to a new .m2mpool-*.csv beside the target and
    renamed onto it: nothing but the whole file ever appears at the target."""

    ARGS = ["sweep", "--sweep", "devices:1000:3000:1000"]

    def expected(self):
        code, out, _ = run_cli(self.ARGS)
        assert code == 0
        return out.replace("\n", os.linesep).encode()

    def assert_failed_cleanly(self, tmp_path, result, target):
        code, out, err = result
        assert (code, out) == (4, "")
        assert err.startswith("m2mpool: I/O error:") and repr(str(target)) in err
        assert list(tmp_path.iterdir()) == []

    def test_mode_is_that_of_mkstemp(self, tmp_path):
        target = tmp_path / "x.csv"
        umask = os.umask(0o022)
        try:
            assert run_cli([*self.ARGS, "--out", str(target)])[0] == 0
        finally:
            os.umask(umask)
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert target.read_bytes() == self.expected()

    def test_write_failing_mid_file_leaves_nothing(self, tmp_path, monkeypatch):
        write, calls = os.write, []

        def failing(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data[:10])

        monkeypatch.setattr(os, "write", failing)
        target = tmp_path / "x.csv"
        self.assert_failed_cleanly(tmp_path, run_cli([*self.ARGS, "--out", str(target)]), target)
        assert len(calls) == 2

    def test_rename_failing_leaves_nothing(self, tmp_path, monkeypatch):
        def failing(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

        monkeypatch.setattr(os, "replace", failing)
        target = tmp_path / "x.csv"
        self.assert_failed_cleanly(tmp_path, run_cli([*self.ARGS, "--out", str(target)]), target)

    def test_a_taken_temporary_name_is_skipped(self, tmp_path):
        taken = tmp_path / f".m2mpool-{cli._TEMP_TOKEN}-0.csv"
        taken.write_text("not ours")
        target = tmp_path / "x.csv"
        assert run_cli([*self.ARGS, "--out", str(target)])[0] == 0
        assert taken.read_text() == "not ours"
        assert target.read_bytes() == self.expected()
        assert sorted(tmp_path.iterdir()) == sorted([taken, target])

    def test_every_name_taken_is_an_io_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_TEMP_TRIES", 2)
        taken = [tmp_path / f".m2mpool-{cli._TEMP_TOKEN}-{n}.csv" for n in range(2)]
        for path in taken:
            path.write_text("not ours")
        target = tmp_path / "x.csv"
        code, out, err = run_cli([*self.ARGS, "--out", str(target)])
        assert (code, out) == (4, "") and repr(str(target)) in err
        assert sorted(tmp_path.iterdir()) == taken
        assert all(path.read_text() == "not ours" for path in taken)

    @pytest.mark.parametrize("out", ["x.csv", "missing/../x.csv", "./x.csv"])
    def test_a_relative_path_is_read_lexically(self, tmp_path, monkeypatch, out):
        # as os.path.abspath reads it: a missing directory before ".." is not looked up
        monkeypatch.chdir(tmp_path)
        assert run_cli([*self.ARGS, "--out", out])[0] == 0
        assert (tmp_path / "x.csv").read_bytes() == self.expected()
        assert list(tmp_path.iterdir()) == [tmp_path / "x.csv"]

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:1]))
        target = tmp_path / "x.csv"
        assert run_cli([*self.ARGS, "--out", str(target)])[0] == 0
        monkeypatch.undo()
        assert target.read_bytes() == self.expected()
        assert list(tmp_path.iterdir()) == [target]


# audit hooks cannot be removed, so one hook, installed once, records while asked to
_AUDIT_EVENTS: list[tuple[str, tuple]] | None = None


def _audit(event, args):
    if _AUDIT_EVENTS is not None:
        _AUDIT_EVENTS.append((event, args))


class TestWriteSystemCalls:
    """The write takes one open under the target's directory and one rename,
    and no tempfile call: a return of the tempfile text stack shows here."""

    @pytest.fixture(scope="class", autouse=True)
    def hook(self):
        sys.addaudithook(_audit)

    @pytest.mark.parametrize("args", [
        ["dimension"],
        ["simulate", "--devices", "100", "--runs", "20"],
        ["sweep", "--sweep", "devices:1000:3000:1000"],
    ], ids=lambda args: args[0])
    def test_one_open_one_rename(self, tmp_path, args):
        global _AUDIT_EVENTS
        assert run_cli([*args, "--out", str(tmp_path / "warm.csv")])[0] == 0
        _AUDIT_EVENTS = []
        try:
            assert run_cli([*args, "--out", str(tmp_path / "x.csv")])[0] == 0
        finally:
            events, _AUDIT_EVENTS = _AUDIT_EVENTS, None
        opened = [a for e, a in events if e == "open" and isinstance(a[0], str)
                  and a[0].startswith(str(tmp_path))]
        assert len(opened) == 1 and os.path.basename(opened[0][0]).startswith(".m2mpool-")
        assert [a[1] for e, a in events if e == "os.rename"] == [str(tmp_path / "x.csv")]
        assert [e for e, _ in events if e.startswith("tempfile.")] == []


class TestSweepErrors:
    """A failing sweep point ends the run in the per-point check order:
    parameters, profile, dimensioning, plan."""

    CASES = [
        (["devices:0:10:5"], 1,
         "m2mpool: error: n_devices must be a positive integer, got 0"),
        (["devices:1000:3000:1000", "--target-eps", "1e-12"], 2,
         "m2mpool: infeasible reliability target: target failure 1e-12 is at or below the "
         "floor p_e^L = 1.0000000000000006e-10; no capacity can reach it"),
        # the profile is checked before the dimensioning
        (["devices:1000:3000:1000", "--report-bytes", "0", "--target-eps", "1e-12"], 1,
         "m2mpool: error: report_bytes must be positive, got 0"),
        # the first point fits; the second does not
        (["devices:1000:100000000:10000000", "--ri-seconds", "10"], 3,
         "m2mpool: infeasible geometry: pool needs 1775998 subframes but the interval has only 10000"),
        (["report-bytes:100:2000:500"], 3,
         "m2mpool: infeasible geometry: a report needs 31 RBs but only 25 are reserved per subframe"),
        # ri_seconds is part of the profile: after the parameters, before the dimensioning
        (["devices:0:10:5", "--ri-seconds", "nan"], 1,
         "m2mpool: error: n_devices must be a positive integer, got 0"),
        (["devices:1000:3000:1000", "--ri-seconds", "0", "--target-eps", "1e-12"], 1,
         "m2mpool: error: ri_seconds must be more than 0.0005 and at most 86400, got 0.0"),
        # the largest N simulated is checked before any point
        (["devices:1000000000000000:2000000000000000:1000000000000000", "--runs", "1"], 1,
         "m2mpool: error: devices x load must be at most 1e+15 reports per interval to simulate, "
         "got 2000000000000000 x 1"),
        (["devices:1:2"], 1, "m2mpool: error: expected VAR:START:STOP:STEP, got 'devices:1:2'"),
        (["devices:a:b:1"], 1, "m2mpool: error: sweep bounds must be integers: 'devices:a:b:1'"),
    ]

    @pytest.mark.parametrize("args, code, message", CASES)
    def test_exit_code_and_message(self, args, code, message, tmp_path):
        out = tmp_path / "out.csv"
        result = run_cli(["sweep", "--sweep", *args, "--out", str(out)])
        assert result == (code, "", message + "\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_devices_sweep_checks_the_devices_it_simulates(self, tmp_path):
        # --devices is not what a devices sweep simulates
        out = tmp_path / "out.csv"
        args = ["sweep", "--sweep", "devices:10:20:10", "--runs", "2"]
        assert run_cli([*args, "--devices", "100000000000000000000", "--out", str(out)])[0] == 0
        assert [row["N"] for row in read_rows(out)] == ["10", "20"]


class TestStreamingWrite:
    """A --out CSV is written a chunk of cli._CHUNK_LINES lines, the header
    among them, at a time as the rows are made; a row that fails after some
    are written, or an open or write that fails, leaves nothing behind, and
    the failing row's error comes first."""

    GEOMETRY = TestSweepErrors.CASES[3]

    @staticmethod
    def record_writes(monkeypatch, fail=None):
        write, sizes = os.write, []

        def recorded(fd, data):
            sizes.append(len(data))
            if fail is not None:
                raise OSError(fail, os.strerror(fail))
            return write(fd, data)

        monkeypatch.setattr(os, "write", recorded)
        return sizes

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("args", [
        ["sweep", "--sweep", "devices:1000:5000:1000"],
        ["validate-clt", "--runs", "200"],  # p_e 0.1 and 0.4
        ["dimension"],
    ], ids=lambda args: args[0])
    def test_the_bytes_of_stdout_one_write_a_chunk(self, tmp_path, monkeypatch, args, chunk):
        code, out, summary = run_cli(args)
        assert code == 0
        monkeypatch.setattr(cli, "_CHUNK_LINES", chunk)
        sizes = self.record_writes(monkeypatch)
        target = tmp_path / "x.csv"
        result = run_cli([*args, "--out", str(target)])
        monkeypatch.undo()
        assert result == (0, summary, "")
        assert target.read_bytes() == out.replace("\n", os.linesep).encode()
        lines = out.count("\n")
        assert len(sizes) == -(-lines // chunk)
        assert list(tmp_path.iterdir()) == [target]

    def test_a_point_failing_after_rows_are_written_leaves_nothing(self, tmp_path, monkeypatch):
        args, code, message = self.GEOMETRY
        monkeypatch.setattr(cli, "_CHUNK_LINES", 1)
        sizes = self.record_writes(monkeypatch)
        result = run_cli(["sweep", "--sweep", *args, "--out", str(tmp_path / "x.csv")])
        assert result == (code, "", message + "\n")
        assert len(sizes) == 2  # the header and the first point
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_point_comes_before_a_failed_open(self, tmp_path):
        args, code, message = self.GEOMETRY
        result = run_cli(["sweep", "--sweep", *args, "--out", str(tmp_path / "missing" / "x.csv")])
        assert result == (code, "", message + "\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_point_comes_before_a_failed_write(self, tmp_path, monkeypatch):
        args, code, message = self.GEOMETRY
        monkeypatch.setattr(cli, "_CHUNK_LINES", 1)
        sizes = self.record_writes(monkeypatch, fail=errno.ENOSPC)
        result = run_cli(["sweep", "--sweep", *args, "--out", str(tmp_path / "x.csv")])
        assert result == (code, "", message + "\n")
        assert len(sizes) == 1
        assert list(tmp_path.iterdir()) == []

    def test_memory_grows_with_the_chunk_not_the_rows(self, tmp_path, monkeypatch):
        # 10,000 rows, 662 kB of CSV: every row held until the last peaked at 2.5 MB
        monkeypatch.setattr(cli, "_CHUNK_LINES", 64)
        args = ["sweep", "--sweep", "devices:1000:10000000:1000", "--bandwidth-rbs", "100000",
                "--ri-seconds", "86400", "--out", str(tmp_path / "x.csv")]
        assert run_cli(args)[0] == 0  # what the first run caches is not counted
        tracemalloc.start()
        try:
            code = run_cli(args)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and (tmp_path / "x.csv").read_text().count("\n") == 10_001
        assert peak <= 2**18

class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("devices=1234\npe=0.2\n# comment\nmodulation=qam64\n")
        out = tmp_path / "dim.csv"
        code, _, _ = run_cli(["dimension", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        (row,) = read_rows(out)
        assert row["N"] == "1234"
        assert row["pe"] == "0.2"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("devices=1234\n")
        out = tmp_path / "dim.csv"
        code, _, _ = run_cli(["dimension", "--config", str(cfg), "--devices", "777", "--out", str(out)])
        assert code == 0
        assert read_rows(out)[0]["N"] == "777"

    def test_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("device_count=10\n")
        code, _, err = run_cli(["dimension", "--config", str(cfg)])
        assert code == 1
        assert "unknown config key" in err

    def test_missing_config_is_io_error(self, tmp_path):
        code, _, _ = run_cli(["dimension", "--config", str(tmp_path / "nope.cfg")])
        assert code == 4

    def test_empty_config_path_is_io_error(self, tmp_path):
        out = tmp_path / "dim.csv"
        code, stdout, err = run_cli(["dimension", "--config", "", "--out", str(out)])
        assert (code, stdout) == (4, "")
        assert err.startswith("m2mpool: I/O error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, line", [
        pytest.param(args, line, id=f"{args[0]}-{line}") for args, line in [
            (["dimension"], "runs=abc"),
            (["simulate", "--runs", "5", "--devices", "100"], "ri_seconds=1e9"),
            (["validate-clt", "--runs", "5"], "target_eps=0"),
        ] + [
            # a value no key takes, for each key a command does not read
            (SMALL_RUNS[command], f"{key}=bogus") for command, keys in READ_KEYS.items()
            for key in _OPTIONS if key not in keys
        ]
    ])
    def test_a_key_the_command_does_not_read_is_ignored(self, args, line, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with_file, without = tmp_path / "with.csv", tmp_path / "without.csv"
        result = run_cli([*args, "--config", str(cfg), "--out", str(with_file)])
        assert result == run_cli([*args, "--out", str(without)])
        assert result[0] == 0
        assert with_file.read_bytes() == without.read_bytes()

    def test_invalid_config_writes_nothing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("devices=not-a-number\n")
        out = tmp_path / "dim.csv"
        code, _, _ = run_cli(["dimension", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_non_utf8_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"devices=\xff\n")
        out = tmp_path / "dim.csv"
        code, _, err = run_cli(["dimension", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert err.startswith(f"m2mpool: error: {cfg}:") and err.count("\n") == 1
        assert not out.exists()


def _sample_text(convert):
    return convert[-1] if isinstance(convert, tuple) else {int: "7", float: "0.25"}[convert]


class TestOptionTable:
    @pytest.mark.parametrize("key", list(_OPTIONS))
    def test_flag_and_config_file_agree(self, key, tmp_path):
        convert, default = _OPTIONS[key][:2]
        text = _sample_text(convert)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={text}\n")
        flag = "--" + key.replace("_", "-")
        # every command accepts every config key, and reads only its own
        for command, keys in READ_KEYS.items():
            by_file = resolve([command, "--config", str(cfg)])
            if key not in keys:
                assert run_cli([command, flag, text])[0] == 1
                assert getattr(by_file, key) is default
                continue
            by_flag = resolve([command, flag, text])
            assert getattr(by_flag, key) != default
            assert getattr(by_file, key) == getattr(by_flag, key)
            assert type(getattr(by_file, key)) is type(getattr(by_flag, key))

    @pytest.mark.parametrize("key", [k for k, row in _OPTIONS.items() if isinstance(row[0], tuple)])
    def test_value_outside_choices_is_usage_error(self, key, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=bogus\n")
        for command, keys in READ_KEYS.items():
            small = SMALL_RUNS[command]
            code, out, err = run_cli([*small, "--config", str(cfg)])
            if key not in keys:  # `simulate` and `modulation`, say
                assert (code, out, err) == run_cli(small) and code == 0
                continue
            assert (code, out) == (1, "")
            assert err.startswith(f"m2mpool: error: invalid config value {key}='bogus'")
            code, out, err = run_cli([*small, "--" + key.replace("_", "-"), "bogus"])
            assert (code, out) == (1, "")
            assert "invalid choice: 'bogus'" in err

    @pytest.mark.parametrize("command", list(READ_KEYS))
    def test_help_names_exactly_the_flags_of_the_keys_read(self, command):
        code, text, _ = run_cli([command, "--help"])
        assert code == 0
        flags = {flag.removeprefix("--").replace("-", "_") for flag in re.findall(r"--[a-z][a-z0-9-]*", text)}
        assert flags - {"help", "out", "config", "sweep"} == set(READ_KEYS[command])
        assert ("sweep" in flags) == (command == "sweep")

    def test_the_configuration_names_no_command(self):
        # each command's defaults and checks live in its _COMMANDS entry and its function
        tree = ast.parse(inspect.getsource(cli._Config))
        literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        assert not literals & set(READ_KEYS)


class TestCommandDefaults:
    def test_a_config_file_pe_runs_validate_clt_at_that_one_value(self, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "clt.csv"
        cfg.write_text("pe=0.25\n")
        code, _, _ = run_cli(["validate-clt", "--config", str(cfg), "--runs", "500", "--seed", "5",
                              "--out", str(out)])
        assert code == 0
        assert {row["pe"] for row in read_rows(out)} == {"0.25"}

    def test_a_config_file_devices_overrides_validate_clts_own_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("devices=40\n")
        assert resolve(["validate-clt"]).devices == 100
        assert resolve(["validate-clt", "--config", str(cfg)]).devices == 40
        by_file = run_cli(["validate-clt", "--config", str(cfg), "--pe", "0.1", "--runs", "300"])
        assert by_file[0] == 0
        assert by_file == run_cli(["validate-clt", "--devices", "40", "--pe", "0.1", "--runs", "300"])
        assert by_file != run_cli(["validate-clt", "--pe", "0.1", "--runs", "300"])


class TestArrivalLoad:
    def test_non_unit_load_runs_without_capacity(self):
        assert run_cli(["dimension", "--load", "2"])[0] == 0
        code, out, _ = run_cli(["simulate", "--load", "2", "--runs", "5"])
        assert code == 0
        assert out.splitlines()[1].split(",")[-1] != ""  # the bound column is filled

    @pytest.mark.parametrize("args", [["dimension"], ["sweep", "--sweep", "devices:1:3:1"]],
                             ids=lambda args: args[0])
    def test_a_tiny_load_is_dimensioned(self, args):
        # its moments once cancelled to a negative mean, refused with exit code 1
        code, out, _ = run_cli([*args, "--load", "1e-16", "--pe", "0"])
        assert code == 0
        assert {row["C_min"] for row in csv.DictReader(io.StringIO(out))} == {"1"}


class TestSimulatedLoadLimit:
    SIMULATING = [
        ["simulate", "--runs", "5"],
        ["validate-clt", "--runs", "5"],
        ["sweep", "--sweep", "devices:100:200:100", "--runs", "5"],
    ]

    @pytest.mark.parametrize("args", SIMULATING, ids=lambda args: args[0])
    def test_load_above_limit_is_usage_error(self, args, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("load=1e12\n")
        out = tmp_path / "out.csv"
        for route in (["--load", "1e12"], ["--config", str(cfg)]):
            code, stdout, err = run_cli([*args, *route, "--out", str(out)])
            assert (code, stdout) == (1, "")
            assert err.startswith(f"m2mpool: error: load must be at most {MAX_LOAD:g}")
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("args", SIMULATING, ids=lambda args: args[0])
    def test_load_at_limit_runs(self, args):
        assert run_cli([*args, "--devices", "10", "--load", f"{MAX_LOAD:g}"])[0] == 0

    def test_limit_is_in_the_help(self):
        text = " ".join(run_cli(["simulate", "--help"])[1].split())
        assert f"at most {MAX_LOAD:g} to simulate" in text

    def test_one_per_ri_ignores_the_load(self):
        assert run_cli(["simulate", "--arrival", "one-per-ri", "--load", "1e12", "--runs", "2"])[0] == 0


class TestLoadValidation:
    """Every command refuses a load that is not positive and finite with the
    arrival model's message, whether or not it simulates."""

    COMMANDS = {
        "dimension": ["dimension"],
        "simulate": ["simulate", "--runs", "2"],
        "validate-clt": ["validate-clt", "--runs", "2"],
        "sweep": ["sweep", "--sweep", "devices:100:200:100"],
        "sweep-runs": ["sweep", "--sweep", "devices:100:200:100", "--runs", "2"],
    }

    @pytest.mark.parametrize("load", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_load_exits_with_one_line(self, command, load, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"load={load}\n")
        out = tmp_path / "out.csv"
        for route in ([f"--load={load}"], ["--config", str(cfg)]):
            result = run_cli([*self.COMMANDS[command], *route, "--out", str(out)])
            assert result == (1, "", f"m2mpool: error: arrival load must be positive and finite, "
                                     f"got {float(load)!r}\n")
            assert list(tmp_path.iterdir()) == [cfg]


class TestMomentOverflow:
    """Demand moments beyond double range name the input that is too large."""

    LOAD = "m2mpool: error: arrival load 1e+308 is too large: a device's demand moments overflow\n"
    CASES = {
        "dimension-load": (["dimension", "--devices", "1", "--load", "1e308"], LOAD),
        "sweep-load": (["sweep", "--sweep", "devices:1:2:1", "--load", "1e308"], LOAD),
        "dimension-devices": (["dimension", "--load", "1e304"], "30000"),
        # the first point fits a double (and, on 1e310 RBs per subframe, the grid); the second does not
        "sweep-devices": (["sweep", "--sweep", "devices:10000:20000:10000", "--load", "1e304",
                           "--bandwidth-rbs", str(10**310)], "20000"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_with_one_line(self, case, tmp_path):
        args, message = self.CASES[case]
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli([*args, "--out", str(out)])
        assert (code, stdout) == (1, "")
        if message.startswith("m2mpool"):
            assert err == message
        else:
            assert err.startswith("m2mpool: error: devices x demand per device is too large: "
                                  f"the demand of {message} devices, each of mean 1.11111e+304 ")
            assert err.count("\n") == 1 and "inf" not in err
        assert list(tmp_path.iterdir()) == []


class TestSimulatedDeviceLimit:
    SIMULATING = [
        ["simulate", "--runs", "5"],
        ["validate-clt", "--runs", "5"],
        ["sweep", "--sweep", "report-bytes:100:200:100", "--runs", "5"],
    ]

    @pytest.mark.parametrize("args", SIMULATING, ids=lambda args: args[0])
    def test_devices_beyond_int64_is_usage_error(self, args, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("devices=300000000000000000000000\n")
        out = tmp_path / "out.csv"
        for route in (["--devices", "300000000000000000000000"], ["--config", str(cfg)]):
            code, stdout, err = run_cli([*args, *route, "--out", str(out)])
            assert (code, stdout) == (1, "")
            assert err == (f"m2mpool: error: devices must be at most {MAX_DEVICES} to simulate, "
                           "got 300000000000000000000000\n")
            assert not out.exists()


class TestSimulatedReportLimit:
    # N x load beyond the limit would wrap the int64 count sums
    SIMULATING = TestSimulatedDeviceLimit.SIMULATING
    BEYOND = [({"devices": "9223372036854775807"}, "9223372036854775807 x 1"),
              ({"devices": "10000000000000000", "load": "1000"}, "10000000000000000 x 1000")]

    @pytest.mark.parametrize("values, product", BEYOND, ids=["int64-devices", "huge-load"])
    @pytest.mark.parametrize("args", SIMULATING, ids=lambda args: args[0])
    def test_product_beyond_limit_is_usage_error(self, args, values, product, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
        flags = [part for key, value in values.items() for part in (f"--{key}", value)]
        out = tmp_path / "out.csv"
        for route in (flags, ["--config", str(cfg)]):
            code, stdout, err = run_cli([*args, *route, "--out", str(out)])
            assert (code, stdout) == (1, "")
            assert err == (f"m2mpool: error: devices x load must be at most {MAX_MEAN_REPORTS:g} "
                           f"reports per interval to simulate, got {product}\n")
            assert list(tmp_path.iterdir()) == [cfg]

    def test_product_at_limit_runs(self, tmp_path):
        out = tmp_path / "out.csv"
        for model in (["--load", "1000", "--devices", str(MAX_MEAN_REPORTS // 1000)],
                      ["--arrival", "one-per-ri", "--load", "1000", "--devices", str(MAX_MEAN_REPORTS)]):
            code, _, _ = run_cli(["simulate", *model, "--runs", "3",
                                  "--capacity", str(10**20), "--out", str(out)])
            assert code == 0
            (row,) = read_rows(out)
            assert 2 * MAX_MEAN_REPORTS < int(row["reports"]) < 4 * MAX_MEAN_REPORTS


class TestInFlightLimit:
    def test_reports_outlasting_the_chain_are_refused_before_drawing_them(self, tmp_path, monkeypatch):
        # about 3.7e10 reports per interval outlast the 64 attempts drawn as
        # counts; drawing them one by one would take about 177 GiB
        def per_report_draw(*args):
            raise AssertionError("per-report draws started before the limit was checked")

        monkeypatch.setattr(sim, "leading_failure_counts", per_report_draw)
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["simulate", "--devices", "1000000000000", "--pe", "0.95", "--max-attempts", "100",
             "--runs", "1", "--capacity", "100000000000000000000", "--out", str(out)]
        )
        assert time.perf_counter() - start < 1.0
        assert (code, stdout) == (1, "")
        assert err.startswith("m2mpool: error: an interval holds ")
        assert err.endswith(f"reports in flight after 64 attempts, more than the {_MAX_RINGS} "
                            "it may draw one by one\n")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestHistogramWidthLimit:
    def test_wide_histogram_is_refused_quickly(self, tmp_path):
        # about 9.6 million demand values wide: the rows alone would take gigabytes
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        code, stdout, err = run_cli(
            ["validate-clt", "--pe", "0.999999", "--max-attempts", "1000000000", "--runs", "3",
             "--out", str(out)]
        )
        assert time.perf_counter() - start < 10.0
        assert (code, stdout) == (1, "")
        assert err.startswith("m2mpool: error: sampled demand at p_e=0.999999 spans ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_limit_is_in_the_help(self):
        text = " ".join(run_cli(["validate-clt", "--help"])[1].split())
        assert f"at most {MAX_HISTOGRAM_WIDTH} per p_e" in text


class TestMessagesNameTheValuesGiven:
    """A float given and named in an error message parses back to the value
    given: `:g` rounded each of these to six digits, naming a value nobody
    gave.  The floor p_e^L is derived, not given; it parses back to
    `AttemptLaw(p_e, L).floor`."""

    CASES = [
        (["validate-clt", "--runs", "5", "--pe", "0.999999999", "--max-attempts", "1000000000000",
          "--devices", "3"], r"sampled demand at p_e=(\S+) spans ", [0.999999999]),
        (["dimension", "--pe", "0.1", "--max-attempts", "3", "--target-eps", "0.0009999999"],
         r"target failure (\S+) is at or below the floor", [0.0009999999]),
        (["simulate", "--devices", "10000000000000", "--load", "999.99999999", "--runs", "2"],
         r"got 10000000000000 x (\S+)$", [999.99999999]),
        (["dimension", "--pe", "0.1", "--max-attempts", "3", "--target-eps", "0.001"],
         r"the floor p_e\^L = (\S+);", [AttemptLaw(0.1, 3).floor]),
        (["dimension", "--pe", "0.4", "--max-attempts", "10", "--target-eps", "0.0001"],
         r"the floor p_e\^L = (\S+);", [AttemptLaw(0.4, 10).floor]),
    ]

    @pytest.mark.parametrize("args, pattern, given", CASES,
                             ids=["validate-clt", "dimension", "simulate", "floor-L3", "floor-L10"])
    def test_each_float_named_is_the_value_given(self, args, pattern, given, tmp_path):
        code, stdout, err = run_cli([*args, "--out", str(tmp_path / "out.csv")])
        assert (code, stdout, err.count("\n")) == (1 + (args[0] == "dimension"), "", 1)
        named = re.search(pattern, err.rstrip("\n"))
        assert named, err
        assert [float(text) for text in named.groups()] == given
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    SEQUENCE = [
        ["simulate", "--devices", "50", "--policy", "fifo", "--capacity", "7", "--runs", "3"],
        ["dimension"],
        ["sweep", "--sweep", "devices:100:200:100", "--policy", "random", "--runs", "2"],
        ["validate-clt", "--pe", "0.2", "--runs", "5"],
        ["dimension", "--devices", "many"],
        ["simulate", "--help"],
        ["sweep", "--capacity", "5"],
        ["simulate", "--runs", "2", "--devices", "20"],
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_consecutive_calls_match_fresh_parsers(self, monkeypatch):
        reused = [run_cli(args) for args in self.SEQUENCE]
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = [run_cli(args) for args in self.SEQUENCE]
        assert reused == fresh

    def test_no_flag_leaks_into_the_next_call(self):
        build_parser().parse_args(["simulate", "--devices", "5", "--policy", "fifo", "--capacity", "9"])
        args = build_parser().parse_args(["dimension"])
        assert vars(args) == vars(build_parser.__wrapped__().parse_args(["dimension"]))
        assert args.devices is None and not hasattr(args, "policy") and not hasattr(args, "capacity")


class TestParserDispatch:
    """main reads argv with the named command's own parser; every argv gives
    the namespace, exit code and output that build_parser().parse_args gives."""

    ARGV = [
        ["dimension"], ["dimension", "--devices", "5", "--pe", "0.2", "--arrival", "one-per-ri"],
        ["simulate", "--devices", "20", "--capacity", "9", "--policy", "fifo", "--runs", "3"],
        ["validate-clt", "--runs", "5", "--seed", "2"], ["sweep", "--sweep=devices:1:3:1", "--runs=2"],
        ["sweep", "--sweep", "devices:0:10:5"], ["sweep", "--sweep", "devices:-5:10:5"],
        [], ["-h"], ["--help"], ["sweep", "--help"], ["dimension", "-h"], ["-h", "dimension"],
        ["frobnicate"], ["--version"], ["-x", "dimension"], ["dimension", "--capacity", "5"],
        ["sweep", "--capacity", "5"], ["dimension", "--bogus"], ["dimension", "--bogus", "--help"],
        ["dimension", "x"], ["dimension", "--", "x"], ["dimension", "dimension"],
        ["dimension", "--devices", "many"], ["dimension", "--devices"], ["dimension", "--dev", "5"],
        ["simulate", "--policy", "bogus"], ["dimension", "--out"],
    ]
    CONFIGS = {"unknown-key": "device_count=10\n", "bad-int": "max_attempts=not-a-number\n",
               "no-equals": "garbage\n", "bad-choice": "arrival=x\n", "load-too-large": "load=1e12\n"}

    @staticmethod
    def parse(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                result = vars(parse(argv)), None
            except SystemExit as exc:
                result = None, exc.code
        return result, out.getvalue(), err.getvalue()

    @staticmethod
    def top_level(argv):
        return build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_namespace_exit_and_output(self, argv, monkeypatch):
        dispatched = self.parse(cli._parse_args, argv)
        assert dispatched == self.parse(self.top_level, argv)
        ran = run_cli(argv)
        monkeypatch.setattr(cli, "_parse_args", self.top_level)
        assert ran == run_cli(argv)

    @pytest.mark.parametrize("case", [*CONFIGS, "missing", "not-utf8"])
    def test_config_file_errors(self, case, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        if case == "not-utf8":
            cfg.write_bytes(b"devices=\xff\n")
        elif case != "missing":
            cfg.write_text(self.CONFIGS[case])
        argv = ["simulate", "--runs", "2", "--devices", "10", "--config", str(cfg)]
        ran = run_cli(argv)
        assert ran[0] in (1, 4) and ran[1] == "" and ran[2].startswith("m2mpool: ")
        assert self.parse(cli._parse_args, argv) == self.parse(self.top_level, argv)
        monkeypatch.setattr(cli, "_parse_args", self.top_level)
        assert ran == run_cli(argv)


class TestSweepPointCost:
    # `sweep --sweep devices:1000:1000000:1000 --bandwidth-rbs 1000` evaluated Q
    # 2004 times, two per point and four for Q^-1, when each point still built
    # a DemandSummary and a PoolPlan
    Q_CALLS = 2004

    @staticmethod
    def spy(calls, fn):
        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return counted

    def test_a_point_builds_no_objects_and_no_more_q_evaluations(self, monkeypatch):
        summaries, plans, q_calls = [], [], []
        monkeypatch.setattr(DemandSummary, "__post_init__", self.spy(summaries, DemandSummary.__post_init__))
        monkeypatch.setattr(PoolPlan, "__new__", self.spy(plans, PoolPlan.__new__))
        for module in (analytic, numerics):
            monkeypatch.setattr(module, "q_function", self.spy(q_calls, q_function))
        code, out, _ = run_cli(["sweep", "--sweep", "devices:1000:1000000:1000", "--bandwidth-rbs", "1000"])
        assert code == 0 and out.count("\n") == 1001
        assert len(summaries) <= 1 and plans == []
        assert len(q_calls) <= self.Q_CALLS


class TestUsage:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", "86401"])
    def test_rejects_bad_ri_seconds(self, value):
        code, out, err = run_cli(["dimension", f"--ri-seconds={value}"])
        assert code == 1
        assert out == ""
        assert err.startswith("m2mpool: error: ri_seconds") and err.count("\n") == 1

    def test_missing_command(self):
        assert run_cli([])[0] == 1

    def test_unknown_command(self):
        assert run_cli(["frobnicate"])[0] == 1

    def test_non_numeric_flag(self):
        assert run_cli(["dimension", "--devices", "many"])[0] == 1

    @pytest.mark.parametrize("args", [["dimension", "--runs", "5"], ["validate-clt", "--target-eps", "0.1"],
                                      ["simulate", "--report-bytes", "50"]], ids=lambda args: args[0])
    def test_a_flag_the_command_does_not_read_is_refused(self, args):
        code, out, err = run_cli(args)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(args[1:])}" in err

    @pytest.mark.parametrize("args, message", [
        # the engine's own refusal, before its first draw
        (["validate-clt", "--runs", "0"], "runs must be positive, got 0"),
        (["simulate", "--runs", "0"], "runs must be positive, got 0"),
        (["dimension", "--ri-seconds", "0.0004"], "ri_seconds must be more than 0.0005 and at most 86400, got 0.0004"),
        # past the work budget, each of these would draw for hours before its first row
        (["simulate", "--runs", "31250000001", "--max-attempts", "64"],
         "a command may draw at most 2e+12 interval steps, intervals x min(L, 64); got 31250000001 x 64"),
        (["validate-clt", "--runs", "15625000001", "--max-attempts", "100"],
         "a command may draw at most 2e+12 interval steps, intervals x min(L, 64); got 31250000002 x 64"),
        (["sweep", "--sweep", "devices:1000:30000:1000", "--runs", "6666666667"],
         "a command may draw at most 2e+12 interval steps, intervals x min(L, 64); got 200000000010 x 10"),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_refusal_writes_one_line_and_no_file(self, args, message, tmp_path):
        result = run_cli([*args, "--out", str(tmp_path / "out.csv")])
        assert result == (1, "", f"m2mpool: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_the_work_budget_counts_intervals_times_chain_steps(self):
        # the budget itself passes, one interval step more is refused; L counts up to the 64-step chain
        for intervals, max_attempts in ((MAX_WORK // 64, 10**9), (MAX_WORK, 1)):
            sim.check_simulable(1, OnePerRI(), intervals, max_attempts)
            with pytest.raises(ParameterError, match="^a command may draw at most 2e"):
                sim.check_simulable(1, OnePerRI(), intervals + 1, max_attempts)
        # the largest default command, validate-clt at its two p_e, draws a 10**5th of it at most
        assert 2 * _OPTIONS["runs"][1] * _OPTIONS["max_attempts"][1] * 10**5 < MAX_WORK

    # an L past about 1.8e308 does not convert to a float
    @pytest.mark.parametrize("command", [
        ["dimension"],
        ["simulate", "--devices", "100", "--runs", "20"],
        ["sweep", "--sweep", "devices:1000:3000:1000", "--runs", "10"],
        ["validate-clt", "--runs", "50"],
    ], ids=lambda command: command[0])
    def test_retry_limit_beyond_float_range_ends_cleanly(self, command, tmp_path):
        code, _, err = run_cli([*command, "--max-attempts", "1" + "0" * 309,
                                "--out", str(tmp_path / "out.csv")])
        assert (code, err) == (0, "")


class TestRefusedBeforeTheFirstDraw:
    # a late infeasible point: an interval of 6000 subframes holds the pool of 33000 devices, not 34000
    LATE_INFEASIBLE = ["sweep", "--sweep", "devices:1000:100000:1000", "--ri-seconds", "6", "--runs", "5"]

    @pytest.mark.parametrize("args, code, message", [
        # drawn first, 3e6 runs took 1.2 s, and the budget's 2e11 would take about 20 hours
        (["validate-clt", "--runs", "3000000", "--devices", "1", "--arrival", "one-per-ri", "--pe", "0"], 1,
         "error: zero-variance summary has no Gaussian comparison"),
        (["simulate", "--devices", "100", "--runs", "10", "--capacity", "-1"], 1,
         "error: capacity must be non-negative, got -1"),
        (LATE_INFEASIBLE, 3, "infeasible geometry: pool needs 6095 subframes but the interval has only 6000"),
    ], ids=lambda value: value[0] if isinstance(value, list) else None)
    def test_refused_with_no_stream_built(self, args, code, message, tmp_path, monkeypatch):
        def stream(*args):
            raise AssertionError("a stream was built before the refusal")

        monkeypatch.setattr(sim, "RngStream", stream)
        result = run_cli([*args, "--out", str(tmp_path / "out.csv")])
        assert result == (code, "", f"m2mpool: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, code, estimates", [
        (LATE_INFEASIBLE, 3, 0),
        (["sweep", "--sweep", "devices:1000:3000:1000", "--runs", "5"], 0, 3),
        (["sweep", "--sweep", "report-bytes:100:300:100", "--runs", "5"], 0, 1),  # one estimate serves every point
    ], ids=["late-infeasible", "devices", "report-bytes"])
    def test_a_sweep_makes_no_estimate_before_every_point_is_checked(self, args, code, estimates, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "estimate_failure_prob",
                            lambda *args: calls.append(args) or sim.estimate_failure_prob(*args))
        result, out, _ = run_cli(args)
        assert (result, len(calls), out.count("\n")) == (code, estimates, 4 if estimates else 0)


@pytest.mark.skipif(os.name != "posix", reason="SIGTERM ends a process by the signal on POSIX only")
def test_sigterm_leaves_no_temporary_file_and_still_ends_the_process(tmp_path):
    # inside the work budget, the first point draws for hours: the command is stopped while its
    # temporary file is open
    command = [sys.executable, "-m", "m2mpool.cli", "sweep", "--sweep", "report-bytes:100:1000:100",
               "--modulation", "qam64", "--devices", "100", "--runs", "100000000000", "--out", "x.csv"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen(command, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        try:
            deadline = time.monotonic() + 60
            while not list(tmp_path.iterdir()) and child.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [path.name[:9] for path in tmp_path.iterdir()] == [".m2mpool-"]
            child.send_signal(signal.SIGTERM)
            out, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
    assert (child.returncode, out, err) == (-signal.SIGTERM, b"", b"")
    assert list(tmp_path.iterdir()) == []


class TestNegativeZeroErrorProb:
    # -0.0 passes the range check but printed as "-0"
    COMMANDS = [
        ["dimension"],
        ["simulate", "--devices", "100", "--runs", "50", "--seed", "3"],
        ["validate-clt", "--runs", "200", "--seed", "3"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda command: command[0])
    def test_minus_zero_gives_the_bytes_of_zero(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pe=-0.0\n")
        results = []
        for route in (["--pe", "0"], ["--pe", "-0.0"], ["--config", str(cfg)]):
            out = tmp_path / "out.csv"
            code, stdout, err = run_cli([*command, *route, "--out", str(out)])
            results.append((code, stdout, err, out.read_bytes()))
            out.unlink()
        assert results[0][0] == 0
        assert "pe=0" in results[0][1] and "pe=-0" not in results[0][1]
        assert results[1] == results[0]
        assert results[2] == results[0]


class TestDeviceCountBeyondDoubleRange:
    HUGE = "1" + "0" * 400
    MESSAGE = ("m2mpool: error: n_devices must be at most 1.79769e+308, the largest double, "
               "got an integer of 1329 bits\n")

    @pytest.mark.parametrize("command", [["dimension"], ["sweep", "--sweep", f"devices:{HUGE}:{HUGE}:1"]],
                             ids=lambda command: command[0])
    def test_exits_with_one_line(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"devices={self.HUGE}\n")
        out = tmp_path / "out.csv"
        routes = [["--devices", self.HUGE], ["--config", str(cfg)]] if command == ["dimension"] else [[]]
        for route in routes:
            assert run_cli([*command, *route, "--out", str(out)]) == (1, "", self.MESSAGE)
            assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_by_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"devices={self.HUGE}\n")
        out = tmp_path / "out.csv"
        result = run_cli(["sweep", "--sweep", "report-bytes:100:200:100", "--config", str(cfg),
                          "--out", str(out)])
        assert result == (1, "", self.MESSAGE)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_fails_at_the_first_point_past_the_limit(self, tmp_path):
        # 1e308 devices fit a double (and, on 1e310 RBs per subframe, the grid); 2e308 do not
        step = 10**308
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(["sweep", "--sweep", f"devices:{step}:{3 * step}:{step}",
                                     "--bandwidth-rbs", str(10**310), "--out", str(out)])
        assert (code, stdout) == (1, "")
        assert err == "m2mpool: error: n_devices must be at most 1.79769e+308, the largest double, " \
                      "got an integer of 1025 bits\n"
        assert list(tmp_path.iterdir()) == []
        code, _, _ = run_cli(["sweep", "--sweep", f"devices:{step}:{step}:{step}",
                              "--bandwidth-rbs", str(10**310), "--out", str(out)])
        assert code == 0
        assert len(read_rows(out)) == 1


class TestSweepPointLimit:
    def test_long_range_is_refused_before_any_point(self, tmp_path):
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        code, stdout, err = run_cli(["sweep", "--sweep", "devices:1:100000000000:1", "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert (code, stdout) == (1, "")
        assert err == f"m2mpool: error: a sweep may have at most {cli.MAX_SWEEP_POINTS} points, got 100000000000\n"
        assert list(tmp_path.iterdir()) == []

    def test_count_beyond_machine_integers_is_refused(self):
        code, _, err = run_cli(["sweep", "--sweep", f"devices:1:{10**30}:1"])
        assert code == 1
        assert err == f"m2mpool: error: a sweep may have at most {cli.MAX_SWEEP_POINTS} points, got {10**30}\n"

    def test_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 5)
        out = tmp_path / "out.csv"
        for axis in ("devices:1000:5000:1000", "devices:1000:5999:1000", "report-bytes:100:500:100"):
            assert run_cli(["sweep", "--sweep", axis, "--out", str(out)])[0] == 0
            assert len(read_rows(out)) == 5
        out.unlink()
        for axis in ("devices:1000:6000:1000", "report-bytes:100:600:100"):
            assert run_cli(["sweep", "--sweep", axis, "--out", str(out)]) == \
                (1, "", "m2mpool: error: a sweep may have at most 5 points, got 6\n")
            assert list(tmp_path.iterdir()) == []

    def test_limit_is_in_the_help(self):
        assert cli.MAX_SWEEP_POINTS == MAX_HISTOGRAM_WIDTH
        text = " ".join(run_cli(["sweep", "--help"])[1].split())
        assert f"(at most {cli.MAX_SWEEP_POINTS} points)" in text
