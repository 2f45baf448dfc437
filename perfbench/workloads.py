"""The four benchmark workloads: the commands each one sends and the checks on
what comes back.

Every workload is a closed loop of `m2mpool` CLI commands.  Operation i of a
run with base seed S passes `--seed S+i`; an operation is one command, except
on `overload-serve`, where it is the random/FIFO pair at the same seed.

The checks are independent of the package: expected moments come from the
model's closed forms re-derived here, Gaussian tails from `math.erfc`, and the
overload reference from a long run recorded when the benchmark was defined.
The simulation checks are statistical, so a change of stream layout that keeps
the law still passes them; the `dimension-sweep` check is byte-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

# the checkout: perfbench/ lies next to src/ and tests/goldens/
ROOT = Path(__file__).resolve().parent.parent

# The pooled checks run on every benchmark run, hundreds of times over, so the
# two-sided Gaussian ones sit at 5 sigma (a chance failure about once in 1.7
# million checks); a real defect moves a pooled statistic by far more.
Z_TWO_SIDED = 5.0
# One-sided headline check: p_hat at most bound + 3 Wilson standard errors.
Z_HEADLINE = 3.0
KS_LIMIT = 0.02
# DKW band for the pooled empirical CDF at this false-alarm rate; the exact
# law sits 0.0151 (p_e=0.1) and 0.0150 (p_e=0.4) from its Gaussian in KS
# distance, so the sampling band has to be allowed for on top of the limit.
KS_ALPHA = 1e-6

SIMULATE_HEADER = "N,pe,L,capacity,policy,intervals,reports,failures,p_hat,ci_low,ci_high,bound"
CLT_HEADER = "pe,value,empirical_pdf,empirical_cdf,gaussian_pdf,gaussian_cdf"

GOLDEN_SWEEPS = (
    ("sweep_devices_qpsk_5mhz.csv", ["sweep", "--sweep", "devices:1000:30000:1000"]),
    ("sweep_devices_qam64_5mhz.csv",
     ["sweep", "--sweep", "devices:1000:30000:1000", "--modulation", "qam64"]),
    ("sweep_report_bytes_qam64_5mhz.csv",
     ["sweep", "--sweep", "report-bytes:100:1000:100", "--modulation", "qam64"]),
)

# Pooled p_hat per policy at N=1000, p_e=0.4, L=10, C=926, from 1000
# commands of 100 intervals each (seeds 1000000..1000999), and the standard
# deviation of one command's p_hat.  Regenerate with make_reference.py.
OVERLOAD_REFERENCE = {
    "random": {"p_hat": 0.0654668, "sd_command": 0.0029343, "commands": 1000},
    "fifo": {"p_hat": 0.065459, "sd_command": 0.0029296, "commands": 1000},
}


@dataclass
class Outcome:
    """What one operation produced: the CSV bytes of each of its commands."""

    exit_codes: list[int]
    outputs: list[bytes]


class Workload:
    """One closed loop of CLI operations; subclasses fix the commands and checks."""

    name = ""
    unit = ""  # what one unit of work_per_s counts

    def commands(self, seed: int) -> list[list[str]]:
        """argv of each command of the operation that runs at `seed`."""
        raise NotImplementedError

    def units(self, seed: int) -> int:
        """Units of work (intervals, replications or points) in that operation."""
        raise NotImplementedError

    def points(self, seed: int) -> int:
        """Operating points that operation answers."""
        return len(self.commands(seed))

    def check_op(self, seed: int, outcome: Outcome) -> None:
        """Check one operation's CSV outputs and pool them; raise ValueError if wrong."""
        raise NotImplementedError

    def pooled_checks(self) -> list[tuple[str, bool]]:
        """Checks over everything pooled so far, as (description, passed)."""
        return []


def csv_rows(data: bytes, header: str) -> list[list[str]]:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r} is not {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    if any(len(row) != width for row in rows):
        raise ValueError(f"a row does not have {width} fields")
    return rows


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def wilson_se(failures: int, trials: int) -> float:
    """Half-width of the z=1 Wilson score interval."""
    p = failures / trials
    return math.sqrt(p * (1.0 - p) / trials + 1.0 / (4.0 * trials * trials)) / (1.0 + 1.0 / trials)


def gaussian_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def demand_moments(n_devices: int, p_e: float, max_attempts: int) -> tuple[float, float]:
    """(mean, std) of the pool demand under unit Poisson arrivals.

    With S the attempt total of a device's U ~ Poisson(1) reports and
    R_i = (S - 1) 1{U >= 1}: E[R_i] = E[W] - (1 - 1/e) and
    E[R_i^2] = Var W + 2 E[W]^2 - 2 E[W] + (1 - 1/e).
    """
    pmf = [p_e ** (k - 1) * (1.0 - p_e) for k in range(1, max_attempts)] + [p_e ** (max_attempts - 1)]
    ew = sum(k * p for k, p in enumerate(pmf, start=1))
    ew2 = sum(k * k * p for k, p in enumerate(pmf, start=1))
    active = 1.0 - math.exp(-1.0)
    mean1 = ew - active
    second1 = (ew2 - ew * ew) + 2.0 * ew * ew - 2.0 * ew + active
    return n_devices * mean1, math.sqrt(n_devices * (second1 - mean1 * mean1))


def _check_simulate_row(data: bytes, expected: dict[str, str], bound: float) -> tuple[int, int]:
    """Validate one simulate CSV; return (reports, failures)."""
    rows = csv_rows(data, SIMULATE_HEADER)
    if len(rows) != 1:
        raise ValueError(f"expected one row, got {len(rows)}")
    row = dict(zip(SIMULATE_HEADER.split(","), rows[0]))
    for key, value in expected.items():
        if row[key] != value:
            raise ValueError(f"{key}={row[key]!r}, expected {value!r}")
    reports, failures = int(row["reports"]), int(row["failures"])
    if not 0 <= failures <= reports or reports == 0:
        raise ValueError(f"failures={failures} reports={reports}")
    p_hat, low, high = float(row["p_hat"]), float(row["ci_low"]), float(row["ci_high"])
    if not _close(p_hat, failures / reports, 1e-8) or not low <= p_hat <= high:
        raise ValueError(f"p_hat={p_hat} ci=[{low}, {high}] for {failures}/{reports}")
    if not _close(float(row["bound"]), bound, 1e-8):
        raise ValueError(f"bound={row['bound']}, expected {bound}")
    return reports, failures


class HeadlineSim(Workload):
    """simulate --runs 50 at the headline point: N=30000, p_e=0.1, L=10, C=14841."""

    RUNS = 50
    BOUND = 0.0009851389885
    EXPECTED = {"N": "30000", "pe": "0.1", "L": "10", "capacity": "14841",
                "policy": "random", "intervals": str(RUNS)}

    name = "headline-sim"
    unit = "intervals"

    def __init__(self) -> None:
        self.reports = 0
        self.failed = 0

    def commands(self, seed: int) -> list[list[str]]:
        return [["simulate", "--runs", str(self.RUNS), "--seed", str(seed)]]

    def units(self, seed: int) -> int:
        return self.RUNS

    def check_op(self, seed: int, outcome: Outcome) -> None:
        reports, failures = _check_simulate_row(outcome.outputs[0], self.EXPECTED, self.BOUND)
        self.reports += reports
        self.failed += failures

    def pooled_checks(self) -> list[tuple[str, bool]]:
        if not self.reports:
            return []
        p_hat = self.failed / self.reports
        limit = self.BOUND + Z_HEADLINE * wilson_se(self.failed, self.reports)
        return [(f"pooled p_hat {p_hat:.4g} <= bound + 3 Wilson SE = {limit:.4g} "
                 f"({self.failed}/{self.reports})", p_hat <= limit)]


class CltSmall(Workload):
    """validate-clt --runs 1000 at N=100, both p_e=0.1 and p_e=0.4."""

    RUNS = 1000
    PE = ("0.1", "0.4")

    name = "clt-small"
    unit = "replications"

    def __init__(self) -> None:
        self.hist: dict[str, dict[int, int]] = {pe: {} for pe in self.PE}

    def commands(self, seed: int) -> list[list[str]]:
        return [["validate-clt", "--runs", str(self.RUNS), "--seed", str(seed)]]

    def units(self, seed: int) -> int:
        return self.RUNS * len(self.PE)

    def points(self, seed: int) -> int:
        return len(self.PE)

    def check_op(self, seed: int, outcome: Outcome) -> None:
        rows = csv_rows(outcome.outputs[0], CLT_HEADER)
        counts: dict[str, dict[int, int]] = {pe: {} for pe in self.PE}
        for row in rows:
            if row[0] not in counts:
                raise ValueError(f"unexpected row {row!r}")
            pdf = float(row[2]) * self.RUNS
            count = round(pdf)
            if abs(pdf - count) > 1e-6 or count < 0:
                raise ValueError(f"empirical_pdf {row[2]} is not a count over {self.RUNS} runs")
            counts[row[0]][int(row[1])] = count
        for pe, hist in counts.items():
            values = sorted(hist)
            if sum(hist.values()) != self.RUNS or values != list(range(values[0], values[0] + len(values))):
                raise ValueError(f"pe={pe}: histogram is not {self.RUNS} runs over a contiguous range")
        for pe, hist in counts.items():
            pooled = self.hist[pe]
            for value, count in hist.items():
                pooled[value] = pooled.get(value, 0) + count

    def pooled_checks(self) -> list[tuple[str, bool]]:
        checks = []
        for pe, hist in self.hist.items():
            n = sum(hist.values())
            if not n:
                continue
            mu, sigma = demand_moments(100, float(pe), 10)
            mean = sum(v * c for v, c in hist.items()) / n
            tol = Z_TWO_SIDED * sigma / math.sqrt(n)
            checks.append((f"pe={pe}: pooled mean {mean:.4f} within {tol:.4f} of {mu:.4f} (n={n})",
                           abs(mean - mu) <= tol))
            cum = 0
            ks = 0.0
            for value in sorted(hist):
                cum += hist[value]
                ks = max(ks, abs(cum / n - gaussian_cdf((value + 0.5 - mu) / sigma)))
            band = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))
            checks.append((f"pe={pe}: pooled KS {ks:.5f} <= {KS_LIMIT} + DKW band {band:.5f}",
                           ks <= KS_LIMIT + band))
        return checks


class OverloadServe(Workload):
    """simulate at N=1000, p_e=0.4, C=926 under random then FIFO, same seed."""

    RUNS = 100
    POLICIES = ("random", "fifo")
    BOUND = 0.9780708223

    name = "overload-serve"
    unit = "intervals"

    def __init__(self) -> None:
        self.totals = {policy: [0, 0, 0] for policy in self.POLICIES}  # reports, failures, commands

    def commands(self, seed: int) -> list[list[str]]:
        return [["simulate", "--devices", "1000", "--pe", "0.4", "--capacity", "926",
                 "--runs", str(self.RUNS), "--policy", policy, "--seed", str(seed)]
                for policy in self.POLICIES]

    def units(self, seed: int) -> int:
        return self.RUNS * len(self.POLICIES)

    def check_op(self, seed: int, outcome: Outcome) -> None:
        for policy, data in zip(self.POLICIES, outcome.outputs):
            expected = {"N": "1000", "pe": "0.4", "L": "10", "capacity": "926",
                        "policy": policy, "intervals": str(self.RUNS)}
            reports, failures = _check_simulate_row(data, expected, self.BOUND)
            total = self.totals[policy]
            total[0] += reports
            total[1] += failures
            total[2] += 1

    def pooled_checks(self) -> list[tuple[str, bool]]:
        checks = []
        for policy, (reports, failures, commands) in self.totals.items():
            if not commands:
                continue
            ref = OVERLOAD_REFERENCE[policy]
            p_hat = failures / reports
            tol = Z_TWO_SIDED * math.sqrt(ref["sd_command"] ** 2 / commands
                                          + ref["sd_command"] ** 2 / ref["commands"])
            checks.append((f"{policy}: pooled p_hat {p_hat:.5f} within {tol:.5f} of reference "
                           f"{ref['p_hat']:.5f} ({commands} commands)",
                           abs(p_hat - ref["p_hat"]) <= tol))
        return checks


class DimensionSweep(Workload):
    """The three golden sweep commands, in rotation; outputs must match byte for byte."""

    name = "dimension-sweep"
    unit = "points"

    def __init__(self) -> None:
        self.goldens = [((ROOT / "tests" / "goldens" / name).read_bytes(), argv)
                        for name, argv in GOLDEN_SWEEPS]

    def _golden(self, seed: int) -> tuple[bytes, list[str]]:
        return self.goldens[seed % len(self.goldens)]

    def commands(self, seed: int) -> list[list[str]]:
        return [self._golden(seed)[1] + ["--seed", str(seed)]]

    def units(self, seed: int) -> int:
        return self._golden(seed)[0].count(b"\n") - 1

    def points(self, seed: int) -> int:
        return self.units(seed)

    def check_op(self, seed: int, outcome: Outcome) -> None:
        if outcome.outputs[0] != self._golden(seed)[0]:
            raise ValueError(f"output differs from golden {GOLDEN_SWEEPS[seed % len(self.goldens)][0]}")


WORKLOADS = {workload.name: workload for workload in (HeadlineSim, CltSmall, OverloadServe, DimensionSweep)}
NAMES = tuple(WORKLOADS)
