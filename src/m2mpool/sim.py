"""Seeded Monte Carlo engine for the periodic reporting pool.

Two jobs: sample the per-interval shared-pool demand R to check its Gaussian
approximation, and replay whole reporting intervals against a finite pool to
estimate the empirical report-failure probability under a concrete
scheduler.

Interval semantics.  Every report that arrived during the previous interval
is served in the current pool.  Each active device's first report gets its
first transmission in the device's preallocated slot (always granted, still
subject to the reception-failure probability p_e).  Everything else, first
transmissions of excess reports and every retransmission, competes for the
shared pool, which serves one pending transmission per slot for `capacity`
slots.  Feedback latency is negligible on the interval's time scale, so a
failed transmission re-enters the pending queue immediately.  A report fails
when it accumulates L failed attempts, or when the pool ends while any of
its transmissions is still waiting; the scheduler does not anticipate
exhaustion.

Implementation note: each report's run of leading failures is drawn up
front, which fixes both the number of slots the report would occupy and
whether it dies at the retry limit.  This is distribution-identical to
drawing a Bernoulli outcome per served slot because no scheduling decision
ever depends on a future outcome.  Whenever the realized demand fits the
pool, scheduling order cannot matter at all and the slot loop is skipped.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analytic import DemandSummary, OnePerRI, SystemParams
from .errors import IndeterminateEstimateError, ParameterError
from .numerics import RngStream, leading_failure_counts, poisson_counts, q_function

_INT64_MAX = int(np.iinfo(np.int64).max)

Z95 = 1.959963984540054


class SchedulerPolicy(enum.Enum):
    """Which pending transmission a shared-pool slot serves."""

    RANDOM_UNIFORM = "random"
    FIFO = "fifo"


class IntervalResult(NamedTuple):
    reports: int
    failures: int
    common_demand: int
    unserved_failures: int


@dataclass(frozen=True, eq=False)
class DemandHistogram:
    """Occurrence counts of the integer shared-pool demand over replications.

    ``counts[k]`` is the number of replications whose demand was
    ``offset + k``: an ``np.bincount`` shifted to start at the smallest
    demand seen.
    """

    counts: np.ndarray
    offset: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0 or self.counts.ndim != 1 or (self.counts < 0).any() or self.runs < 1:
            raise ParameterError("histogram needs non-negative counts totalling at least one run")

    @cached_property
    def runs(self) -> int:
        return int(self.counts.sum())

    @property
    def values(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.counts.size)

    def mean(self) -> float:
        return int(self.values @ self.counts) / self.runs

    def variance(self) -> float:
        """Unbiased sample variance."""
        if self.runs < 2:
            return 0.0
        return float(self.counts @ (self.values - self.mean()) ** 2) / (self.runs - 1)


@dataclass(frozen=True)
class FailureEstimate:
    """Empirical report-failure probability with a 95% Wilson interval."""

    reports_total: int
    reports_failed: int
    p_hat: float
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval; stays inside [0, 1] and behaves at p near 0."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ParameterError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # the endpoints are exactly 0 and 1 at boundary counts; roundoff must not
    # push them inside the point estimate
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _draw_interval(gen: np.random.Generator, params: SystemParams) -> tuple[int, np.ndarray, np.ndarray]:
    """Active devices, then per report its leading failures and capped attempt count.

    The first `n_active` reports are the active devices' first reports.  The
    stream yields the report counts first, then one failure run per report.
    """
    if isinstance(params.arrival, OnePerRI):
        n_active = n_reports = params.n_devices
    else:
        u = poisson_counts(gen, params.arrival.load, params.n_devices)
        n_active, n_reports = int(np.count_nonzero(u)), int(u.sum())
    fails = leading_failure_counts(gen, params.p_e, n_reports)
    # an L beyond int64 caps nothing a draw can reach, and would overflow numpy
    cap = min(params.max_attempts, _INT64_MAX)
    return n_active, fails, np.minimum(fails + 1, cap)


def sample_demand(params: SystemParams, runs: int, seed: int) -> DemandHistogram:
    """Histogram of the shared-pool demand R over independent interval replays.

    Replication i consumes stream (seed, i): per device draw the report
    count, per report the truncated-geometric attempt count, and charge
    everything beyond each active device's preallocated first transmission
    to the pool.
    """
    if runs < 1:
        raise ParameterError(f"runs must be positive, got {runs!r}")
    demands = np.empty(runs, dtype=np.int64)
    for i in range(runs):
        n_active, _, attempts = _draw_interval(RngStream(seed, i).generator, params)
        demands[i] = int(attempts.sum()) - n_active
    low = int(demands.min())
    return DemandHistogram(counts=np.bincount(demands - low), offset=low)


def ks_distance(hist: DemandHistogram, summary: DemandSummary) -> float:
    """Max gap between the empirical demand CDF and the matched Gaussian.

    The Gaussian CDF is read at r + 1/2, the continuity correction for an
    integer-valued quantity, and the gap is scanned over the demand values
    the histogram actually holds.
    """
    if summary.variance <= 0.0:
        raise ParameterError("zero-variance summary has no Gaussian comparison")
    sigma = summary.std
    cumulative = np.cumsum(hist.counts).tolist()
    worst = 0.0
    for k in np.flatnonzero(hist.counts).tolist():
        gauss = 1.0 - q_function((hist.offset + k + 0.5 - summary.mean) / sigma)
        worst = max(worst, abs(cumulative[k] / hist.runs - gauss))
    return worst


def simulate_interval(
    params: SystemParams,
    capacity: int,
    policy: SchedulerPolicy,
    rng: RngStream,
) -> IntervalResult:
    """Replay one reporting interval against a pool of `capacity` transmissions.

    Returns total reports, failed reports, the realized shared-pool demand,
    and how many of the failures were reports left unserved at pool end
    (zero whenever demand fits the pool).
    """
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    gen = rng.generator
    n_active, fails, pending = _draw_interval(gen, params)
    n_reports = fails.size
    if n_reports == 0:
        return IntervalResult(0, 0, 0, 0)
    exhausted = fails >= params.max_attempts
    # slots each report still needs from the shared pool
    pending[:n_active] -= 1
    demand = int(pending.sum())
    if demand <= capacity:
        return IntervalResult(n_reports, int(exhausted.sum()), demand, 0)
    failures, unserved = _serve_oversubscribed(gen, pending, exhausted, capacity, policy)
    return IntervalResult(n_reports, failures, demand, unserved)


def _serve_oversubscribed(
    gen: np.random.Generator,
    pending: np.ndarray,
    exhausted: np.ndarray,
    capacity: int,
    policy: SchedulerPolicy,
) -> tuple[int, int]:
    """Serve exactly `capacity` slots of a pool with more work than slots."""
    live = np.flatnonzero(pending)
    # reports already complete after the preallocated slot fail only at the retry limit
    failures = int(exhausted[pending == 0].sum())
    remaining = pending[live].tolist()
    flags = exhausted[live].tolist()
    if policy is SchedulerPolicy.RANDOM_UNIFORM:
        count = len(remaining)
        picks = gen.random(capacity)
        for t in range(capacity):
            j = int(picks[t] * count)
            remaining[j] -= 1
            if remaining[j] == 0:
                if flags[j]:
                    failures += 1
                count -= 1
                remaining[j] = remaining[count]
                flags[j] = flags[count]
        return failures + count, count
    if policy is SchedulerPolicy.FIFO:
        queue = deque(zip(remaining, flags))
        for _ in range(capacity):
            left, flag = queue.popleft()
            if left == 1:
                if flag:
                    failures += 1
            else:
                queue.append((left - 1, flag))
        return failures + len(queue), len(queue)
    raise ParameterError(f"unknown scheduler policy: {policy!r}")


def estimate_failure_prob(
    params: SystemParams,
    capacity: int,
    policy: SchedulerPolicy,
    intervals: int,
    seed: int,
) -> FailureEstimate:
    """Aggregate failure statistics over independent interval replays.

    Interval i consumes its own stream (seed, i) and the reduction is a plain
    ordered sum, so the estimate does not depend on execution interleaving.
    """
    if intervals < 1:
        raise ParameterError(f"intervals must be positive, got {intervals!r}")
    total = 0
    failed = 0
    for i in range(intervals):
        result = simulate_interval(params, capacity, policy, RngStream(seed, i))
        total += result.reports
        failed += result.failures
    if total == 0:
        raise IndeterminateEstimateError(
            f"no reports generated over {intervals} intervals; estimate undefined"
        )
    low, high = wilson_interval(failed, total)
    return FailureEstimate(
        reports_total=total,
        reports_failed=failed,
        p_hat=failed / total,
        ci_low=low,
        ci_high=high,
    )
