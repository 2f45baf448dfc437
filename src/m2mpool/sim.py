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

Implementation note: the engine draws counts, not devices or reports.  A
block of up to BLOCK_INTERVALS intervals comes from one stream (seed, block)
(stream layout v2): the active devices are Bin(N, 1 - e^-load); the devices
with at least k + 1 reports are a binomial thinning of those with at least k,
by P[U >= k+1 | U >= k]; and, for the first reports and the excess reports
separately, the reports that make attempt j + 1 are Bin(those that made
attempt j, p_e), with one more thinning at attempt L for the retry-limit
failures.  Demand and retry-limit failures follow for the whole block at
once, at a cost that does not grow with N.  Only an interval whose demand
exceeds the pool rebuilds per-report state from these class counts and
replays the slots; reports of one kind are exchangeable, so FIFO sees each
kind shuffled, and the random policy's law does not depend on order.
Fixing each report's attempt count before serving is distribution-identical
to drawing a Bernoulli outcome per served slot because no scheduling
decision ever depends on a future outcome.  Reports still in flight after
_CHAIN_STEPS attempts get per-report geometric draws for the rest, which
keeps the law (the geometric is memoryless) and the chain short when p_e is
near 1.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .analytic import DemandSummary, OnePerRI, SystemParams
from .errors import IndeterminateEstimateError, ParameterError
from .numerics import RngStream, leading_failure_counts, q_function

# unused here since the engine draws counts, kept importable because the
# benchmark tracer (perfbench/tracing.py) patches m2mpool.sim.poisson_counts
from .numerics import poisson_counts  # noqa: F401

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


BLOCK_INTERVALS = 1000
# attempts drawn as binomial counts before the reports still in flight get
# per-report geometric draws; keeps a block's cost bounded as p_e nears 1
_CHAIN_STEPS = 64
# largest Poisson load the engine draws: its tail table and excess-report
# chain grow with the load, each about twice as long
MAX_LOAD = 1_000.0


def check_load(load: float) -> None:
    """Reject a Poisson arrival load above what the engine simulates."""
    if not load <= MAX_LOAD:
        raise ParameterError(f"load must be at most {MAX_LOAD:g} to simulate, got {load!r}")


@lru_cache(maxsize=64)
def _excess_ratios(load: float) -> np.ndarray:
    """P[U >= k+1 | U >= k] for k = 1, 2, ... and U ~ Poisson(load).

    The pmf is built outward from its mode, so neither e^-load nor
    load^k / k! leaves double range, until the mass beyond is below ~1e-19;
    the tails are summed from the top, where 1 - cdf would cancel.  The last
    ratio is 0: no device reports past the table.
    """
    check_load(load)
    mode = int(load)
    below = [1.0]
    for k in range(mode, 0, -1):
        below.append(below[-1] * k / load)
    above = [1.0]
    k = mode
    while above[-1] > 1e-19 or k < 2 * load + 10:
        k += 1
        term = above[-1] * load / k
        if term == 0.0:
            break
        above.append(term)
    pmf = np.array(below[:0:-1] + above)
    tail = np.cumsum(pmf[::-1])[::-1]
    return np.append(tail[2:], 0.0) / tail[1:]


class _Reports:
    """One kind of report (first or excess) over a block of intervals, as counts.

    ``reached[j, b]`` reports of interval b make attempt j + 1, and
    ``beyond[b]`` of them also fail the last attempt drawn: at the retry
    limit these are the exhausted reports, past `_CHAIN_STEPS` the ones still
    in flight.
    """

    def __init__(self, gen: np.random.Generator, count: np.ndarray, p_e: float, steps: int) -> None:
        reached = [count]
        while len(reached) < steps and reached[-1].any():
            reached.append(gen.binomial(reached[-1], p_e))
        self.reached = np.array(reached)
        self.beyond = gen.binomial(reached[-1], p_e)
        self.attempts = self.reached.sum(axis=0)

    def classes(
        self, b: int, more: np.ndarray, exhausted: np.ndarray, preallocated: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pool slots needed, retry-limit flag and report count of each class in interval b.

        One class per attempt count for the reports that succeeded within the
        chain, one per report for the `beyond` ones (`more` attempts past the
        chain each).
        """
        col = self.reached[:, b]
        attempts = np.concatenate([np.arange(1, col.size + 1), col.size + more])
        counts = np.concatenate([col - np.append(col[1:], more.size), np.ones(more.size, np.int64)])
        flags = np.concatenate([np.zeros(col.size, dtype=bool), exhausted])
        return attempts - preallocated, flags, counts


def _finish(
    gen: np.random.Generator, p_e: float, reports: int, remaining: int
) -> tuple[np.ndarray, np.ndarray]:
    """Attempts past the chain, and retry-limit flags, of reports that failed its last attempt."""
    if remaining == 0:
        return np.zeros(reports, dtype=np.int64), np.ones(reports, dtype=bool)
    fails = leading_failure_counts(gen, p_e, reports)
    return np.minimum(fails + 1, remaining), fails >= remaining


def _draw_block(
    gen: np.random.Generator,
    params: SystemParams,
    size: int,
    capacity: int,
    policy: SchedulerPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reports, failures, demand and unserved failures of `size` intervals.

    The stream yields, for the whole block: the active devices, the
    excess-report chain, the first reports' attempt chain, the excess
    reports' attempt chain.  Then, interval by interval, only where the chain
    left reports in flight or the demand exceeds `capacity`: their
    per-report draws, and the pool replay.
    """
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    p_e = params.p_e
    excess = np.zeros(size, dtype=np.int64)
    if isinstance(params.arrival, OnePerRI):
        active = np.full(size, params.n_devices, dtype=np.int64)
    else:
        load = params.arrival.load
        ratios = _excess_ratios(load).tolist()
        active = gen.binomial(params.n_devices, -math.expm1(-load), size)
        # devices with at least k + 1 reports, thinned from those with at least k
        reaching = active
        for ratio in ratios:
            reaching = gen.binomial(reaching, ratio)
            if not reaching.any():
                break
            excess += reaching
    steps = min(params.max_attempts, _CHAIN_STEPS)
    # an L beyond int64 caps nothing a draw can reach, and would overflow numpy
    remaining = min(params.max_attempts - steps, _INT64_MAX)
    kinds = (_Reports(gen, active, p_e, steps), _Reports(gen, excess, p_e, steps))
    demand = kinds[0].attempts - active + kinds[1].attempts
    failures = kinds[0].beyond + kinds[1].beyond
    unserved = np.zeros(size, dtype=np.int64)
    special = demand > capacity
    if remaining:
        special |= failures > 0
    for b in np.flatnonzero(special).tolist():
        finished = [_finish(gen, p_e, int(kind.beyond[b]), remaining) for kind in kinds]
        demand[b] += sum(int(more.sum()) for more, _ in finished)
        failures[b] = sum(int(flags.sum()) for _, flags in finished)
        if demand[b] > capacity:
            failures[b], unserved[b] = _replay(gen, kinds, finished, b, capacity, policy)
    return active + excess, failures, demand, unserved


def _replay(
    gen: np.random.Generator,
    kinds: tuple[_Reports, _Reports],
    finished: list[tuple[np.ndarray, np.ndarray]],
    b: int,
    capacity: int,
    policy: SchedulerPolicy,
) -> tuple[int, int]:
    """Rebuild interval b's per-report state from its class counts and serve the pool.

    Reports of one kind are exchangeable, so FIFO sees each kind in a
    uniformly shuffled order, first reports ahead of excess ones; the random
    policy's law does not depend on the order.
    """
    parts = [kind.classes(b, *done, preallocated)
             for kind, done, preallocated in zip(kinds, finished, (1, 0))]
    pending, flags, counts = (np.concatenate(column) for column in zip(*parts))
    # a report done after its preallocated slot needs no pool; it fails only at the retry limit
    idle = pending == 0
    failures = int(counts[idle & flags].sum())
    counts[idle] = 0
    cls = np.repeat(np.arange(counts.size), counts)
    if policy is SchedulerPolicy.FIFO:
        split = int(counts[: parts[0][2].size].sum())
        gen.shuffle(cls[:split])
        gen.shuffle(cls[split:])
    served, unserved = _serve_oversubscribed(gen, pending[cls], flags[cls], capacity, policy)
    return failures + served, unserved


def _blocks(
    params: SystemParams,
    runs: int,
    seed: int,
    capacity: int,
    policy: SchedulerPolicy,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """`_draw_block` over `runs` intervals; block k draws from stream (seed, k)."""
    for index, start in enumerate(range(0, runs, BLOCK_INTERVALS)):
        gen = RngStream(seed, index).generator
        yield _draw_block(gen, params, min(BLOCK_INTERVALS, runs - start), capacity, policy)


def sample_demand(params: SystemParams, runs: int, seed: int) -> DemandHistogram:
    """Histogram of the shared-pool demand R over independent interval replays.

    The demands of `runs` intervals drawn as counts (see `_draw_block`)
    against a pool no demand exceeds, so nothing is served; interval i lies
    in block i // BLOCK_INTERVALS.
    """
    if runs < 1:
        raise ParameterError(f"runs must be positive, got {runs!r}")
    blocks = _blocks(params, runs, seed, _INT64_MAX, SchedulerPolicy.RANDOM_UNIFORM)
    demands = np.concatenate([demand for _, _, demand, _ in blocks])
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
    (zero whenever demand fits the pool).  The one-interval case of
    `_draw_block`, drawn from `rng`.
    """
    results = _draw_block(rng.generator, params, 1, capacity, policy)
    return IntervalResult(*(int(values[0]) for values in results))


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

    Block k of BLOCK_INTERVALS intervals consumes its own stream (seed, k)
    and the reduction is a plain ordered sum, so the estimate depends on
    (seed, intervals) only.
    """
    if intervals < 1:
        raise ParameterError(f"intervals must be positive, got {intervals!r}")
    total = 0
    failed = 0
    for reports, failures, _, _ in _blocks(params, intervals, seed, capacity, policy):
        total += int(reports.sum())
        failed += int(failures.sum())
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
