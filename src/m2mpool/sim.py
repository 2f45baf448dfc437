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
(stream layout v4) as two multinomial draws, one numpy call each for the
whole block (see _drawn_in_order for the category order): the N devices of
each interval by report count, over the Poisson pmf (all at one report
without Poisson arrivals); then each interval's first and excess reports,
as two rows, by outcome: done at attempt j <= _CHAIN_STEPS, or failing
every attempt drawn (`beyond`).  Demand and retry-limit failures follow for
the whole block at once, at a cost that does not grow with N.  Fixing each
report's attempt count before serving is distribution-identical to drawing
a Bernoulli outcome per served slot because no scheduling decision ever
depends on a future outcome.  Reports still in flight after _CHAIN_STEPS
attempts get per-report geometric draws for the rest, which keeps the law
(the geometric is memoryless) and the categories few when p_e is near 1.

Only an interval whose demand exceeds the pool is served, and it is served
from its class table (pool slots needed, retry-limit flag, report count), in
closed form rather than slot by slot:

- FIFO serves the pending queue round robin: a report whose transmission
  fails goes to the back, behind every report still waiting.  So after K
  full rounds it has used sum_c n_c min(p_c, K) slots, and the pool ends
  inside round K + 1 for the largest K at which that fits.  The s slots left
  go to the first s reports in queue order among those needing more than K.
  Reports of one kind are exchangeable and the queue holds the first reports
  ahead of the excess ones, each kind in uniformly random order, so how many
  of each kind's reports needing exactly K + 1 get one of those slots is a
  hypergeometric draw (and, of those, how many carry the retry-limit flag,
  another).  Every other report is served whole or not at all by then.
- The random policy picks a uniformly random live report at each slot.  That
  is the law of independent rate-1 exponential clocks, one per live report,
  with a slot served at each ring: by memorylessness the next ring comes
  from each live report with equal probability.  Report j rings p_j times,
  at the partial sums of p_j standard exponentials, and the pool ends at the
  C-th ring overall, so report j completes iff its last ring is among the
  first C.  Exactly C rings are served even where ring times tie (such ties
  go either way), and a report completes iff none of its rings is left out,
  which keeps the count exact when two rings of one report tie.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, TypeAlias

from .analytic import DemandSummary, OnePerRI, SystemParams
from .errors import IndeterminateEstimateError, ParameterError
from .numerics import RngStream, leading_failure_counts, np, q_function

# unused here since the engine draws counts, kept importable because the
# benchmark tracer (perfbench/tracing.py) patches m2mpool.sim.poisson_counts
from .numerics import poisson_counts  # noqa: F401

_INT64_MAX = 2**63 - 1  # np.iinfo(np.int64).max, without loading numpy

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
# attempts drawn as multinomial categories before the reports still in flight
# get per-report geometric draws; keeps a block's cost bounded as p_e nears 1
_CHAIN_STEPS = 64
# largest Poisson load the engine draws: its report-count categories, about
# twice the load, grow with it
MAX_LOAD = 1_000.0
# widest demand histogram `sample_demand` builds, in values (CSV rows of validate-clt)
MAX_HISTOGRAM_WIDTH = 1_000_000
# rings drawn in one pass of the random policy's clocks
_RING_GROUP = 1 << 13
# most rings the random policy draws for one overflowing interval, and most
# reports one interval may hold in flight past the chain (about 64 MB of each
# float array either way); fewest reports of one kind FIFO cannot serve
# (numpy's hypergeometric takes populations below 10**9)
_MAX_RINGS = 1 << 23
_MAX_QUEUED = 10**9
# largest device count the engine draws: numpy's multinomial counts are int64
MAX_DEVICES = _INT64_MAX
# largest mean report count per interval, N x load (N for one report per
# interval), the engine draws.  Its int64 sums reach at most 64 times an
# interval's reports (the attempts of one kind, summed over its outcomes) and
# BLOCK_INTERVALS = 1000 times them (a block's report and failure sums),
# so every interval needs fewer than 2**63 / 1000, about 9.2e15, reports.
# An interval's reports are at most Poisson(N x load) (the report-count
# categories truncate it).  With the mean at most 1e15, 9.2e15 is at least 9.2
# times the mean, and the Chernoff bound puts the tail beyond it below
# exp(-1e16); a block sum at the mean is at most 1e18.
MAX_MEAN_REPORTS = 10**15
# mass left after the categories a multinomial draws largest first (see _drawn_in_order)
_TAIL_MASS = 1e-3


def check_simulable(n_devices: int, load: float | None) -> None:
    """Reject a device count, a Poisson load (None: no Poisson arrivals), or
    their product, beyond what the engine simulates."""
    if n_devices > MAX_DEVICES:
        raise ParameterError(f"devices must be at most {MAX_DEVICES} to simulate, got {n_devices!r}")
    if load is not None and not load <= MAX_LOAD:
        raise ParameterError(f"load must be at most {MAX_LOAD:g} to simulate, got {load!r}")
    load = 1.0 if load is None else load
    if n_devices * load > MAX_MEAN_REPORTS:
        raise ParameterError(
            f"devices x load must be at most {MAX_MEAN_REPORTS:g} reports per interval "
            f"to simulate, got {n_devices} x {load:g}"
        )


def _drawn_in_order(pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`pmf` in the order `Generator.multinomial` should draw its categories,
    and the permutation that puts a draw back in category order.

    numpy draws category j as Bin(n left, pmf[j] / (1 - the earlier pmf)),
    that remainder formed by subtraction from 1.  Largest first lets a row
    stop once it has no count left, but in the far tail the remainder falls
    to its own rounding error (at p_e = 0.1, 10^15 reports: attempt 17 comes
    26% short and 18 never).  So the categories go largest first only while
    more than _TAIL_MASS of the mass stays after them, then smallest first.
    """
    order = np.argsort(-pmf, kind="stable")
    after = np.cumsum(pmf[order][::-1])[::-1]
    head = np.count_nonzero(after[1:] > _TAIL_MASS)
    order = np.concatenate([order[:head], order[head:][::-1]])
    return pmf[order], np.argsort(order)


@lru_cache(maxsize=64)
def _report_count_law(load: float | None) -> tuple[np.ndarray, np.ndarray]:
    """P[U = k], k = 0, 1, ..., `_drawn_in_order`, for U ~ Poisson(load), or
    U = 1 if load is None.  In logs no term leaves double range; the table
    keeps the counts from the first to the last where the mass beyond falls
    below 1e-19 (by k = 2 load + 40), and no device reports outside them.

    Above load 43.7 (e^-load < 1e-19) the left end is cut too, which at load
    1000 leaves 570 of 1299 counts for the multinomial to walk.  The counts
    below the first kept one then share one zero-probability category, drawn
    first (numpy's binomial returns 0 at p = 0 without a draw), so that the
    permutation still puts a draw in category order k = 0, 1, ...: column 0
    reads 0, and every device is active.
    """
    if load is None:
        return _drawn_in_order(np.array([0.0, 1.0]))
    k = np.arange(int(2 * load) + 41)
    pmf = np.exp(k * math.log(load) - load - np.append(0.0, np.log(k[1:]).cumsum()))
    kept = (np.cumsum(pmf) > 1e-19) & (np.cumsum(pmf[::-1])[::-1] > 1e-19)
    first = int(kept.argmax())
    pmf, back = _drawn_in_order(pmf[kept] / pmf[kept].sum())
    if first == 0:
        return pmf, back
    return np.append(0.0, pmf), np.append(np.zeros(first, dtype=back.dtype), back + 1)


@lru_cache(maxsize=64)
def _outcome_law(p_e: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """P[done at attempt j] = p_e^(j-1) (1 - p_e) for j = 1..steps, then
    P[beyond] = p_e^steps, `_drawn_in_order`."""
    return _drawn_in_order(np.append(p_e ** np.arange(steps) * (1.0 - p_e), p_e**steps))


# (pool slots needed, retry-limit flag) of each class, and its report count
# in each interval: one row per class, one column per interval (a string, so
# that importing this module does not load numpy)
_Table: TypeAlias = "tuple[np.ndarray, np.ndarray, np.ndarray]"


def _classes(
    outcomes: np.ndarray,
    cols: np.ndarray,
    more: np.ndarray,
    exhausted: np.ndarray,
    tail: np.ndarray,
    preallocated: int,
) -> _Table:
    """Class table of one kind of report (first or excess) in the intervals `cols`.

    `outcomes[b]` counts the reports of interval b done at each attempt of
    the chain, then the `beyond` ones.  One class per attempt count for the
    done ones, then the `beyond` ones: ``tail[k]`` reports with ``more[k]``
    attempts past the chain and retry-limit flag ``exhausted[k]``.
    """
    steps = outcomes.shape[1] - 1
    return (
        np.concatenate([np.arange(1, steps + 1), steps + more]) - preallocated,
        np.concatenate([np.zeros(steps, dtype=bool), exhausted]),
        np.vstack([outcomes[cols, :steps].T, tail]),
    )


def _finish(
    gen: np.random.Generator, p_e: float, reports: int, remaining: int
) -> tuple[np.ndarray, np.ndarray]:
    """Attempts past the chain, and retry-limit flags, of reports that failed
    its last attempt, with `remaining` > 0 attempts left."""
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

    The stream yields, for the whole block: the devices by report count (one
    multinomial), then the first and the excess reports by outcome (one
    multinomial).  Then, interval by interval, only where reports outlast
    the chain: their per-report draws, and the pool service if the demand
    exceeds `capacity`.  Last, the pool service of every other interval
    whose demand exceeds `capacity`, all at once.
    """
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    load = None if isinstance(params.arrival, OnePerRI) else params.arrival.load
    check_simulable(params.n_devices, load)
    p_e = params.p_e
    pmf, back = _report_count_law(load)
    devices = gen.multinomial(params.n_devices, pmf, size)[:, back]
    active = params.n_devices - devices[:, 0]
    excess = devices @ np.arange(devices.shape[1]) - active
    steps = min(params.max_attempts, _CHAIN_STEPS)
    # an L beyond int64 caps nothing a draw can reach, and would overflow numpy
    remaining = min(params.max_attempts - steps, _INT64_MAX)
    pmf, back = _outcome_law(p_e, steps)
    # [kind (first, excess), interval, outcome (done at attempt 1..steps, beyond)]
    outcomes = gen.multinomial(np.stack([active, excess]), pmf)[..., back]
    beyond = outcomes[..., steps]
    demand = (outcomes @ np.append(np.arange(1, steps + 1), steps)).sum(axis=0) - active
    failures = beyond.sum(axis=0)
    unserved = np.zeros(size, dtype=np.int64)
    in_flight = np.flatnonzero(failures) if remaining else np.empty(0, dtype=np.int64)
    if in_flight.size and failures.max() > _MAX_RINGS:
        raise ParameterError(
            f"an interval holds {failures.max()} reports in flight after {_CHAIN_STEPS} attempts, "
            f"more than the {_MAX_RINGS} it may draw one by one"
        )
    for b in in_flight.tolist():
        finished = [_finish(gen, p_e, n, remaining) for n in beyond[:, b].tolist()]
        demand[b] += sum(int(more.sum()) for more, _ in finished)
        failures[b] = sum(int(flags.sum()) for _, flags in finished)
        if demand[b] > capacity:
            tables = [_classes(kind, [b], more, flags, np.ones((more.size, 1), dtype=np.int64), pre)
                      for kind, (more, flags), pre in zip(outcomes, finished, (1, 0))]
            failures[b : b + 1], unserved[b : b + 1] = _serve(gen, *tables, capacity, policy)
    over = demand > capacity
    over[in_flight] = False
    cols = np.flatnonzero(over)
    if cols.size:
        # none of these has reports in flight: the `beyond` ones are exhausted at attempt L
        at_limit = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool))
        tables = [_classes(kind, cols, *at_limit, kind[None, cols, steps], pre)
                  for kind, pre in zip(outcomes, (1, 0))]
        failures[cols], unserved[cols] = _serve(gen, *tables, capacity, policy)
    return active + excess, failures, demand, unserved


def _serve(
    gen: np.random.Generator,
    first: _Table,
    excess: _Table,
    capacity: int,
    policy: SchedulerPolicy,
) -> tuple[np.ndarray, np.ndarray]:
    """Failures and unserved reports of each interval of a class table whose
    demand exceeds `capacity`, the first reports' classes ahead of the excess
    reports'.

    A report fails if it is flagged or left unserved; a report done after
    its preallocated slot needs no pool, and fails only if flagged.
    """
    pending, flags, counts = (np.concatenate(column) for column in zip(first, excess))
    if policy is SchedulerPolicy.FIFO:
        unserved, unflagged = _fifo_unserved(gen, pending, flags, counts, first[0].size, capacity)
    elif policy is SchedulerPolicy.RANDOM_UNIFORM:
        unserved, unflagged = _random_unserved(gen, pending, flags, counts, capacity)
    else:
        raise ParameterError(f"unknown scheduler policy: {policy!r}")
    return counts[flags].sum(axis=0) + unflagged, unserved


def _fifo_unserved(
    gen: np.random.Generator,
    pending: np.ndarray,
    flags: np.ndarray,
    counts: np.ndarray,
    split: int,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unserved reports, and how many of them carry no flag, under FIFO.

    Classes before `split` are first reports, queued ahead of the rest.
    """
    order = np.argsort(pending, kind="stable")
    # an empty class needing no slot first, so that K = 0 is always a candidate
    slots = np.append(0, pending[order])[:, None]
    sorted_counts = np.vstack([np.zeros_like(counts[:1]), counts[order]])
    later = sorted_counts[::-1].cumsum(axis=0)[::-1] - sorted_counts
    # slots used by as many full rounds as the class at each row needs
    used = (sorted_counts * slots).cumsum(axis=0) + slots * later
    row = (used <= capacity).sum(axis=0) - 1
    col = np.arange(counts.shape[1])
    # reports needing more than `rounds` share the `left` slots of the last round
    spare, waiting = capacity - used[row, col], later[row, col]
    rounds = slots[row, 0] + spare // waiting
    left = spare % waiting
    queued = counts * (pending[:, None] > rounds)
    last = queued * (pending[:, None] == rounds + 1)
    # per kind (first, then excess): the reports queued for the last round,
    # those it completes if they get a slot, and the flagged ones among these
    queued_kinds, last_kinds, flagged_kinds = (
        np.stack([part[:split].sum(axis=0), part[split:].sum(axis=0)])
        for part in (queued, last, last * flags[:, None])
    )
    if queued_kinds.max() >= _MAX_QUEUED:
        raise ParameterError(
            f"an overflowing interval queues {queued_kinds.max()} reports of one kind, "
            f"FIFO serves fewer than {_MAX_QUEUED}"
        )
    taken_first = np.minimum(left, queued_kinds[0])
    completed = gen.hypergeometric(last_kinds, queued_kinds - last_kinds,
                                   np.stack([taken_first, left - taken_first]))
    completed_flagged = gen.hypergeometric(flagged_kinds, last_kinds - flagged_kinds, completed)
    unserved = queued.sum(axis=0) - completed.sum(axis=0)
    unflagged = queued[~flags].sum(axis=0) - (completed - completed_flagged).sum(axis=0)
    return unserved, unflagged


def _random_unserved(
    gen: np.random.Generator,
    pending: np.ndarray,
    flags: np.ndarray,
    counts: np.ndarray,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Unserved reports, and how many of them carry no flag, under the random policy."""
    live = pending > 0
    pending, flags, counts = pending[live], flags[live], counts[live]
    if capacity == 0:
        return counts.sum(axis=0), counts[~flags].sum(axis=0)
    # a report's rings past the pool's last slot are never served, so each
    # report rings at most capacity + 1 times, and one that would ring more
    # stays unserved as it should
    pending = np.minimum(pending, capacity + 1)
    demand = pending @ counts
    if demand.max() > _MAX_RINGS:
        raise ParameterError(
            f"an overflowing interval needs {demand.max()} rings under the random policy, "
            f"more than the {_MAX_RINGS} it may draw"
        )
    unserved = np.empty(counts.shape[1], dtype=np.int64)
    unflagged = np.empty(counts.shape[1], dtype=np.int64)
    # intervals in groups of about _RING_GROUP rings, which bounds the memory of one pass
    group = (np.cumsum(demand) - demand) // _RING_GROUP
    for cols in np.split(np.arange(demand.size), np.flatnonzero(np.diff(group)) + 1):
        # reports interval by interval, class by class; rings report by report
        reports = counts[:, cols].T.ravel()
        rings = np.repeat(np.tile(pending, cols.size), reports)
        ends = np.cumsum(rings)
        times = gen.standard_exponential(int(ends[-1]))
        np.cumsum(times, out=times)
        # each report's ring times: the clock since the ring before its first
        since = times[ends - rings - 1]
        since[0] = 0.0
        times -= np.repeat(since, rings)
        bounds = np.cumsum(demand[cols])
        # the rings after the first `capacity` of each interval; ties go either way
        late = np.concatenate([low + np.argpartition(times[low:high], capacity - 1)[capacity:]
                               for low, high in zip((bounds - demand[cols]).tolist(), bounds.tolist())])
        # a report is unserved iff any of its rings is late; asking that of every
        # ring, not just its last, stays exact when rings of one report tie
        left = np.zeros(rings.size, dtype=bool)
        left[np.searchsorted(ends, late, side="right")] = True
        per_interval = counts[:, cols].sum(axis=0)
        firsts = np.cumsum(per_interval) - per_interval
        unserved[cols] = np.add.reduceat(left, firsts)
        unflagged[cols] = np.add.reduceat(left & ~np.repeat(np.tile(flags, cols.size), reports), firsts)
    return unserved, unflagged


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
    in block i // BLOCK_INTERVALS.  Demands spread over more than
    MAX_HISTOGRAM_WIDTH values are refused before the histogram is built.
    """
    if runs < 1:
        raise ParameterError(f"runs must be positive, got {runs!r}")
    blocks = _blocks(params, runs, seed, _INT64_MAX, SchedulerPolicy.RANDOM_UNIFORM)
    demands = np.concatenate([demand for _, _, demand, _ in blocks])
    low = int(demands.min())
    width = int(demands.max()) - low + 1
    if width > MAX_HISTOGRAM_WIDTH:
        raise ParameterError(
            f"sampled demand at p_e={params.p_e:g} spans {width} values, "
            f"more than the {MAX_HISTOGRAM_WIDTH} a histogram may hold"
        )
    return DemandHistogram(counts=np.bincount(demands - low), offset=low)


def gaussian_cdf(hist: DemandHistogram, summary: DemandSummary) -> list[float]:
    """The matched Gaussian CDF at v + 1/2 (the continuity correction for an
    integer-valued quantity) for v from hist.offset - 1 to the largest demand,
    one Q evaluation each: entry k + 1 is read at demand offset + k, and entry
    k at its lower edge offset + k - 1/2 (the same double below 2**53)."""
    if summary.variance <= 0.0:
        raise ParameterError("zero-variance summary has no Gaussian comparison")
    sigma = summary.std
    return [1.0 - q_function((value + 0.5 - summary.mean) / sigma)
            for value in range(hist.offset - 1, hist.offset + hist.counts.size)]


def ks_distance(hist: DemandHistogram, summary: DemandSummary, cdf: list[float] | None = None) -> float:
    """Max gap between the empirical demand CDF and the matched Gaussian one,
    `cdf` or else `gaussian_cdf(hist, summary)`, over the demand values the
    histogram actually holds."""
    if cdf is None:
        cdf = gaussian_cdf(hist, summary)
    gaps = np.abs(np.cumsum(hist.counts) / hist.runs - np.array(cdf[1:]))
    return float(gaps[hist.counts > 0].max())


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
    return FailureEstimate(total, failed, failed / total, *wilson_interval(failed, total))
