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
(stream layout v7) as two multinomial draws, one numpy call each for the
whole block (see _drawn_in_order for the category order): the N devices of
each interval by report count, over the arrival model's count pmf behind
one zero category; then each interval's first and excess reports, as two
rows, by outcome: done at attempt j <= _CHAIN_STEPS, or failing every
attempt drawn (`beyond`).  A pool no demand can exceed (`sample_demand`'s)
serves nothing, so there the two kinds are one row.
Demand and retry-limit failures follow for the whole block at once, at a
cost that does not grow with N.  Fixing each report's attempt count before
serving is distribution-identical to drawing a Bernoulli outcome per served
slot because no scheduling decision ever depends on a future outcome.
Reports still in flight after _CHAIN_STEPS attempts get per-report geometric
draws for the rest, one call per group of intervals, which keeps the
law (the geometric is memoryless) and the categories few when p_e is near 1.

Only an interval whose demand exceeds the pool is served, and it is served
from its class table (pool slots needed, retry-limit flag, report count; one
table for the overflowing intervals of a group, the first reports' classes
ahead of the excess reports'), in closed form rather than slot by slot:

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
  and the pool ends at the C-th ring overall.  No report of an interval
  whose every live report needs more than C slots can complete: it draws
  nothing.  The others first leap: by a time t, a report has rung
  min(Poisson(t), p_j) times, one multinomial over the (class, interval)
  cells.  If those F rings fit the pool, the clocks restart at t by
  memorylessness, p_j - k pending after k rings, C - F slots left.  If not,
  the C-th ring lies in (0, t]: given its count, a report's ring times are
  iid uniform there (a done report's count is Poisson(t) given at least
  p_j, and its first p_j count), and the first C are served.  What is left
  goes to the ring rule: report j rings at the partial sums of p_j standard
  exponentials; where the C-th ring time T precedes the next ring, report j
  completes iff its last ring time is at most T.  At a tie exactly C rings
  are still served, tied ones either way, and a report completes iff none
  of its rings is left out (the same draws either way).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .analytic import ArrivalModel, AttemptLaw, SystemParams
from .errors import IndeterminateEstimateError, ParameterError
from .numerics import RngStream, float_text, leading_failure_counts, np

# unused here since the engine draws counts and analytic evaluates the Gaussian, kept
# importable because the benchmark tracer (perfbench/tracing.py) patches both names here
from .numerics import poisson_counts, q_function  # noqa: F401

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
        # the offset's share in Python ints: summed in int64, values x counts pass 2**63 and wrap
        return (self.offset * self.runs + int(np.arange(self.counts.size) @ self.counts)) / self.runs

    def variance(self) -> float:
        """Unbiased sample variance, from offsets: values - mean in doubles rounds above 2**53."""
        if self.runs < 2:
            return 0.0
        k = np.arange(self.counts.size)
        return float(self.counts @ (k - int(k @ self.counts) / self.runs) ** 2) / (self.runs - 1)


@dataclass(frozen=True)
class FailureEstimate:
    """Empirical report-failure probability with a 95% Wilson interval."""

    reports_total: int
    reports_failed: int
    p_hat: float
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; stays inside [0, 1] and behaves at p near 0."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ParameterError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + Z95 * Z95 / trials
    center = (p + Z95 * Z95 / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + Z95 * Z95 / (4.0 * trials * trials)) / denom
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
# rings drawn in one pass of the random policy's clocks (moves speed, not draws)
_RING_GROUP = 1 << 13
# the random policy's leap (`_leap`): only where it saves at least the gain in
# rings per multinomial category it walks (it broke even near 10 over 13
# measured operating points, and so never pays at C <= 32; see `_random_unserved`),
# aimed at the margin times sqrt(C), 4 sd of F or more, short of C, and no
# longer than _MAX_LEAP (which bounds its tables' width)
_LEAP_GAIN, _LEAP_MARGIN, _MAX_LEAP = 10.0, 4.0, 256.0
# most rings the random policy draws for one overflowing interval, and most
# reports in flight past the chain in one interval, drawn in one call (about
# 64 MB of each float array either way); fewest reports of one kind FIFO
# cannot serve (numpy's hypergeometric takes populations below 10**9)
_MAX_RINGS = 1 << 23
# most past-the-chain cells (classes x intervals) in one group's class table
_MAX_CELLS = 1 << 14
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
# most interval steps one simulation call draws (`check_simulable`): its
# intervals, each drawn once per parameter set, times min(L, _CHAIN_STEPS), the
# outcome categories an interval's multinomial walks.  It bounds steps, not
# time.  The cheapest step measured about 4.5 ns (N=1, L=64, sample_demand;
# 2-core VM, numpy 2.4.6), so a refused call would have run for more than two
# hours, but a headline step (N=30000, L=10) costs about 330 ns, so about
# 2e11 intervals there pass and draw for about 7.6 days; no default command draws 10**7
MAX_WORK = 2 * 10**12
# mass left after the categories a multinomial draws largest first (see _drawn_in_order)
_TAIL_MASS = 1e-3


def check_simulable(n_devices: int, arrival: ArrivalModel, intervals: int, max_attempts: int) -> None:
    """Reject a device count, a mean report count per device, or their
    product, beyond what the engine simulates, and `intervals` at a retry
    limit `max_attempts` past MAX_WORK interval steps."""
    if n_devices > MAX_DEVICES:
        raise ParameterError(f"devices must be at most {MAX_DEVICES} to simulate, got {n_devices!r}")
    load = arrival.mean_reports
    if not load <= MAX_LOAD:
        raise ParameterError(f"load must be at most {MAX_LOAD:g} to simulate, got {load!r}")
    if n_devices * load > MAX_MEAN_REPORTS:
        raise ParameterError(
            f"devices x load must be at most {MAX_MEAN_REPORTS:g} reports per interval "
            f"to simulate, got {n_devices} x {float_text(load)}"
        )
    steps = min(max_attempts, _CHAIN_STEPS)
    if intervals * steps > MAX_WORK:
        raise ParameterError(
            f"a command may draw at most {MAX_WORK:g} interval steps, intervals x min(L, {_CHAIN_STEPS}); "
            f"got {intervals} x {steps}"
        )


def _check_call(params: Sequence[SystemParams], runs: int, capacity: int, policy: SchedulerPolicy) -> None:
    """Refuse a simulation call's static inputs, once and before its first draw: runs below 1,
    no entry, entries that do not share N and the arrival model, what `check_simulable` refuses
    over runs x entries, a negative capacity and a policy that is not a SchedulerPolicy."""
    if runs < 1:
        raise ParameterError(f"runs must be positive, got {runs!r}")
    if not params:
        raise ParameterError("a simulation needs at least one parameter set")
    if len({(p.n_devices, p.arrival) for p in params}) > 1:
        raise ParameterError("every parameter set sampled together needs the same devices and arrival model")
    check_simulable(params[0].n_devices, params[0].arrival, runs * len(params),
                    max(p.max_attempts for p in params))
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    if not isinstance(policy, SchedulerPolicy):
        raise ParameterError(f"unknown scheduler policy: {policy!r}")


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
def _report_count_law(arrival: ArrivalModel) -> tuple[np.ndarray, np.ndarray]:
    """`arrival.count_pmf()`, P[U = k] for k = 0, 1, ..., kept from the first
    to the last count where the mass beyond falls below 1e-19 (no device
    reports outside them), `_drawn_in_order` behind one zero-probability
    category.

    The zero category is drawn first and takes nothing from the stream
    (numpy's binomial returns 0 at p = 0 without a draw).  It stands for the
    counts left of the first kept one (k = 0 with one report per interval;
    for Poisson loads above 43.7, where e^-load < 1e-19, 570 of 1299 counts
    are kept at load 1000; none at lower loads), so that the permutation
    still puts a draw in category order k = 0, 1, ...
    """
    pmf = arrival.count_pmf()
    kept = (np.cumsum(pmf) > 1e-19) & (np.cumsum(pmf[::-1])[::-1] > 1e-19)
    pmf, back = _drawn_in_order(pmf[kept] / pmf[kept].sum())
    return np.append(0.0, pmf), np.append(np.zeros(kept.argmax(), dtype=back.dtype), back + 1)


@lru_cache(maxsize=64)
def _outcome_law(attempts: AttemptLaw) -> tuple[np.ndarray, np.ndarray]:
    """`attempts.outcomes` (done at attempt j = 1..L, then beyond), `_drawn_in_order`."""
    return _drawn_in_order(attempts.outcomes)


def _draw_arrivals(
    gen: np.random.Generator, params: SystemParams, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Active devices and excess reports of `size` intervals: the devices by
    report count, one multinomial for the whole block.  Only the device count
    and the arrival model enter it."""
    pmf, back = _report_count_law(params.arrival)
    devices = gen.multinomial(params.n_devices, pmf, size)[:, back]
    active = params.n_devices - devices[:, 0]
    return active, devices @ np.arange(devices.shape[1]) - active


def _draw_outcomes(
    gen: np.random.Generator,
    params: SystemParams,
    active: np.ndarray,
    excess: np.ndarray,
    capacity: int,
    policy: SchedulerPolicy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reports, failures and demand of the intervals whose arrivals
    `_draw_arrivals` drew.

    The stream yields, for the whole block: the first and the excess reports
    by outcome (one multinomial, a row for each kind).  Then, group by group
    of consecutive intervals: one uniform per report in flight past the
    chain, interval by interval and first reports first, then one pool
    service of the group's intervals whose demand exceeds `capacity`, from
    one class table (`_serve`).  Per kind, its classes are done at attempt
    j = 1..steps, then those failing every attempt drawn: at L <= 64 the
    last outcome column, flagged; past the chain, a class per key.

    At a capacity of _INT64_MAX or more no interval is served, and the kinds
    share one row: all of an interval's reports draw their outcome from the
    same law, and a sum of two multinomials over the same probabilities is
    one multinomial over the sum of their trials.  So demand and retry-limit
    failures keep their law.
    """
    p_e, size = params.p_e, active.size
    steps = min(params.max_attempts, _CHAIN_STEPS)
    # an L beyond int64 caps nothing a draw can reach, and would overflow numpy
    remaining = min(params.max_attempts - steps, _INT64_MAX)
    pmf, back = _outcome_law(AttemptLaw(p_e, steps))
    # only serving tells a first report from an excess one, and no int64
    # demand exceeds a pool of _INT64_MAX: there both kinds share one row
    rows = np.stack([active, excess]) if capacity < _INT64_MAX else (active + excess)[None]
    kinds = rows.shape[0]
    # [kind (first, excess; or both), interval, outcome (done at attempt 1..steps, beyond)]
    outcomes = gen.multinomial(rows, pmf)[..., back]
    beyond = outcomes[..., steps].T
    demand = (outcomes @ np.append(np.arange(1, steps + 1), steps)).sum(axis=0) - active
    failures = beyond.sum(axis=1)
    if remaining and failures.max() > _MAX_RINGS:
        raise ParameterError(
            f"an interval holds {failures.max()} reports in flight after {_CHAIN_STEPS} attempts, "
            f"more than the {_MAX_RINGS} it may draw one by one"
        )
    # a group's classes past the chain are at most its reports in flight, one
    # column per interval: a group holds the most intervals that keep that
    # product within _MAX_CELLS, and at least one (all, with none in flight)
    start = 0
    while start < size:
        span = slice(start, size)
        if remaining:
            cells = np.arange(1, size - start + 1) * np.cumsum(failures[start:])
            span = slice(start, start + max(1, np.count_nonzero(cells <= _MAX_CELLS)))
            # one record (kinds x interval + kind) per report in flight, keyed by
            # min(failures past the chain, remaining): a key below `remaining`
            # needs key + 1 more attempts, one at it is flagged
            reports = beyond[span].ravel()
            record = np.repeat(np.arange(reports.size), reports)
            keys = np.minimum(leading_failure_counts(gen, p_e, int(reports.sum())), remaining)
            # min(key + 1, remaining) attempts each: the keys, and one per unflagged report
            np.add.at(demand[span], record // kinds, keys)
            flagged = np.bincount(record[keys == remaining] // kinds, minlength=reports.size // kinds)
            demand[span] += failures[span] - flagged
            failures[span] = flagged
        start = span.stop
        over = demand[span] > capacity
        if not over.any():
            continue
        cols = span.start + np.flatnonzero(over)
        counts, more, flag = outcomes[:, cols].transpose(0, 2, 1), 0, True  # [kind, class, interval]
        if remaining:
            # past the chain, one class per key, capped at C (which merges classes)
            interval, kind = np.divmod(record, 2)
            mine = over[interval]
            classes, row = np.unique(np.minimum(keys[mine], capacity), return_inverse=True)
            past = np.zeros((2, classes.size, cols.size), dtype=np.int64)
            np.add.at(past, (kind[mine], row, (np.cumsum(over) - 1)[interval[mine]]), 1)
            counts = np.concatenate([counts[:, :steps], past], axis=1)
            more, flag = np.minimum(classes + 1, remaining), classes == remaining
        # a first report's first attempt is preallocated; past the outcomes done, pending
        # slots cap at C + 1, since a report needing more is never served either way
        pending = np.concatenate([np.append(np.arange(1 - pre, steps + 1 - pre),
                                            np.minimum(steps - pre + more, capacity + 1)) for pre in (1, 0)])
        flags = np.tile(np.append(np.zeros(steps, dtype=bool), flag), 2)
        failures[cols], _ = _serve(gen, pending, flags, counts.reshape(-1, cols.size),
                                   counts.shape[1], capacity, policy)
    return active + excess, failures, demand


def _serve(gen: np.random.Generator, pending: np.ndarray, flags: np.ndarray, counts: np.ndarray, split: int,
           capacity: int, policy: SchedulerPolicy) -> tuple[np.ndarray, np.ndarray]:
    """Failures and unserved reports of each interval of a class table whose
    demand exceeds `capacity`: each class's pool slots needed and retry-limit
    flag, and its report count in each interval (a row per class, a column
    per interval).  The first reports' classes come ahead of the excess
    reports', which start at row `split`; each kind holds at least one class.

    A report fails if it is flagged or left unserved; a report done after
    its preallocated slot needs no pool, and fails only if flagged.
    """
    if policy is SchedulerPolicy.FIFO:
        unserved, unflagged = _fifo_unserved(gen, pending, flags, counts, split, capacity)
    else:
        unserved, unflagged = _random_unserved(gen, pending, flags, counts, capacity)
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
        np.add.reduceat(part, [0, split]) for part in (queued, last, last * flags[:, None])
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


def _random_unserved(gen: np.random.Generator, pending: np.ndarray, flags: np.ndarray, counts: np.ndarray,
                     capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Unserved reports, and how many of them carry no flag, under the random
    policy.  An interval whose every live report needs more than C slots
    draws nothing: none can complete.  The others leap (`_leap`) where that
    pays, and the ring rule (`_ring_finish`) serves what is left."""
    live = pending > 0
    pending, flags, counts = pending[live], flags[live], counts[live]
    reports = counts.sum(axis=0)
    slots = np.where((pending > capacity) @ counts < reports, capacity, 0)  # 0: none can complete
    # only an interval with slots draws rings, at most C + 1 a report (none past the pool's last slot is served)
    demand = np.minimum(pending, capacity + 1) @ counts[:, slots > 0]
    if demand.max(initial=0) > _MAX_RINGS:
        raise ParameterError(
            f"an overflowing interval needs {demand.max()} rings under the random policy, "
            f"more than the {_MAX_RINGS} it may draw"
        )
    target = max(capacity - _LEAP_MARGIN * math.sqrt(capacity), 0.0)
    t = np.minimum(target / np.maximum(reports, 1), _MAX_LEAP)
    # the leap's multinomial walks about t + 1 categories a cell, each dearer than a ring.
    # Every interval here holds a live report, so the cost is at least _LEAP_GAIN an
    # interval, more than the C - 4 sqrt(C) <= 9.37 rings it saves at C <= 32
    cost = np.count_nonzero(counts) * (t.mean() + 1.0) * _LEAP_GAIN
    if not slots.any() or cost > target * t.size:
        return _ring_finish(gen, pending, flags, counts, slots)
    unserved, unflagged = reports, ~flags @ counts
    cols = np.flatnonzero(slots)
    *table, slots, over, leapt = _leap(gen, pending, flags, counts[:, cols], capacity, t[cols], target)
    unserved[cols[over]], unflagged[cols[over]] = leapt
    cols = cols[~over]
    unserved[cols], unflagged[cols] = _ring_finish(gen, *table, slots)
    return unserved, unflagged


def _poisson_pmf(t: np.ndarray, last: int) -> np.ndarray:
    """P[Poisson(t_i) = k], a row per t_i in [0, _MAX_LEAP], for k up to `last`
    or, if sooner, where the mass beyond falls below 1e-19 for every t_i
    (Bernstein's bound puts it below e^-43.75 there)."""
    top = float(t.max(initial=0.0))
    k = np.arange(1, min(last, int(top + 14.6 + math.sqrt(213.0 + 87.5 * top))) + 1)
    return np.exp(-t)[:, None] * np.cumprod(np.hstack([np.ones((t.size, 1)), t[:, None] / k]), axis=1)


def _leap(gen: np.random.Generator, pending: np.ndarray, flags: np.ndarray, counts: np.ndarray,
          capacity: int, t: np.ndarray, target: float) -> tuple:
    """Each interval's clocks run to one time, two Newton steps from `t`
    towards E F = `target`, F the rings by then: the class table and the
    slots left where F fits the pool, whether each interval overshot, and the
    unserved and unflagged reports of those that did (see the module docstring)."""
    n = counts.shape[1]
    # the random policy tells reports apart only by pending slots and flag
    keys, row = np.unique(np.minimum(pending, capacity + 1) * 2 + flags, return_inverse=True)
    merged = np.zeros((keys.size, n), dtype=np.int64)
    np.add.at(merged, row, counts)
    cls, col = np.nonzero(merged)
    slots, flag, size = keys[cls] // 2, keys[cls] % 2 == 1, merged[cls, col]
    # two Newton steps: E min(N, p) sums P[N > k] over k < p, its slope is P[N < p]
    for _ in range(2):
        cdf = _poisson_pmf(t, int(slots.max())).cumsum(axis=1)
        below = (col, np.minimum(slots, cdf.shape[1]) - 1)
        mean = np.bincount(col, size * (1.0 - cdf).cumsum(axis=1)[below], n)
        t = np.minimum(np.maximum(t + (target - mean) / np.bincount(col, size * cdf[below], n), 0.0), _MAX_LEAP)
    pmf = _poisson_pmf(t, int(slots.max()))
    width = pmf.shape[1]
    # min(N, p) rings: column k < p holds N = k, the last one the rest (done, or width - 1 rings)
    got = gen.multinomial(size, np.where(np.arange(width) < slots[:, None], pmf[col], 0.0))
    rung = np.minimum(np.arange(width), slots[:, None])
    served = np.bincount(col, (got * rung).sum(axis=1), n).astype(np.int64)
    over = served > capacity
    leapt = np.zeros((2, 0))
    if over.any():
        # the C-th ring came by t.  Report by report (cell of each): its rings by
        # t, and its draws, N by inversion given N >= p for a done one
        mine = np.flatnonzero(over[col])
        cell = np.repeat(np.repeat(mine, width), got[mine].ravel())
        rings = np.repeat(rung[mine].ravel(), got[mine].ravel())
        done = rings == slots[cell]
        tail = _poisson_pmf(t[col[cell[done]]], _MAX_RINGS)[:, ::-1].cumsum(axis=1)[:, ::-1]  # P[N >= k]
        draws, at = rings.copy(), tail[np.arange(tail.shape[0]), slots[cell[done]]][:, None]
        draws[done] = np.count_nonzero(tail > gen.random(at.shape) * at, axis=1) - 1
        # given the draws, ring times are iid uniform on (0, t]; a report keeps its earliest
        owner = np.repeat(np.arange(rings.size), draws)
        times = gen.random(owner.size)
        order = np.lexsort((times, owner))
        kept = order[np.arange(owner.size) - np.repeat(np.cumsum(draws) - draws, draws) < np.repeat(rings, draws)]
        # each interval serves its first C rings, tied ones either way; a ring left leaves its report
        interval = col[cell[owner[kept]]]
        kept, interval = kept[np.lexsort((times[kept], interval))], np.sort(interval)
        left = ~done
        left[owner[kept[np.arange(kept.size) - np.searchsorted(interval, interval) >= capacity]]] = True
        leapt = [np.bincount(col[cell], part, n)[over] for part in (left, left & ~flag[cell])]
    # the rest is memoryless: after k rings a report needs p - k more; reports done drop out
    rest = (slots[:, None] - rung) * 2 + flag[:, None]
    held = (got > 0) & (rest > 1) & ~over[col, None]
    keys, row = np.unique(rest[held], return_inverse=True)
    residual = np.bincount(row * n + np.broadcast_to(col[:, None], held.shape)[held], got[held], keys.size * n)
    slots = capacity - served[~over]
    return keys // 2, keys % 2 == 1, residual.reshape(-1, n)[:, ~over].astype(np.int64), slots, over, leapt


def _ring_finish(gen: np.random.Generator, pending: np.ndarray, flags: np.ndarray, counts: np.ndarray,
                 capacity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unserved reports, and how many of them carry no flag, of each interval
    of a class table of live reports (pending > 0) whose pool serves interval
    i `capacity[i]` more slots, a ring of the clocks each (see the module docstring)."""
    unserved, unflagged = counts.sum(axis=0), ~flags @ counts
    # a pool with no slot left serves no one; otherwise a report's rings past
    # its last slot are never served, so each report rings at most C + 1
    # times, and one that would ring more stays unserved as it should
    cols = np.flatnonzero(capacity > 0)
    if not cols.size:
        return unserved, unflagged
    capacity = capacity[cols]
    # reports interval by interval, class by class; rings report by report
    reports, per_interval = np.ascontiguousarray(counts[:, cols].T), unserved[cols]
    pending, unflagged_kind = np.minimum(pending, capacity[:, None] + 1), np.broadcast_to(~flags, reports.shape)
    demand = (pending * reports).sum(axis=1)
    lows = np.cumsum(demand) - demand
    # intervals in groups of about _RING_GROUP rings, which bounds the memory of one pass
    cuts = (np.flatnonzero(np.diff(lows // _RING_GROUP)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, demand.size]):
        rings = np.repeat(pending[a:b], reports[a:b].ravel())
        ends = np.cumsum(rings)
        times = gen.standard_exponential(int(ends[-1]))
        np.cumsum(times, out=times)
        # each report's ring times: the clock since the previous report's last ring
        last = times[ends - 1]
        since = np.append(0.0, last[:-1])
        times -= np.repeat(since, rings)
        spans = list(zip((lows[a:b] - lows[a]).tolist(), (lows[a:b] - lows[a] + demand[a:b]).tolist(),
                         capacity[a:b].tolist()))
        # each interval's C-th and (C+1)-th ring times (sorting beats a partition
        # here); below a gap after the C-th, a report's last ring decides
        edge = np.array([np.sort(times[low:high])[c - 1:c + 1] for low, high, c in spans])
        left = last - since > np.repeat(edge[:, 0], per_interval[a:b])
        for low, high, c in (spans[i] for i in np.flatnonzero(edge[:, 0] == edge[:, 1]).tolist()):
            # a tie at T_C: exactly C rings served, tied ones either way; any ring left leaves its report
            late = low + np.argpartition(times[low:high], c - 1)[c:]
            left[np.searchsorted(ends, late, side="right")] = True
        firsts = np.cumsum(per_interval[a:b]) - per_interval[a:b]
        unserved[cols[a:b]] = np.add.reduceat(left, firsts)
        unflagged[cols[a:b]] = np.add.reduceat(left & np.repeat(unflagged_kind[a:b], reports[a:b].ravel()), firsts)
    return unserved, unflagged


def _blocks(
    params: Sequence[SystemParams],
    runs: int,
    seed: int,
    capacity: int,
    policy: SchedulerPolicy,
) -> Iterator[tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """(entry index, `_draw_outcomes` of it: each interval's reports, failures
    and demand) of each block of `runs` intervals, once `_check_call` has
    passed the call.  Block k draws from stream (seed, k): the arrivals once,
    by the first entry, whose device count and arrival model every entry
    shares, then each entry's outcomes from the stream state that follows
    them, as if drawn alone."""
    _check_call(params, runs, capacity, policy)
    for index, start in enumerate(range(0, runs, BLOCK_INTERVALS)):
        gen = RngStream(seed, index).generator
        active, excess = _draw_arrivals(gen, params[0], min(BLOCK_INTERVALS, runs - start))
        state = gen.bit_generator.state if len(params) > 1 else None
        for i, entry in enumerate(params):
            if i:
                gen.bit_generator.state = state
            yield i, _draw_outcomes(gen, entry, active, excess, capacity, policy)


def sample_demand(params: Sequence[SystemParams], runs: int, seed: int) -> list[DemandHistogram]:
    """Histograms of the shared-pool demand R over independent interval
    replays, one per entry of `params`.

    The demands of `runs` intervals drawn as counts (see `_draw_outcomes`)
    against a pool no demand exceeds, so nothing is served; interval i lies
    in block i // BLOCK_INTERVALS.  The entries share each block's arrival
    draw (see `_blocks`), so each histogram is the one a call with that entry
    alone gives (the stream layout is v7 either way: each interval's reports
    by outcome in one row, first and excess alike).  Each block's demands
    are added to its entry's histogram as they come, so memory grows with the
    histograms' width, not with `runs`.  A histogram spread over more than
    MAX_HISTOGRAM_WIDTH values is refused at the block that widens it past
    that limit, before any histogram is returned.
    """
    hists = [(0, np.zeros(0, dtype=np.int64))] * len(params)
    for i, (_, _, demand) in _blocks(params, runs, seed, _INT64_MAX, SchedulerPolicy.RANDOM_UNIFORM):
        hists[i] = _add_demands(*hists[i], demand, params[i].p_e)
    return [DemandHistogram(counts=counts, offset=low) for low, counts in hists]


def _add_demands(low: int, counts: np.ndarray, demand: np.ndarray, p_e: float) -> tuple[int, np.ndarray]:
    """The histogram `counts` of demands from `low` (empty before the first
    block), widened to hold `demand` and with it added."""
    first, last = int(demand.min()), int(demand.max())
    if not counts.size:
        low = first
    start, stop = min(first, low), max(last + 1, low + counts.size)
    if stop - start > MAX_HISTOGRAM_WIDTH:
        raise ParameterError(
            f"sampled demand at p_e={float_text(p_e)} spans {stop - start} values, "
            f"more than the {MAX_HISTOGRAM_WIDTH} a histogram may hold"
        )
    if (start, stop) != (low, low + counts.size):
        counts = np.concatenate([np.zeros(low - start, dtype=np.int64), counts,
                                 np.zeros(stop - low - counts.size, dtype=np.int64)])
    counts[first - start:last + 1 - start] += np.bincount(demand - first)
    return start, counts


def ks_distance(hist: DemandHistogram, cdf: list[float]) -> float:
    """Max gap between the empirical demand CDF and a given one, `cdf` (as
    `analytic.gaussian_cdf` reads it at the histogram's range), over the
    demand values the histogram actually holds."""
    gaps = np.abs(np.cumsum(hist.counts) / hist.runs - np.array(cdf[1:]))
    return float(gaps[hist.counts > 0].max())


def simulate_interval(
    params: SystemParams,
    capacity: int,
    policy: SchedulerPolicy,
    rng: RngStream,
) -> IntervalResult:
    """Replay one reporting interval against a pool of `capacity` transmissions.

    Returns total reports, failed reports and the realized shared-pool
    demand: one interval's `_draw_arrivals`, then its `_draw_outcomes`,
    drawn from `rng` once `_check_call` has passed the call.
    """
    _check_call([params], 1, capacity, policy)
    gen = rng.generator
    results = _draw_outcomes(gen, params, *_draw_arrivals(gen, params, 1), capacity, policy)
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
    total = failed = 0
    for _, (reports, failures, _) in _blocks([params], intervals, seed, capacity, policy):
        total += int(reports.sum())
        failed += int(failures.sum())
    if total == 0:
        raise IndeterminateEstimateError(
            f"no reports generated over {intervals} intervals; estimate undefined"
        )
    return FailureEstimate(total, failed, failed / total, *wilson_interval(failed, total))
