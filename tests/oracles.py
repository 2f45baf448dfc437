"""Independent reference implementations used only by the tests.

Nothing here may call into m2mpool: these are the second route every
closed-form result is checked against.
"""

from __future__ import annotations

import functools
import itertools
import math

import mpmath
import numpy as np


def q_reference(x: float) -> float:
    """Gaussian tail via mpmath's arbitrary-precision complementary error function."""
    with mpmath.workdps(40):
        return float(mpmath.erfc(x / mpmath.sqrt(2)) / 2)


def attempts_second_moment_reference(p_e: float, cap: int) -> float:
    """E[W^2] of the truncated-geometric attempt count from its closed form,
    evaluated with 80 digits, where its cancellation near p_e = 1 costs nothing."""
    with mpmath.workdps(80):
        p = mpmath.mpf(p_e)
        if p == 0:
            return 1.0
        closed = ((2 * cap - 1) * p ** (cap + 1) - (2 * cap + 1) * p**cap + p + 1) / (1 - p) ** 2
        return float(closed)


def truncated_geometric_pmf(p_e: float, cap: int) -> list[float]:
    """Attempt-count pmf: geometric in p_e with the tail folded into the cap."""
    pmf = [p_e ** (k - 1) * (1.0 - p_e) for k in range(1, cap)]
    pmf.append(p_e ** (cap - 1))
    return pmf


def poisson_demand_pmf(
    p_e: float, cap: int, tail: float = 1e-12, load: float = 1.0
) -> dict[int, float]:
    """Exact pmf of one device's shared-pool demand under Poisson(load) arrivals.

    Conditions on the report count u and convolves u copies of the
    attempt-count pmf exactly, stopping once the remaining Poisson mass is
    below `tail`.  Demand is the attempt total minus one (the preallocated
    transmission), or zero for a silent device.
    """
    w = truncated_geometric_pmf(p_e, cap)
    p_u = math.exp(-load)
    mass = p_u
    pmf = {0: p_u}
    conv: dict[int, float] = {0: 1.0}
    u = 0
    while mass < 1.0 - tail:
        u += 1
        p_u *= load / u
        mass += p_u
        nxt: dict[int, float] = {}
        for total, prob in conv.items():
            for k in range(1, cap + 1):
                nxt[total + k] = nxt.get(total + k, 0.0) + prob * w[k - 1]
        conv = nxt
        for total, prob in conv.items():
            pmf[total - 1] = pmf.get(total - 1, 0.0) + p_u * prob
    return pmf


def one_per_ri_demand_pmf(p_e: float, cap: int) -> dict[int, float]:
    """Demand pmf when every device sends exactly one report: attempts minus one."""
    return {k: prob for k, prob in enumerate(truncated_geometric_pmf(p_e, cap))}


def _report_moments(p_e: float, cap: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(mean, variance) of W - 1 at the working precision, summed over its pmf;
    the centred sum needs no difference E[(W - 1)^2] - E[W - 1]^2."""
    p = mpmath.mpf(p_e)
    pmf = [p**k * (1 - p) for k in range(cap - 1)] + [p ** (cap - 1)]
    mean = mpmath.fsum(k * prob for k, prob in enumerate(pmf))
    return mean, mpmath.fsum((k - mean) ** 2 * prob for k, prob in enumerate(pmf))


def one_per_ri_moments_reference(p_e: float, cap: int) -> tuple[float, float]:
    """(mean, variance) of one report's shared-pool demand W - 1, with 60 digits."""
    with mpmath.workdps(60):
        return tuple(float(m) for m in _report_moments(p_e, cap))


def poisson_moments_reference(load: float, p_e: float, cap: int) -> tuple[float, float]:
    """(mean, variance) of one device's shared-pool demand R_i under Poisson(load)
    reports, with 50 digits, by conditioning on the report count U: given U = k >= 1,
    R_i is k reports' W - 1 plus k - 1, of mean k d + k - 1 and variance k v.  Both
    sums have non-negative terms and form no 1 - e^-load, and E[R_i]^2 <= P[U > 0]
    E[R_i^2] (Cauchy-Schwarz), so the variance keeps most of the 50 digits.  The sums stop
    at U = 99, past which the terms are below 1e-150 for load <= 1."""
    assert load <= 1.0
    with mpmath.workdps(50):
        lam = mpmath.mpf(load)
        d, v = _report_moments(p_e, cap)
        probs = [(k, mpmath.exp(k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1))) for k in range(1, 100)]
        mean = mpmath.fsum(prob * (k * d + k - 1) for k, prob in probs)
        second = mpmath.fsum(prob * (k * v + (k * d + k - 1) ** 2) for k, prob in probs)
        return float(mean), float(second - mean**2)


def pmf_moments(pmf: dict[int, float]) -> tuple[float, float]:
    """(mean, variance) of an integer pmf."""
    mean = sum(value * prob for value, prob in pmf.items())
    var = sum((value - mean) ** 2 * prob for value, prob in pmf.items())
    return mean, var


def serve_slots(
    pending: list[int], exhausted: list[bool], capacity: int, policy: str, rng=None
) -> tuple[int, int]:
    """(failures, unserved) of a pool served slot by slot, one pending
    transmission per slot for `capacity` slots.

    `policy` is "fifo" (round robin in the given order: a report with
    transmissions left goes to the back of the queue) or "random" (each slot
    serves a uniformly random live report; `rng` is a numpy Generator).  A
    report fails when it is left unserved, or when it completes with its
    retry-limit flag set; a report pending nothing needs no slot.
    """
    failures = sum(flag for left, flag in zip(pending, exhausted) if left == 0)
    live = [[left, flag] for left, flag in zip(pending, exhausted) if left > 0]
    for _ in range(capacity):
        if not live:
            break
        index = 0 if policy == "fifo" else int(rng.integers(len(live)))
        report = live.pop(index)
        report[0] -= 1
        if report[0]:
            live.insert(len(live) if policy == "fifo" else index, report)
        else:
            failures += report[1]
    return failures + len(live), len(live)


def fifo_law(
    first: list[tuple[int, bool]], excess: list[tuple[int, bool]], capacity: int
) -> dict[tuple[int, int], float]:
    """Exact law of (failures, unserved) under FIFO, by enumerating every
    within-kind order (each kind uniformly shuffled, first reports ahead).

    Reports are (pending transmissions, retry-limit flag) pairs.
    """
    law: dict[tuple[int, int], float] = {}
    orders = list(itertools.product(itertools.permutations(first), itertools.permutations(excess)))
    for head, tail in orders:
        queue = list(head) + list(tail)
        outcome = serve_slots([p for p, _ in queue], [f for _, f in queue], capacity, "fifo")
        law[outcome] = law.get(outcome, 0.0) + 1.0 / len(orders)
    return law


def random_law(reports: list[tuple[int, bool]], capacity: int) -> dict[tuple[int, int], float]:
    """Exact law of (failures, unserved) under the random policy, by recursion
    over the multiset of live reports and the slots left."""

    @functools.lru_cache(maxsize=None)
    def law(live: tuple[tuple[int, bool], ...], slots: int) -> dict[tuple[int, int], float]:
        if not live or slots == 0:
            return {(len(live), len(live)): 1.0}
        result: dict[tuple[int, int], float] = {}
        for index, (left, flag) in enumerate(live):
            rest = live[:index] + live[index + 1:]
            done = int(flag) if left == 1 else 0
            if left > 1:
                rest = tuple(sorted(rest + ((left - 1, flag),)))
            for (failures, unserved), prob in law(rest, slots - 1).items():
                key = (failures + done, unserved)
                result[key] = result.get(key, 0.0) + prob / len(live)
        return result

    idle_failures = sum(flag for left, flag in reports if left == 0)
    live = tuple(sorted((left, flag) for left, flag in reports if left > 0))
    return {(failures + idle_failures, unserved): prob
            for (failures, unserved), prob in law(live, capacity).items()}


def random_unserved_reference(gen, pending, flags, counts, capacity, ring_group: int):
    """Unserved reports, and how many of them carry no flag, per interval of a
    class table under the random policy: the clock rule with every ring
    checked.

    `capacity` is the pool's slots for every interval, or one count per
    interval.  Draws the engine's ring times from `gen` (intervals with a
    slot, in groups of about `ring_group` rings), takes each interval's
    rings after its first `capacity` by argpartition (tied rings go either
    way), and leaves a report unserved iff any of its rings is among them,
    found by a search over the reports' ring ends.
    """
    live = pending > 0
    pending, flags, counts = pending[live], flags[live], counts[live]
    capacity = np.broadcast_to(capacity, counts.shape[1:])
    unserved, unflagged = counts.sum(axis=0), counts[~flags].sum(axis=0)
    # a pool with no slot serves no report and draws nothing
    served = np.flatnonzero(capacity > 0)
    pending = np.minimum(pending[:, None], capacity[served] + 1)
    demand = (pending * counts[:, served]).sum(axis=0)
    group = (np.cumsum(demand) - demand) // ring_group
    for part in np.split(np.arange(served.size), np.flatnonzero(np.diff(group)) + 1):
        if not part.size:
            continue
        cols = served[part]
        reports = counts[:, cols].T.ravel()
        rings = np.repeat(pending[:, part].T.ravel(), reports)
        ends = np.cumsum(rings)
        times = gen.standard_exponential(int(ends[-1]))
        np.cumsum(times, out=times)
        since = times[ends - rings - 1]
        since[0] = 0.0
        times -= np.repeat(since, rings)
        bounds = np.cumsum(demand[part])
        late = np.concatenate([low + np.argpartition(times[low:high], slots - 1)[slots:]
                               for low, high, slots in zip((bounds - demand[part]).tolist(), bounds.tolist(),
                                                           capacity[cols].tolist())])
        left = np.zeros(rings.size, dtype=bool)
        left[np.searchsorted(ends, late, side="right")] = True
        per_interval = counts[:, cols].sum(axis=0)
        firsts = np.cumsum(per_interval) - per_interval
        unserved[cols] = np.add.reduceat(left, firsts)
        unflagged[cols] = np.add.reduceat(left & ~np.repeat(np.tile(flags, cols.size), reports), firsts)
    return unserved, unflagged
