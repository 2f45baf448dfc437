"""Closed-form characterization of the shared-pool transmission demand.

Model: N devices report over a recurring interval.  Per interval a device
generates a random number of reports, U (Poisson with mean load lambda, or
exactly one).  Every report takes a geometrically distributed number of
transmission attempts with reception-failure probability p_e, truncated at
the retry limit L.  The first transmission of a device's first report rides
that device's preallocated resources; every other transmission (excess
reports and all retransmissions) must be served by a shared pool.

A device's shared-pool demand is therefore

    R_i = 0                if U_i = 0
    R_i = sum_j W_ij - 1   if U_i >= 1,

and the pool sees R = sum_i R_i.  With N large, R is treated as Gaussian and
characterized by its mean and variance alone.  This module provides those
moments, the per-report failure probability that this Gaussian model gives
for a pool of capacity C transmissions (its overflow term does not depend on
the scheduler, but it is an approximation, not a bound, since the demand is
right-skewed), and the inverse problem: the smallest C meeting a target
failure probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import InfeasibleTargetError, ParameterError
from .numerics import check_error_prob, check_positive_int, q_function, q_inverse


@dataclass(frozen=True)
class PoissonPerRI:
    """Poisson report arrivals; ``load`` is the mean report count per interval."""

    load: float = 1.0

    def __post_init__(self) -> None:
        if not (self.load > 0.0 and math.isfinite(self.load)):
            raise ParameterError(f"arrival load must be positive and finite, got {self.load!r}")


@dataclass(frozen=True)
class OnePerRI:
    """Exactly one report per device per interval."""


ArrivalModel = Union[PoissonPerRI, OnePerRI]


def _all_fail(p_e: float, attempts: int) -> float:
    """p_e^attempts, the chance that `attempts` transmissions all fail.

    An int beyond about 1.8e308 does not convert to a float, so the exponent
    is capped at 2**64, past which it changes no result: p^(2**64) is 0.0 for
    every double p < 1 (1 - 2**-53 gives about e^-2048).
    """
    return p_e ** min(attempts, 2**64)


@dataclass(frozen=True)
class SystemParams:
    """Full input to analysis and simulation."""

    n_devices: int
    p_e: float
    max_attempts: int
    arrival: ArrivalModel = PoissonPerRI()
    target_failure: float = 1e-3

    def __post_init__(self) -> None:
        check_positive_int("n_devices", self.n_devices)
        check_error_prob(self.p_e)
        check_positive_int("max_attempts", self.max_attempts)
        if not (0.0 < self.target_failure < 1.0):
            raise ParameterError(f"target_failure must be in (0, 1), got {self.target_failure!r}")
        if not isinstance(self.arrival, (PoissonPerRI, OnePerRI)):
            raise ParameterError(f"unknown arrival model: {self.arrival!r}")

    @property
    def failure_floor(self) -> float:
        """p_e^L, the failure probability no amount of capacity removes."""
        return _all_fail(self.p_e, self.max_attempts)


@dataclass(frozen=True)
class DemandSummary:
    """Mean and variance of the per-interval shared-pool demand, in transmissions."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.mean < 0.0 or self.variance < 0.0 or not (
            math.isfinite(self.mean) and math.isfinite(self.variance)
        ):
            raise ParameterError(f"demand moments must be finite and non-negative: {self!r}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def attempts_pmf(k: int, p_e: float, max_attempts: int) -> float:
    """P[W = k] for the truncated-geometric attempt count.

    p_e^(k-1) (1 - p_e) below the cap; the cap point absorbs the whole
    geometric tail, P[W = L] = p_e^(L-1).
    """
    check_error_prob(p_e)
    check_positive_int("max_attempts", max_attempts)
    if not isinstance(k, int) or not 1 <= k <= max_attempts:
        raise ParameterError(f"k must be an integer in [1, {max_attempts}], got {k!r}")
    if k < max_attempts:
        return _all_fail(p_e, k - 1) * (1.0 - p_e)
    return _all_fail(p_e, max_attempts - 1)


def expected_attempts(p_e: float, max_attempts: int) -> float:
    """E[W] = (1 - p_e^L) / (1 - p_e), the truncated geometric series in closed form."""
    check_error_prob(p_e)
    check_positive_int("max_attempts", max_attempts)
    return (1.0 - _all_fail(p_e, max_attempts)) / (1.0 - p_e)


# a sweep reaches this twice per point with the same arguments; typed, so
# that True is not taken for a cached max_attempts of 1
@lru_cache(maxsize=64, typed=True)
def attempts_second_moment(p_e: float, max_attempts: int) -> float:
    """E[W^2] = sum_{k<L} (2k + 1) p_e^k, since P[W > k] = p_e^k below L.

    With A(n) = sum_{k<n} p^k and B(n) = sum_{k<n} k p^k it is A(L) + 2 B(L),
    built along the binary digits of L in O(log L) steps:

        A(2n) = A(n) + p^n A(n)        B(2n) = B(n) + p^n (B(n) + n A(n))
        A(n+1) = A(n) + p^n            B(n+1) = B(n) + n p^n

    Every term is non-negative, so nothing cancels as p_e nears 1, where the
    closed form ((2L-1) p^(L+1) - (2L+1) p^L + p + 1) / (1-p)^2 does (1.5e-6
    relative error at p_e = 1 - 1e-6, L = 10); each step adds a few ulp of
    relative error.  Once p^n underflows, the rest of the series is below
    double resolution.
    """
    check_error_prob(p_e)
    check_positive_int("max_attempts", max_attempts)
    a = b = 0.0
    n = 0
    for bit in bin(max_attempts)[2:]:
        power = p_e**n
        if power == 0.0:
            break
        a, b, n = a + power * a, b + power * (b + n * a), 2 * n
        if bit == "1":
            power = p_e**n
            a, b, n = a + power, b + n * power, n + 1
    return a + 2.0 * b


def demand_summary(params: SystemParams) -> DemandSummary:
    """Moments of the shared-pool demand R for the given system.

    Poisson arrivals with mean lambda: a device's demand is its attempt total
    S over U reports, less the preallocated slot when U >= 1.  Conditioning
    on U gives, per device,

        E[R_i]   = lambda E[W] - (1 - e^-lambda)
        Var[R_i] = lambda E[W^2] - 2 lambda E[W] e^-lambda + e^-lambda (1 - e^-lambda)
        E[W^2]   = sum_{k<L} (2k + 1) p^k     (attempts_second_moment)

    which at lambda = 1 is the published dimensioning rule.  One report per
    interval: R_i = W - 1 exactly, so the moments are the truncated-geometric
    ones shifted.  Both scale linearly with N because devices are
    independent and identically distributed.
    """
    e_w = expected_attempts(params.p_e, params.max_attempts)
    e_w2 = attempts_second_moment(params.p_e, params.max_attempts)
    if isinstance(params.arrival, OnePerRI):
        mean1 = e_w - 1.0
        var1 = e_w2 - e_w * e_w
    else:
        load = params.arrival.load
        silent = math.exp(-load)
        # grouped so that load 1 repeats the published rule's arithmetic exactly
        mean1 = load * e_w - (1.0 - silent)
        var1 = load * e_w2 + silent * (1.0 - 2.0 * load * e_w - silent)
    n = params.n_devices
    return DemandSummary(mean=n * mean1, variance=n * max(var1, 0.0))


def failure_bound(capacity: int, summary: DemandSummary, p_e: float, max_attempts: int) -> float:
    """Per-report failure probability bound at pool capacity C, Gaussian demand model.

        P[failure] <= Q((C - mu) / sigma) (1 - p_e^L) + p_e^L

    The p_e^L term is the irreducible floor from reports that burn all L
    attempts.  The Q term is the Gaussian approximation of P[R > C], the
    probability that total demand overflows the pool.  It does not depend on
    the scheduling discipline, but it is not a bound: the right-skewed demand
    has a heavier upper tail, so it can understate P[R > C].  A zero-variance
    summary degenerates to a step: p_e^L when C covers the mean, else 1.
    """
    check_error_prob(p_e)
    check_positive_int("max_attempts", max_attempts)
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    floor = _all_fail(p_e, max_attempts)
    if summary.variance == 0.0:
        return floor if capacity >= summary.mean else 1.0
    z = (capacity - summary.mean) / summary.std
    return q_function(z) * (1.0 - floor) + floor


def dimension_capacity(params: SystemParams) -> int:
    """Smallest integer pool capacity whose failure bound meets the target.

    Closed form first (invert the Gaussian tail), then a local integer scan
    so that failure_bound(C) <= target < failure_bound(C - 1) holds exactly.
    From 2**53 on, C and C - 1 round to the same double, so the scan could
    never move; such a closed-form capacity is returned without it.
    """
    summary = demand_summary(params)
    floor = params.failure_floor
    eps = params.target_failure
    if eps <= floor:
        raise InfeasibleTargetError(
            f"target failure {eps:g} is at or below the floor p_e^L = {floor:g}; "
            "no capacity can reach it"
        )
    if summary.variance == 0.0:
        return max(0, math.ceil(summary.mean))
    cap = math.ceil(summary.mean + summary.std * q_inverse((eps - floor) / (1.0 - floor)))
    cap = max(0, cap)
    if cap >= 2**53:
        return cap
    while cap > 0 and failure_bound(cap - 1, summary, params.p_e, params.max_attempts) <= eps:
        cap -= 1
    while failure_bound(cap, summary, params.p_e, params.max_attempts) > eps:
        cap += 1
    return cap

