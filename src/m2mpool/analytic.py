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

Each arrival model owns the law of U: its mean (`mean_reports`), its pmf
from k = 0 (`count_pmf`, built with numpy on first use) and R_i's moments
under the attempt law (`demand_moments`).  `device_moments`, the engine and
the command line read these and never ask which model they hold.  The law
of W is `AttemptLaw`: the floor p_e^L, W's moments and the engine's outcomes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Union

from .errors import InfeasibleTargetError, ParameterError
from .numerics import check_error_prob, check_positive_int, float_text, np, q_function, q_inverse


@dataclass(frozen=True)
class AttemptLaw:
    """A report's attempt count W: truncated geometric, P[W > k] = p_e^k
    for k < L = `limit`.  The one check of (p_e, L)."""

    p_e: float
    limit: int

    def __post_init__(self) -> None:
        check_error_prob(self.p_e)
        check_positive_int("max_attempts", self.limit)

    @property
    def floor(self) -> float:
        """p_e^L, the failure probability no capacity removes.  L is capped at 2**64, as an
        int past about 1.8e308 is no float; p^(2**64) is 0.0 for every double p < 1."""
        return self.p_e ** min(self.limit, 2**64)

    @property
    def mean(self) -> float:
        """E[W] = sum_{k<L} p_e^k = A(L) (`_attempt_sums`); the closed form (1 - p_e^L) / (1 - p_e)
        cancels as p_e nears 1 (4.5e-9 relative error at p_e = 1 - 1e-9, L = 10)."""
        return _attempt_sums(self.p_e, self.limit)[0]

    @property
    def second_moment(self) -> float:
        """E[W^2] = sum_{k<L} (2k + 1) p_e^k = A(L) + 2 B(L) (`_attempt_sums`), where
        the closed form ((2L-1) p^(L+1) - (2L+1) p^L + p + 1) / (1-p)^2 cancels as
        p_e nears 1 (1.5e-6 relative error at p_e = 1 - 1e-6, L = 10)."""
        a, b, _ = _attempt_sums(self.p_e, self.limit)
        return a + 2.0 * b

    @property
    def retry_moments(self) -> tuple[float, float]:
        """E[W - 1] = p_e A(L - 1) and Var[W - 1] = (1 - p_e) S(L) (`_attempt_sums`),
        summed directly, as P[W - 1 >= k] = p_e^k for 0 < k < L.  E[W] - 1 would cancel
        all of a mean of about p_e as p_e nears 0, and E[(W - 1)^2] - E[W - 1]^2 most of
        the variance as p_e nears 1."""
        # every L past 2**64 is taken as 2**64, where _attempt_sums caps its n
        a = _attempt_sums(self.p_e, min(self.limit, 2**64) - 1)[0]
        return self.p_e * a, (1.0 - self.p_e) * _attempt_sums(self.p_e, self.limit)[2]

    @property
    def outcomes(self) -> np.ndarray:
        """The engine's categories, one per attempt (so for short chains only): P[done
        at attempt j] = p_e^(j-1) (1 - p_e) for j = 1..L, then P[all L fail] = p_e^L."""
        return np.append(self.p_e ** np.arange(self.limit) * (1.0 - self.p_e), self.floor)


def _attempt_sums(p_e: float, terms: int) -> tuple[float, float, float]:
    """(A(n), B(n), S(n)) at n = `terms`, (0, 0, 0) at n = 0: A(n) = sum_{k<n} p_e^k,
    B(n) = sum_{k<n} k p_e^k and S(n) = sum_{i<k<n} (2(k - i) - 1) p_e^(k+i),
    built along the binary digits of n in O(log n) steps:

        A(2n) = A(n) + p^n A(n)        B(2n) = B(n) + p^n (B(n) + n A(n))
        A(n+1) = A(n) + p^n            B(n+1) = B(n) + n p^n

    With F = W - 1 and P[F >= k] = p^k for 0 < k < L, Var F = sum over
    0 < j, k < L of P[F >= max(j, k)] - P[F >= j] P[F >= k] =
    p^max(j,k) (1 - p^min(j,k)), and 1 - p^m = (1 - p) A(m); summed, that is
    (1 - p) S(L).  S is built alongside A and R(n) = sum_{i<n} (n - 1 - i) p^i:

        S(2n) = (1 + p^2n) S(n) + (2n - 1) p^n A(n)^2    S(n+1) = S(n) + p^n (A(n) + 2 R(n))
        R(2n) = (1 + p^n) R(n) + n A(n)                  R(n+1) = R(n) + A(n)

    Every term is non-negative, so nothing cancels as p_e nears 1; each step adds a
    few ulp of relative error.  Once p^n underflows, the sums take nothing more; n is
    capped at 2**64 as L is in AttemptLaw.floor, so a larger one gives the same doubles.
    """
    a = b = r = s = 0.0
    n = 0
    for bit in bin(min(terms, 2**64))[2:]:
        power = p_e**n
        if power == 0.0:
            break
        a, b, r, s, n = (a + power * a, b + power * (b + n * a), r + power * r + n * a,
                         s + power * power * s + (2 * n - 1) * power * a * a, 2 * n)
        if bit == "1":
            power = p_e**n
            a, b, r, s, n = a + power, b + n * power, r + a, s + power * (a + 2.0 * r), n + 1
    return a, b, s


@dataclass(frozen=True)
class PoissonPerRI:
    """Poisson report arrivals; ``load`` is the mean report count per interval."""

    load: float = 1.0

    def __post_init__(self) -> None:
        if not (self.load > 0.0 and math.isfinite(self.load)):
            raise ParameterError(f"arrival load must be positive and finite, got {self.load!r}")

    @property
    def mean_reports(self) -> float:
        return self.load

    def count_pmf(self) -> np.ndarray:
        """P[U = k] for k <= 2 lambda + 40, in logs so that no term leaves double range."""
        k = np.arange(int(2 * self.load) + 41)
        return np.exp(k * math.log(self.load) - self.load - np.append(0.0, np.log(k[1:]).cumsum()))

    def demand_moments(self, attempts: AttemptLaw) -> tuple[float, float]:
        """R_i's mean and variance from E[W] and E[W^2], conditioning on U
        (at lambda = 1 the published dimensioning rule):

            E[R_i]   = lambda E[W] - (1 - e^-lambda)
            Var[R_i] = lambda E[W^2] - 2 lambda E[W] e^-lambda + e^-lambda (1 - e^-lambda)

        These cancel as lambda -> 0, so below 1/2 they are summed from non-negative
        terms: with d, v = E[W - 1], Var[W - 1] and g = lambda - (1 - e^-lambda) by its
        series, E[R_i] = lambda d + g, Var[R_i] = lambda (v + d^2 + 2 d (1 - e^-lambda))
        + Var[(U - 1)^+], the last lambda^2 - g - g^2.
        """
        load = self.load
        active = -math.expm1(-load)
        if load < 0.5:
            d, v = attempts.retry_moments
            g = load * load * math.fsum((-load) ** j / math.factorial(j + 2) for j in range(16))
            return load * d + g, load * (v + d * d + 2.0 * d * active) + (load * load - g - g * g)
        e_w, e_w2 = attempts.mean, attempts.second_moment
        silent = math.exp(-load)
        # grouped so that load 1 repeats the published rule's arithmetic exactly
        mean1 = load * e_w - active
        var1 = load * e_w2 + silent * (1.0 - 2.0 * load * e_w - silent)
        if not (math.isfinite(mean1) and math.isfinite(var1)):
            raise ParameterError(f"arrival load {load!r} is too large: a device's demand moments overflow")
        return mean1, var1


@dataclass(frozen=True)
class OnePerRI:
    """Exactly one report per device per interval."""

    mean_reports = 1.0

    def count_pmf(self) -> np.ndarray:
        """P[U = k] for k = 0, 1."""
        return np.array([0.0, 1.0])

    def demand_moments(self, attempts: AttemptLaw) -> tuple[float, float]:
        """E[R_i] and Var[R_i] of R_i = W - 1."""
        return attempts.retry_moments


ArrivalModel = Union[PoissonPerRI, OnePerRI]


@dataclass(frozen=True)
class SystemParams:
    """Full input to analysis and simulation."""

    n_devices: int
    p_e: float
    max_attempts: int
    arrival: ArrivalModel = PoissonPerRI()
    target_failure: float = 1e-3
    attempts: AttemptLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive_int("n_devices", self.n_devices)
        object.__setattr__(self, "attempts", AttemptLaw(self.p_e, self.max_attempts))
        if not (0.0 < self.target_failure < 1.0):
            raise ParameterError(f"target_failure must be in (0, 1), got {self.target_failure!r}")
        if not isinstance(self.arrival, (PoissonPerRI, OnePerRI)):
            raise ParameterError(f"unknown arrival model: {self.arrival!r}")


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


def device_moments(p_e: float, max_attempts: int, arrival: ArrivalModel) -> tuple[float, float]:
    """Mean and variance of one device's shared-pool demand R_i, by the
    arrival model's own law.  A variance that rounds below 0 is taken as 0."""
    attempts = AttemptLaw(p_e, max_attempts)  # checked before the arrival model is asked
    mean1, var1 = arrival.demand_moments(attempts)
    return mean1, max(var1, 0.0)


def scaled_moments(n_devices: int, moments: tuple[float, float]) -> tuple[float, float]:
    """Mean and variance of the demand of `n_devices` independent devices with the per-device
    `moments` (device_moments), mu = N m_1 and sigma^2 = N v_1, each within double range."""
    try:
        n = float(n_devices)
    except OverflowError:
        raise ParameterError(
            f"n_devices must be at most {sys.float_info.max:g}, the largest double, "
            f"got an integer of {n_devices.bit_length()} bits"
        ) from None
    mean1, var1 = moments
    mean, variance = n * mean1, n * var1
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ParameterError(
            f"devices x demand per device is too large: the demand of {n_devices} devices, each of "
            f"mean {mean1:g} and variance {var1:g}, overflows a double"
        )
    return mean, variance


def demand_summary(params: SystemParams) -> DemandSummary:
    """Moments of the shared-pool demand R = sum_i R_i for the given system;
    both scale linearly with N because devices are independent and
    identically distributed."""
    moments = device_moments(params.p_e, params.max_attempts, params.arrival)
    return DemandSummary(*scaled_moments(params.n_devices, moments))


def _gaussian_term(capacity: int, mean: float, std: float, floor: float) -> float:
    """Q((C - mu) / sigma) (1 - p_e^L) + p_e^L; without variance the demand
    is its mean, and the term a step: p_e^L when C covers mu, else 1."""
    if std == 0.0:
        return floor if capacity >= mean else 1.0
    return q_function((capacity - mean) / std) * (1.0 - floor) + floor


def failure_bound(capacity: int, summary: DemandSummary, p_e: float, max_attempts: int) -> float:
    """Per-report failure probability bound at pool capacity C, Gaussian demand model.

        P[failure] <= Q((C - mu) / sigma) (1 - p_e^L) + p_e^L

    The p_e^L term is the irreducible floor from reports that burn all L
    attempts.  The Q term is the Gaussian approximation of P[R > C], the
    probability that total demand overflows the pool.  It does not depend on
    the scheduling discipline, but it is not a bound: the right-skewed demand
    has a heavier upper tail, so it can understate P[R > C].
    """
    floor = AttemptLaw(p_e, max_attempts).floor
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    return _gaussian_term(capacity, summary.mean, summary.std, floor)


@dataclass(frozen=True)
class CapacityRule:
    """The target side of dimensioning, fixed by (p_e, L, eps, arrival) and
    the same at every device count: the floor p_e^L, the target eps, and
    z = Q^-1((eps - p_e^L) / (1 - p_e^L)).  `smallest_capacity` then
    dimensions any demand of that parameter set from its moments alone."""

    target: float
    floor: float
    z: float

    def smallest_capacity(self, mean: float, std: float) -> int:
        """Smallest integer C whose failure bound meets the target at this demand `mean` and `std`.

        Closed form first (mu + sigma z, rounded up), then a local integer
        scan so that failure_bound(C) <= target < failure_bound(C - 1) holds
        exactly.  From 2**53 on, C and C - 1 round to the same double, so the
        scan could never move; such a closed-form capacity is returned
        without it.  Without variance the closed form is ceil(mu), which the
        step of the bound leaves where it is.
        """
        floor, eps = self.floor, self.target
        cap = max(0, math.ceil(mean + std * self.z))
        if cap >= 2**53:
            return cap
        while cap > 0 and _gaussian_term(cap - 1, mean, std, floor) <= eps:
            cap -= 1
        while _gaussian_term(cap, mean, std, floor) > eps:
            cap += 1
        return cap


def capacity_rule(params: SystemParams) -> CapacityRule:
    """The CapacityRule of `params`.

    Raises InfeasibleTargetError when the target is at or below the floor
    p_e^L, which no capacity lowers.
    """
    floor = params.attempts.floor
    eps = params.target_failure
    if eps <= floor:
        raise InfeasibleTargetError(
            f"target failure {float_text(eps)} is at or below the floor p_e^L = {floor:g}; "
            "no capacity can reach it"
        )
    return CapacityRule(eps, floor, q_inverse((eps - floor) / (1.0 - floor)))


def dimension_capacity(params: SystemParams, summary: DemandSummary | None = None) -> int:
    """Smallest integer pool capacity whose failure bound meets the target;
    `summary` is demand_summary(params), computed here unless given."""
    if summary is None:
        summary = demand_summary(params)
    return capacity_rule(params).smallest_capacity(summary.mean, summary.std)
