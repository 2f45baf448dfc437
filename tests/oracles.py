"""Independent reference implementations used only by the tests.

Nothing here may call into m2mpool: these are the second route every
closed-form result is checked against.
"""

from __future__ import annotations

import math

import mpmath


def q_reference(x: float) -> float:
    """Gaussian tail via mpmath's arbitrary-precision complementary error function."""
    with mpmath.workdps(40):
        return float(mpmath.erfc(x / mpmath.sqrt(2)) / 2)


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


def pmf_moments(pmf: dict[int, float]) -> tuple[float, float]:
    """(mean, variance) of an integer pmf."""
    mean = sum(value * prob for value, prob in pmf.items())
    var = sum((value - mean) ** 2 * prob for value, prob in pmf.items())
    return mean, var
