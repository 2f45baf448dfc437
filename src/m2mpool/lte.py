"""Mapping reports and pool capacities onto the LTE uplink resource grid.

One resource block (RB) is the minimum uplink allocation: one subframe by
twelve subcarriers.  Y of the B RBs per subframe are reserved for machine
reporting, and the recurring pool spans X = X_P + X_C subframes: X_P carries
each device's preallocated first transmission, X_C carries the shared
capacity of C transmissions.

The grid constants are module constants: `DATA_RES_PER_RB` data resource
elements per RB, `SUBFRAME_SECONDS` per subframe, and `MODULATION_BITS`,
the bits per resource element of each modulation by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleGeometryError, ParameterError
from .numerics import check_positive_int

MODULATION_BITS = {"qpsk": 2, "qam64": 6}
# 12 subcarriers x 14 symbols = 168 resource elements per RB, minus 24 for
# reference signals; coding rate is not modeled
DATA_RES_PER_RB = 144
SUBFRAME_SECONDS = 1e-3


@dataclass(frozen=True)
class LteProfile:
    """Static resource-grid and report parameters."""

    rbs_per_subframe_total: int
    m2m_rbs_per_subframe: int
    bits_per_re: int = MODULATION_BITS["qpsk"]
    report_size_bits: int = 800
    ri_subframes: int = 60_000

    def __post_init__(self) -> None:
        for name in (
            "rbs_per_subframe_total",
            "m2m_rbs_per_subframe",
            "bits_per_re",
            "report_size_bits",
            "ri_subframes",
        ):
            check_positive_int(name, getattr(self, name))
        if self.m2m_rbs_per_subframe > self.rbs_per_subframe_total:
            raise ParameterError(
                f"m2m_rbs_per_subframe ({self.m2m_rbs_per_subframe}) exceeds the "
                f"subframe bandwidth ({self.rbs_per_subframe_total} RBs)"
            )


class PoolPlan(NamedTuple):
    """A dimensioned pool laid out on the grid."""

    rbs_per_report: int
    alpha: float
    preallocated_subframes: int
    common_subframes: int
    total_subframes: int
    capacity_fraction: float
    worst_case_delay_seconds: float


def rbs_per_report(profile: LteProfile, report_size_bits: int | None = None) -> int:
    """Resource blocks needed to carry one report at the profile's modulation,
    of the profile's size unless `report_size_bits` is given."""
    bits = profile.report_size_bits if report_size_bits is None else report_size_bits
    bits_per_rb = DATA_RES_PER_RB * profile.bits_per_re
    return -(-bits // bits_per_rb)


def pool_layout(n_devices: int, profile: LteProfile, capacity: int, rbs: int) -> tuple[int, int, float]:
    """(X_P, X_C, capacity fraction) of a pool carrying N preallocated reports
    plus C shared transmissions, each of `rbs` RBs.

    Preallocated and shared subframe counts are rounded up independently
    (physical allocation is whole subframes).  The capacity fraction counts
    the RBs actually consumed, r (N + C), against everything the system
    offers over one interval, B times the interval length, so it does not
    depend on how many RBs per subframe the pool happens to occupy.
    """
    y = profile.m2m_rbs_per_subframe
    if rbs > y:
        raise InfeasibleGeometryError(f"a report needs {rbs} RBs but only {y} are reserved per subframe")
    preallocated = -(-n_devices * rbs // y)
    common = -(-capacity * rbs // y)
    total = preallocated + common
    if total > profile.ri_subframes:
        raise InfeasibleGeometryError(
            f"pool needs {total} subframes but the interval has only {profile.ri_subframes}")
    fraction = rbs * (n_devices + capacity) / (profile.rbs_per_subframe_total * profile.ri_subframes)
    return preallocated, common, fraction


def build_pool_plan(n_devices: int, profile: LteProfile, capacity: int) -> PoolPlan:
    """Lay out a pool carrying N preallocated reports plus C shared transmissions."""
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    rbs = rbs_per_report(profile)
    preallocated, common, fraction = pool_layout(n_devices, profile, capacity, rbs)
    total = preallocated + common
    delay = (profile.ri_subframes + total) * SUBFRAME_SECONDS
    alpha = rbs / profile.m2m_rbs_per_subframe
    return PoolPlan(rbs, alpha, preallocated, common, total, fraction, delay)
