"""Mapping reports and pool capacities onto the LTE uplink resource grid.

One resource block (RB) is the minimum uplink allocation: one subframe by
twelve subcarriers.  Y of the B RBs per subframe are reserved for machine
reporting, and the recurring pool spans X = X_P + X_C subframes: X_P carries
each device's preallocated first transmission, X_C carries the shared
capacity of C transmissions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleGeometryError, ParameterError
from .numerics import check_positive_int

QPSK_BITS_PER_RE = 2
QAM64_BITS_PER_RE = 6
# 12 subcarriers x 14 symbols = 168 resource elements per RB, minus 24 for
# reference signals; coding rate is not modeled
DEFAULT_DATA_RES_PER_RB = 144


@dataclass(frozen=True)
class LteProfile:
    """Static resource-grid and report parameters."""

    rbs_per_subframe_total: int
    m2m_rbs_per_subframe: int
    data_res_per_rb: int = DEFAULT_DATA_RES_PER_RB
    bits_per_re: int = QPSK_BITS_PER_RE
    report_size_bits: int = 800
    ri_subframes: int = 60_000
    subframe_seconds: float = 1e-3

    def __post_init__(self) -> None:
        for name in (
            "rbs_per_subframe_total",
            "m2m_rbs_per_subframe",
            "data_res_per_rb",
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
        if not (self.subframe_seconds > 0.0 and math.isfinite(self.subframe_seconds)):
            raise ParameterError(f"subframe_seconds must be positive, got {self.subframe_seconds!r}")


class PoolPlan(NamedTuple):
    """A dimensioned pool laid out on the grid (a named tuple: a sweep builds
    one per point, at a quarter of a frozen dataclass's cost)."""

    rbs_per_report: int
    alpha: float
    capacity: int
    preallocated_subframes: int
    common_subframes: int
    total_subframes: int
    capacity_fraction: float
    worst_case_delay_seconds: float


def rbs_per_report(profile: LteProfile, report_size_bits: int | None = None) -> int:
    """Resource blocks needed to carry one report at the profile's modulation,
    of the profile's size unless `report_size_bits` is given."""
    bits = profile.report_size_bits if report_size_bits is None else report_size_bits
    bits_per_rb = profile.data_res_per_rb * profile.bits_per_re
    return -(-bits // bits_per_rb)


def build_pool_plan(
    n_devices: int, profile: LteProfile, capacity: int, rbs: int | None = None
) -> PoolPlan:
    """Lay out a pool carrying N preallocated reports plus C shared transmissions.

    Preallocated and shared subframe counts are rounded up independently
    (physical allocation is whole subframes).  The capacity fraction counts
    the RBs actually consumed, r (N + C), against everything the system
    offers over one interval, B times the interval length, so it does not
    depend on how many RBs per subframe the pool happens to occupy.  `rbs`,
    the RBs per report, defaults to `rbs_per_report(profile)`.
    """
    if capacity < 0:
        raise ParameterError(f"capacity must be non-negative, got {capacity!r}")
    if rbs is None:
        rbs = rbs_per_report(profile)
    y = profile.m2m_rbs_per_subframe
    if rbs > y:
        raise InfeasibleGeometryError(
            f"a report needs {rbs} RBs but only {y} are reserved per subframe"
        )
    preallocated = -(-n_devices * rbs // y)
    common = -(-capacity * rbs // y)
    total = preallocated + common
    if total > profile.ri_subframes:
        raise InfeasibleGeometryError(
            f"pool needs {total} subframes but the interval has only {profile.ri_subframes}"
        )
    fraction = (
        rbs * (n_devices + capacity) / (profile.rbs_per_subframe_total * profile.ri_subframes)
    )
    delay = (profile.ri_subframes + total) * profile.subframe_seconds
    return PoolPlan(
        rbs_per_report=rbs,
        alpha=rbs / y,
        capacity=capacity,
        preallocated_subframes=preallocated,
        common_subframes=common,
        total_subframes=total,
        capacity_fraction=fraction,
        worst_case_delay_seconds=delay,
    )
