"""Dimensioning and Monte Carlo validation of a periodically pooled uplink.

Massive fleets of periodically reporting devices share a recurring pool of
uplink resources.  This package answers how large the shared part of the
pool must be so every device delivers its reports within one interval with a
target reliability: closed-form demand moments and the per-report failure
probability their Gaussian model gives (`analytic`), the inverse
dimensioning, a mapping onto the LTE resource grid (`lte`), and a seeded
Monte Carlo engine that checks both against simulated intervals (`sim`).
"""

from .analytic import (
    ArrivalModel,
    DemandSummary,
    OnePerRI,
    PoissonPerRI,
    SystemParams,
    attempts_pmf,
    attempts_second_moment,
    demand_summary,
    dimension_capacity,
    expected_attempts,
    failure_bound,
)
from .errors import (
    IndeterminateEstimateError,
    InfeasibleGeometryError,
    InfeasibleTargetError,
    M2MPoolError,
    ParameterError,
)
from .lte import (
    LteProfile,
    PoolPlan,
    build_pool_plan,
    rbs_per_report,
)
from .numerics import RngStream, q_function, q_inverse
from .sim import (
    DemandHistogram,
    FailureEstimate,
    IntervalResult,
    SchedulerPolicy,
    estimate_failure_prob,
    ks_distance,
    sample_demand,
    simulate_interval,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalModel",
    "DemandHistogram",
    "DemandSummary",
    "FailureEstimate",
    "IndeterminateEstimateError",
    "InfeasibleGeometryError",
    "InfeasibleTargetError",
    "IntervalResult",
    "LteProfile",
    "M2MPoolError",
    "OnePerRI",
    "ParameterError",
    "PoissonPerRI",
    "PoolPlan",
    "RngStream",
    "SchedulerPolicy",
    "SystemParams",
    "attempts_pmf",
    "attempts_second_moment",
    "build_pool_plan",
    "demand_summary",
    "dimension_capacity",
    "estimate_failure_prob",
    "expected_attempts",
    "failure_bound",
    "ks_distance",
    "q_function",
    "q_inverse",
    "rbs_per_report",
    "sample_demand",
    "simulate_interval",
    "wilson_interval",
]
