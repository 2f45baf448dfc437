"""Exception hierarchy shared by all m2mpool modules."""


class M2MPoolError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(M2MPoolError, ValueError):
    """An argument violates its domain (range, type, finiteness)."""


class InfeasibleTargetError(M2MPoolError):
    """The reliability target is at or below the irreducible failure floor p_e^L."""


class InfeasibleGeometryError(M2MPoolError):
    """The requested pool does not fit the configured resource grid."""


class IndeterminateEstimateError(M2MPoolError):
    """No reports were generated, so a failure probability cannot be estimated."""
