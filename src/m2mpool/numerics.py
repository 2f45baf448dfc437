"""Gaussian tail functions, reproducible sampling primitives, and the
parameter validators every module shares.

Everything here is deterministic given an :class:`RngStream`, so simulation
replications can be farmed out to workers and still reduce to bit-identical
results.  ``np`` here, which ``sim`` shares, imports numpy on its first use,
so the analytic commands start without it.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import ModuleType
from typing import TYPE_CHECKING

from .errors import ParameterError


def _lazy_numpy() -> ModuleType:
    """numpy itself if it is imported, else a module that imports it on its
    first attribute access, so a run that draws nothing never loads it."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.loader is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


if TYPE_CHECKING:
    import numpy as np
else:
    np = _lazy_numpy()

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = P[Z > x].

    Evaluated as erfc(x / sqrt(2)) / 2, which keeps full relative accuracy
    deep into the tail (reliability targets sit at 1e-3 and below).
    """
    if not math.isfinite(x):
        raise ParameterError(f"q_function requires finite x, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(p: float) -> float:
    """Solve q_function(x) = p for 0 < p < 1.

    The upper tail q = min(p, 1 - p) (1 - p is exact for p >= 1/2) is
    inverted from the closed-form start of Abramowitz & Stegun 26.2.23,
    t - (c0 + c1 t + c2 t^2) / (1 + d1 t + d2 t^2 + d3 t^3) with
    t = sqrt(-2 ln q), whose error is below 4.5e-4, refined by two Halley
    steps on log q_function(y) = log q.  In logs the Mills ratio
    Q(y) / phi(y) comes from exp(log Q(y) + y^2/2 + log sqrt(2 pi)), which
    neither overflows nor divides by an underflowed density in the far
    tail; a subnormal q whose tail rounds to 0 ends the refinement.  Each
    step costs one q_function call, so two calls in all.  |Q(x) - p| / p
    stays below 4e-13 for 1e-300 <= p <= 1/2 (the limit is the spacing of
    doubles near x, about x^2 * 1.1e-16 relative), and |Q(x) - p| below
    1.2e-16 for p >= 1/2.
    """
    if not (0.0 < p < 1.0):
        raise ParameterError(f"q_inverse requires 0 < p < 1, got {p!r}")
    log_q = math.log(min(p, 1.0 - p))
    t = math.sqrt(-2.0 * log_q)
    y = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    for _ in range(2):
        tail = q_function(y)
        if tail == 0.0:
            break
        log_tail = math.log(tail)
        # Halley on g(y) = log Q(y) - log q, with g' = -1/m and g'' = (y m - 1)/m^2
        g = log_tail - log_q
        mills = math.exp(log_tail + 0.5 * y * y + _LOG_SQRT_2PI)
        y += g * mills / (1.0 + 0.5 * g * (1.0 - y * mills))
    return y if p <= 0.5 else -y


@dataclass(frozen=True)
class RngStream:
    """One logical random stream, keyed by (master_seed, stream_index).

    Equal keys replay identical sequences on every run and under any thread
    schedule; distinct stream indices select statistically independent PCG64
    streams via seed-sequence spawn keys.  A stream owns mutable generator
    state, so keep each instance confined to a single worker.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2**64):
            raise ParameterError(f"master_seed must be a 64-bit integer, got {self.master_seed!r}")
        if self.stream_index < 0:
            raise ParameterError(f"stream_index must be non-negative, got {self.stream_index!r}")

    @cached_property
    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


@lru_cache(maxsize=64)
def _poisson_cdf(mean: float) -> np.ndarray:
    # table extended until the truncated tail is below ~1e-18 (invisible at
    # double precision and at any realistic replication count)
    terms = [math.exp(-mean)]
    while terms[-1] > 1e-19 or len(terms) < 2 * mean + 10:
        terms.append(terms[-1] * mean / len(terms))
    return np.cumsum(terms)


def _poisson_draw(gen: np.random.Generator, mean: float, size: int) -> np.ndarray:
    cdf = _poisson_cdf(mean)
    return np.searchsorted(cdf, gen.random(size), side="right").astype(np.int64)


def poisson_counts(gen: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """Poisson(mean) draws by inversion of the cumulative sum.

    Means above 500 are split additively across several inversion passes so
    the table head exp(-mean) never underflows.
    """
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ParameterError(f"Poisson mean must be positive and finite, got {mean!r}")
    total = np.zeros(size, dtype=np.int64)
    while mean > 500.0:
        total += _poisson_draw(gen, 500.0, size)
        mean -= 500.0
    return total + _poisson_draw(gen, mean, size)


def leading_failure_counts(gen: np.random.Generator, p_e: float, size: int) -> np.ndarray:
    """Consecutive reception failures before a report's first success.

    Geometric, P[F = k] = p_e^k (1 - p_e), sampled by inversion from one
    uniform per draw.  Uncapped: callers apply their own retry limit.
    """
    check_error_prob(p_e)
    if p_e == 0.0:
        return np.zeros(size, dtype=np.int64)
    # the same arithmetic in place: one float array besides the result
    u = np.negative(gen.random(size))
    np.log1p(u, out=u)
    u /= math.log(p_e)
    return np.floor(u, out=u).astype(np.int64)


def check_error_prob(p_e: float) -> None:
    """Reject a reception-failure probability outside [0, 1) (NaN included)."""
    if not (0.0 <= p_e < 1.0):
        raise ParameterError(f"p_e must be in [0, 1), got {p_e!r}")


def check_positive_int(name: str, value: object) -> None:
    """Reject anything but a Python int >= 1; bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
