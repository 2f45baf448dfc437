"""Gaussian tail functions, reproducible sampling primitives, and the
parameter validators every module shares.  The normal quantile is the
standard library's and the Poisson draws are numpy's; Q itself is erfc.

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
from functools import cached_property
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


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = P[Z > x].

    Evaluated as erfc(x / sqrt(2)) / 2, which keeps full relative accuracy
    deep into the tail (reliability targets sit at 1e-3 and below).
    """
    if not math.isfinite(x):
        raise ParameterError(f"q_function requires finite x, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(p: float) -> float:
    """Solve q_function(x) = p for 0 < p < 1: x = -Phi^-1(p), by the standard library's
    AS241 (`statistics.NormalDist.inv_cdf`), imported here so that only a command that
    dimensions loads it."""
    if not (0.0 < p < 1.0):
        raise ParameterError(f"q_inverse requires 0 < p < 1, got {p!r}")
    from statistics import NormalDist
    return -NormalDist().inv_cdf(p)


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


def poisson_counts(gen: np.random.Generator, mean: float, size: int) -> np.ndarray:
    """`size` Poisson(mean) draws, by numpy's own sampler."""
    if not (mean > 0.0 and math.isfinite(mean)):
        raise ParameterError(f"Poisson mean must be positive and finite, got {mean!r}")
    return gen.poisson(mean, size)


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


def float_text(value: float) -> str:
    """%.10g of `value` where that parses back to it, else its shortest round-trip form."""
    return text if float(text := "%.10g" % value) == value else repr(value)


def check_error_prob(p_e: float) -> None:
    """Reject a reception-failure probability outside [0, 1) (NaN included)."""
    if not (0.0 <= p_e < 1.0):
        raise ParameterError(f"p_e must be in [0, 1), got {p_e!r}")


def check_positive_int(name: str, value: object) -> None:
    """Reject anything but a Python int >= 1; bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
