"""Tests for the Gaussian tail functions and sampling primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from m2mpool import numerics
from m2mpool import OnePerRI, ParameterError, RngStream, SystemParams, q_function, q_inverse, sample_demand
from m2mpool.numerics import check_positive_int, leading_failure_counts, poisson_counts

from oracles import q_reference, truncated_geometric_pmf

E_INV = math.exp(-1.0)

# frozen from the arbitrary-precision oracle (40 significant digits)
Q_REFERENCE_POINTS = [
    (0.5, 0.308537538725986896),
    (1.0, 0.158655253931457051),
    (2.0, 0.0227501319481792072),
    (3.0902, 0.00100010878320707182),
    (5.0, 2.86651571879193912e-07),
    (8.0, 6.22096057427178412e-16),
]


class TestQFunction:
    def test_median(self):
        assert q_function(0.0) == 0.5

    def test_frozen_reference_points(self):
        for x, expected in Q_REFERENCE_POINTS:
            assert q_function(x) == pytest.approx(expected, rel=1e-12)
            assert q_function(-x) == pytest.approx(1.0 - expected, abs=1e-13)

    def test_absolute_error_against_oracle(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert abs(q_function(float(x)) - q_reference(float(x))) <= 1e-10

    def test_tail_relative_error(self):
        for x in np.linspace(0.0, 8.0, 81):
            ref = q_reference(float(x))
            assert abs(q_function(float(x)) - ref) <= 1e-12 * ref

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 200)
        values = [q_function(float(x)) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError):
            q_function(bad)


class TestQInverse:
    def test_median(self):
        assert q_inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_tail_point(self):
        assert q_inverse(1e-3) == pytest.approx(3.09023230616781354, abs=1e-9)

    @given(st.floats(min_value=-5.0, max_value=6.0))
    @settings(max_examples=100)
    def test_roundtrip(self, x):
        assert q_inverse(q_function(x)) == pytest.approx(x, abs=1e-9)

    def test_roundtrip_deep_negative(self):
        # for x below about -5.5 the tail is rounded away when q nears 1.0
        # (double spacing 1.1e-16), so the roundtrip error floor is the
        # spacing divided by the Gaussian density, about 2e-8 at -6
        for x in (-5.5, -6.0):
            assert q_inverse(q_function(x)) == pytest.approx(x, abs=5e-8)

    def test_residual(self):
        for p in (0.9, 0.5, 0.1, 1e-3, 1e-6, 1e-9):
            assert abs(q_function(q_inverse(p)) - p) <= 1e-12

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterError):
            q_inverse(bad)


# upper-tail targets from 1e-300 to 1/2, 50 to a decade
TAIL_GRID = np.logspace(-300.0, math.log10(0.5), 15_000).tolist()


class TestQInverseTails:
    def test_strictly_decreasing(self):
        xs = [q_inverse(p) for p in TAIL_GRID]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_relative_residual_in_the_upper_tail(self):
        worst = max(abs(q_function(q_inverse(p)) - p) / p for p in TAIL_GRID)
        assert worst <= 1e-12

    def test_absolute_residual_in_the_lower_tail(self):
        grid = np.linspace(0.5, 1.0 - 1e-12, 20_001).tolist()
        worst = max(abs(q_function(q_inverse(p)) - p) for p in grid)
        assert worst <= 1e-15

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 2.2e-308, 1.0 - 2.0**-53])
    def test_finite_at_the_ends_of_double_range(self, p):
        x = q_inverse(p)
        assert math.isfinite(x)
        assert (x > 37.0) if p < 0.5 else (x < -8.0)

    def test_at_most_four_q_function_calls(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return q_function(x)

        monkeypatch.setattr(numerics, "q_function", counted)
        subnormal = [5e-324 * k for k in (1, 2, 3, 1000)]
        near_one = [1.0 - 2.0**-k for k in range(1, 54)]
        for p in [*subnormal, *TAIL_GRID[::50], 0.5, 0.7, 0.99, *near_one]:
            calls.clear()
            q_inverse(p)
            assert len(calls) <= 4, p


class TestRngStream:
    def test_same_key_replays_identical_sequence(self):
        a = RngStream(123, 7).generator.random(1000)
        b = RngStream(123, 7).generator.random(1000)
        assert np.array_equal(a, b)

    def test_distinct_indices_are_unrelated(self):
        a = RngStream(123, 0).generator.random(100_000)
        b = RngStream(123, 1).generator.random(100_000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    @pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (5, -1)])
    def test_rejects_bad_keys(self, seed, index):
        with pytest.raises(ParameterError):
            RngStream(seed, index)


class TestSamplePoisson:
    def test_moments_at_unit_mean(self):
        draws = poisson_counts(RngStream(42, 0).generator, 1.0, 1_000_000)
        assert 0.997 <= draws.mean() <= 1.003  # 3-sigma interval for Poisson(1)
        zero_fraction = np.count_nonzero(draws == 0) / draws.size
        half_width = 3.0 * math.sqrt(E_INV * (1.0 - E_INV) / draws.size)
        assert abs(zero_fraction - E_INV) <= half_width

    def test_scalar_determinism(self):
        first = [int(poisson_counts(RngStream(5, i).generator, 1.0, 1)[0]) for i in range(50)]
        second = [int(poisson_counts(RngStream(5, i).generator, 1.0, 1)[0]) for i in range(50)]
        assert first == second

    def test_large_mean_chunking(self):
        draws = poisson_counts(RngStream(11, 0).generator, 1200.0, 20_000)
        assert abs(draws.mean() - 1200.0) <= 3.0 * math.sqrt(1200.0 / draws.size)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_mean(self, bad):
        with pytest.raises(ParameterError):
            poisson_counts(RngStream(1, 0).generator, bad, 1)


class TestSampleAttempts:
    def test_error_free_channel_always_one(self):
        fails = leading_failure_counts(RngStream(2, 0).generator, 0.0, 100)
        assert np.array_equal(fails, np.zeros(100))

    def test_cap_one_forces_one(self):
        # the retry limit is applied by the engine: 100 reports at p_e=0.9
        # drawn from stream (3, 0), each capped at one attempt, charge nothing
        [hist] = sample_demand([SystemParams(100, 0.9, 1, OnePerRI())], 1, seed=3)
        assert (hist.offset, hist.counts.tolist()) == (0, [1])

    def test_first_attempt_mass(self):
        gen = RngStream(4, 0).generator
        attempts = np.minimum(leading_failure_counts(gen, 0.1, 1_000_000) + 1, 10)
        ones = np.count_nonzero(attempts == 1) / attempts.size
        assert abs(ones - 0.9) <= 3.0 * math.sqrt(0.09 / attempts.size)

    @pytest.mark.parametrize("p_e,cap", [(0.4, 8), (0.1, 4)])
    def test_chi_square_fit(self, p_e, cap):
        gen = RngStream(20260808, 0).generator
        attempts = np.minimum(leading_failure_counts(gen, p_e, 1_000_000) + 1, cap)
        observed = np.bincount(attempts, minlength=cap + 1)[1:]
        expected = np.array(truncated_geometric_pmf(p_e, cap)) * attempts.size
        assert stats.chisquare(observed, expected).pvalue > 0.001

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
    def test_rejects_bad_probability(self, bad):
        with pytest.raises(ParameterError):
            leading_failure_counts(RngStream(1, 0).generator, bad, 1)

    def test_rejects_bad_cap(self):
        # callers check the retry cap with the shared positive-integer rule
        for bad in (0, True):
            with pytest.raises(ParameterError):
                check_positive_int("max_attempts", bad)
