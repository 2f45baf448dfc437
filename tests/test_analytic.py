"""Tests for the closed-form demand moments, failure bound and dimensioning."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from m2mpool import (
    DemandSummary,
    InfeasibleTargetError,
    OnePerRI,
    ParameterError,
    PoissonPerRI,
    SystemParams,
    attempts_pmf,
    attempts_second_moment,
    demand_summary,
    dimension_capacity,
    expected_attempts,
    failure_bound,
)

from oracles import (
    attempts_second_moment_reference,
    one_per_ri_demand_pmf,
    pmf_moments,
    poisson_demand_pmf,
)

E_INV = math.exp(-1.0)
PE_GRID = [0.0, 0.1, 0.4, 0.9]
CAP_GRID = [1, 2, 5, 10]
LOAD_GRID = [0.05, 0.5, 1.0, 2.0, 5.0]


class TestAttemptsPmf:
    def test_first_attempt(self):
        assert attempts_pmf(1, 0.1, 10) == pytest.approx(0.9, abs=1e-15)

    def test_cap_holds_tail_mass(self):
        assert attempts_pmf(10, 0.1, 10) == pytest.approx(1e-9, rel=1e-12)

    def test_normalization_example(self):
        total = sum(attempts_pmf(k, 0.4, 10) for k in range(1, 11))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.99), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200)
    def test_normalization_property(self, p_e, cap):
        total = sum(attempts_pmf(k, p_e, cap) for k in range(1, cap + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [0, 11, -3])
    def test_rejects_out_of_support(self, k):
        with pytest.raises(ParameterError):
            attempts_pmf(k, 0.1, 10)


class TestAttemptMoments:
    def test_error_free(self):
        assert expected_attempts(0.0, 10) == 1.0
        assert attempts_second_moment(0.0, 10) == 1.0

    @pytest.mark.parametrize("p_e", PE_GRID)
    def test_cap_one(self, p_e):
        assert expected_attempts(p_e, 1) == 1.0
        assert attempts_second_moment(p_e, 1) == 1.0

    def test_mean_value(self):
        assert expected_attempts(0.1, 10) == pytest.approx(1.111111111, abs=1e-9)

    @pytest.mark.parametrize("p_e", PE_GRID)
    @pytest.mark.parametrize("cap", CAP_GRID)
    def test_mean_matches_pmf_sum(self, p_e, cap):
        direct = sum(k * attempts_pmf(k, p_e, cap) for k in range(1, cap + 1))
        assert expected_attempts(p_e, cap) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("p_e", PE_GRID)
    @pytest.mark.parametrize("cap", CAP_GRID)
    def test_second_moment_closed_form_identity(self, p_e, cap):
        # the dimensioning variance uses a closed-form bracket whose leading
        # term must equal the directly summed E[W^2]
        closed = ((2 * cap - 1) * p_e ** (cap + 1) - (2 * cap + 1) * p_e**cap + p_e + 1.0) / (
            1.0 - p_e
        ) ** 2
        assert closed == pytest.approx(attempts_second_moment(p_e, cap), abs=1e-10)

    @pytest.mark.parametrize("p_e", [0.0, 0.1, 0.9, 0.999, 1.0 - 1e-6])
    @pytest.mark.parametrize("cap", [1, 2, 10, 64, 10**6])
    def test_second_moment_matches_the_high_precision_closed_form(self, p_e, cap):
        # the double closed form is 1.5e-6 off at p_e = 1 - 1e-6, L = 10
        exact = attempts_second_moment_reference(p_e, cap)
        assert abs(attempts_second_moment(p_e, cap) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("arrival", ["poisson", "one-per-ri"])
    def test_huge_retry_limit_is_fast(self, arrival):
        # summing L terms took 15 s for one dimension run at L = 10^7
        start = time.perf_counter()
        model = OnePerRI() if arrival == "one-per-ri" else PoissonPerRI()
        for cap in (10**7, 10**12, 10**18):
            for p_e in (0.1, 1.0 - 1e-12):
                assert math.isfinite(demand_summary(SystemParams(30_000, p_e, cap, model)).variance)
        assert time.perf_counter() - start < 0.5

    def test_second_moment_rejects_a_boolean_limit_even_when_cached(self):
        assert attempts_second_moment(0.1, 1) == 1.0
        with pytest.raises(ParameterError):
            attempts_second_moment(0.1, True)


class TestDemandSummary:
    def test_headline_moments(self):
        summary = demand_summary(SystemParams(30_000, 0.1, 10))
        assert summary.mean == pytest.approx(14369.7165651433, abs=1e-6)
        assert summary.variance == pytest.approx(23191.7693324013, abs=1e-6)

    def test_error_free_poisson_device(self):
        summary = demand_summary(SystemParams(1, 0.0, 5))
        assert summary.mean == pytest.approx(E_INV, abs=1e-12)
        assert summary.variance == pytest.approx(1.0 - E_INV - E_INV**2, abs=1e-12)

    def test_one_per_ri_error_free_is_degenerate(self):
        summary = demand_summary(SystemParams(5, 0.0, 4, OnePerRI()))
        assert summary.mean == 0.0
        assert summary.variance == 0.0

    @pytest.mark.parametrize("arrival", [PoissonPerRI(), OnePerRI()])
    def test_linear_in_devices(self, arrival):
        unit = demand_summary(SystemParams(1, 0.4, 10, arrival))
        scaled = demand_summary(SystemParams(1700, 0.4, 10, arrival))
        assert scaled.mean == pytest.approx(1700 * unit.mean, rel=1e-12)
        assert scaled.variance == pytest.approx(1700 * unit.variance, rel=1e-12)

    @pytest.mark.parametrize("p_e", PE_GRID)
    @pytest.mark.parametrize("cap", CAP_GRID)
    def test_poisson_matches_convolution_oracle(self, p_e, cap):
        # at load 0.05 the mean is about load^2 / 2, so the truncated Poisson
        # tail must sit well below the default 1e-12 to stay under rel 1e-8
        for load in LOAD_GRID:
            mean, variance = pmf_moments(poisson_demand_pmf(p_e, cap, tail=1e-14, load=load))
            summary = demand_summary(SystemParams(1, p_e, cap, PoissonPerRI(load)))
            assert summary.mean == pytest.approx(mean, rel=1e-8), load
            assert summary.variance == pytest.approx(variance, rel=1e-8), load

    @pytest.mark.parametrize("p_e", PE_GRID)
    @pytest.mark.parametrize("cap", CAP_GRID)
    def test_one_per_ri_matches_oracle(self, p_e, cap):
        mean, variance = pmf_moments(one_per_ri_demand_pmf(p_e, cap))
        summary = demand_summary(SystemParams(1, p_e, cap, OnePerRI()))
        assert summary.mean == pytest.approx(mean, rel=1e-6, abs=1e-12)
        assert summary.variance == pytest.approx(variance, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_devices=0, p_e=0.1, max_attempts=5),
            dict(n_devices=10, p_e=1.0, max_attempts=5),
            dict(n_devices=10, p_e=-0.1, max_attempts=5),
            dict(n_devices=10, p_e=0.1, max_attempts=0),
            dict(n_devices=10, p_e=0.1, max_attempts=5, target_failure=0.0),
            dict(n_devices=10, p_e=0.1, max_attempts=5, target_failure=1.0),
            dict(n_devices=True, p_e=0.1, max_attempts=5),
            dict(n_devices=10, p_e=0.1, max_attempts=True),
        ],
    )
    def test_params_validation(self, kwargs):
        with pytest.raises(ParameterError):
            SystemParams(**kwargs)


class TestFailureBound:
    def test_abundant_capacity_leaves_floor(self):
        summary = demand_summary(SystemParams(30_000, 0.1, 10))
        capacity = math.ceil(summary.mean + 40.0 * summary.std)
        assert failure_bound(capacity, summary, 0.1, 10) == pytest.approx(1e-10, abs=1e-12)

    def test_capacity_at_mean(self):
        summary = DemandSummary(mean=100.0, variance=25.0)
        floor = 0.1**10
        expected = 0.5 * (1.0 - floor) + floor
        assert failure_bound(100, summary, 0.1, 10) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_capacity(self):
        summary = demand_summary(SystemParams(100, 0.4, 10))
        values = [failure_bound(c, summary, 0.4, 10) for c in range(0, 300, 5)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=5_000.0),
        st.floats(min_value=0.0, max_value=10_000.0),
        st.floats(min_value=0.0, max_value=0.95),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=200)
    def test_floor_property(self, capacity, mean, variance, p_e, cap):
        summary = DemandSummary(mean=mean, variance=variance)
        bound = failure_bound(capacity, summary, p_e, cap)
        assert p_e**cap <= bound <= 1.0

    def test_degenerate_variance_is_a_step(self):
        summary = DemandSummary(mean=10.0, variance=0.0)
        assert failure_bound(10, summary, 0.5, 2) == 0.25
        assert failure_bound(9, summary, 0.5, 2) == 1.0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ParameterError):
            failure_bound(-1, DemandSummary(1.0, 1.0), 0.1, 5)


class TestDimensionCapacity:
    def test_headline_capacity(self):
        assert dimension_capacity(SystemParams(30_000, 0.1, 10)) == 14841

    @pytest.mark.parametrize(
        "params",
        [
            SystemParams(30_000, 0.1, 10),
            SystemParams(100, 0.4, 10),
            SystemParams(1_000, 0.1, 10, OnePerRI()),
            SystemParams(50, 0.5, 4, target_failure=0.1),
        ],
    )
    def test_bracketing(self, params):
        capacity = dimension_capacity(params)
        summary = demand_summary(params)
        eps = params.target_failure
        assert failure_bound(capacity, summary, params.p_e, params.max_attempts) <= eps
        if capacity >= 1:
            assert failure_bound(capacity - 1, summary, params.p_e, params.max_attempts) > eps

    def test_zero_demand_zero_capacity(self):
        assert dimension_capacity(SystemParams(400, 0.0, 7, OnePerRI())) == 0

    def test_matches_exhaustive_scan(self):
        # the smallest feasible retry cap at p_e = 0.5 and a 0.1 target is 4
        # (0.5^3 = 0.125 already exceeds the target)
        params = SystemParams(100, 0.5, 4, target_failure=0.1)
        summary = demand_summary(params)
        scan = next(
            c
            for c in range(0, params.n_devices * params.max_attempts + 1)
            if failure_bound(c, summary, params.p_e, params.max_attempts) <= 0.1
        )
        assert dimension_capacity(params) == scan

    def test_floor_above_target_is_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            dimension_capacity(SystemParams(100, 0.5, 3, target_failure=0.1))

    def test_monotone_in_devices(self):
        capacities = [dimension_capacity(SystemParams(n, 0.1, 10)) for n in (10, 100, 1_000, 10_000)]
        assert all(a <= b for a, b in zip(capacities, capacities[1:]))

    def test_monotone_in_error_probability(self):
        capacities = [dimension_capacity(SystemParams(1_000, pe, 10)) for pe in (0.05, 0.1, 0.2, 0.4)]
        assert all(a <= b for a, b in zip(capacities, capacities[1:]))

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            dimension_capacity(SystemParams(100, 0.4, 2, target_failure=1e-3))


def smallest_feasible_capacity(params):
    """Smallest C with failure_bound(C) <= eps, by integer bisection on [0, ceil(mu + 50 sigma)]."""
    summary = demand_summary(params)
    eps = params.target_failure

    def meets(c):
        return failure_bound(c, summary, params.p_e, params.max_attempts) <= eps

    low, high = -1, math.ceil(summary.mean + 50.0 * summary.std)
    assert meets(high)
    while high - low > 1:  # meets(high) and, for low >= 0, not meets(low)
        mid = (low + high) // 2
        if meets(mid):
            high = mid
        else:
            low = mid
    return high


@st.composite
def dimensionable(draw):
    p_e = draw(st.floats(min_value=0.0, max_value=0.95))
    cap = draw(st.integers(min_value=1, max_value=64))
    floor = p_e**cap
    # a target strictly above the floor p_e^L, so some capacity reaches it
    eps = floor + (1.0 - floor) * 10.0 ** draw(st.floats(min_value=-12.0, max_value=-0.01))
    arrival = draw(st.one_of(
        st.just(OnePerRI()),
        st.floats(min_value=1e-3, max_value=1e3).map(PoissonPerRI),
    ))
    devices = draw(st.integers(min_value=1, max_value=10**9))
    return SystemParams(devices, p_e, cap, arrival, target_failure=eps)


class TestDimensionCapacityOracle:
    @given(dimensionable())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_bisection_of_the_failure_bound(self, params):
        assert dimension_capacity(params) == smallest_feasible_capacity(params)
