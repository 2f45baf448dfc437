"""Tests for the closed-form demand moments, failure bound and dimensioning."""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from m2mpool import (
    AttemptLaw,
    DemandSummary,
    InfeasibleTargetError,
    OnePerRI,
    ParameterError,
    PoissonPerRI,
    SystemParams,
    demand_summary,
    dimension_capacity,
    failure_bound,
    sim,
)
from m2mpool.analytic import _attempt_sums, capacity_rule, device_moments

from oracles import (
    attempts_second_moment_reference,
    one_per_ri_demand_pmf,
    one_per_ri_moments_reference,
    pmf_moments,
    poisson_demand_pmf,
    poisson_moments_reference,
    truncated_geometric_pmf,
)

E_INV = math.exp(-1.0)
PE_GRID = [0.0, 0.1, 0.4, 0.9]
CAP_GRID = [1, 2, 5, 10]
LOAD_GRID = [0.05, 0.5, 1.0, 2.0, 5.0]


class TestAttemptMoments:
    def test_error_free(self):
        assert AttemptLaw(0.0, 10).mean == 1.0
        assert AttemptLaw(0.0, 10).second_moment == 1.0

    @pytest.mark.parametrize("p_e", PE_GRID)
    def test_cap_one(self, p_e):
        assert AttemptLaw(p_e, 1).mean == 1.0
        assert AttemptLaw(p_e, 1).second_moment == 1.0

    def test_mean_value(self):
        assert AttemptLaw(0.1, 10).mean == pytest.approx(1.111111111, abs=1e-9)

    @pytest.mark.parametrize("p_e", PE_GRID)
    @pytest.mark.parametrize("cap", CAP_GRID)
    def test_mean_matches_pmf_sum(self, p_e, cap):
        direct = sum(k * w for k, w in enumerate(truncated_geometric_pmf(p_e, cap), start=1))
        assert AttemptLaw(p_e, cap).mean == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("p_e", PE_GRID)
    @pytest.mark.parametrize("cap", CAP_GRID)
    def test_second_moment_closed_form_identity(self, p_e, cap):
        # the dimensioning variance uses a closed-form bracket whose leading
        # term must equal the directly summed E[W^2]
        closed = ((2 * cap - 1) * p_e ** (cap + 1) - (2 * cap + 1) * p_e**cap + p_e + 1.0) / (
            1.0 - p_e
        ) ** 2
        assert closed == pytest.approx(AttemptLaw(p_e, cap).second_moment, abs=1e-10)

    @pytest.mark.parametrize("p_e", [0.0, 0.1, 0.9, 0.999, 1.0 - 1e-6])
    @pytest.mark.parametrize("cap", [1, 2, 10, 64, 10**6])
    def test_second_moment_matches_the_high_precision_closed_form(self, p_e, cap):
        # the double closed form is 1.5e-6 off at p_e = 1 - 1e-6, L = 10
        exact = attempts_second_moment_reference(p_e, cap)
        assert abs(AttemptLaw(p_e, cap).second_moment - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("arrival", ["poisson", "one-per-ri"])
    def test_huge_retry_limit_is_fast(self, arrival):
        # summing L terms took 15 s for one dimension run at L = 10^7
        start = time.perf_counter()
        model = OnePerRI() if arrival == "one-per-ri" else PoissonPerRI()
        for cap in (10**7, 10**12, 10**18):
            for p_e in (0.1, 1.0 - 1e-12):
                assert math.isfinite(demand_summary(SystemParams(30_000, p_e, cap, model)).variance)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("arrival", [PoissonPerRI(), OnePerRI()], ids=["poisson", "one-per-ri"])
    # the doubling follows L's leading binary digits until p_e^n underflows, so at
    # p_e = 0.97 each L past 2**64 moved the variance's last bit until L was capped
    @pytest.mark.parametrize("p_e, large", [(0.1, 10**6), (0.97, 2**64)], ids=["pe0.1", "pe0.97"])
    def test_retry_limit_beyond_float_range_matches_a_large_one(self, arrival, p_e, large):
        # 10**309 does not convert to a float
        huge, big = (SystemParams(30_000, p_e, limit, arrival) for limit in (10**309, large))
        assert huge.attempts.floor == 0.0
        assert AttemptLaw(p_e, 10**309).mean == AttemptLaw(p_e, large).mean
        assert demand_summary(huge) == demand_summary(big)
        assert dimension_capacity(huge) == dimension_capacity(big)
        summary = demand_summary(huge)
        assert failure_bound(14_000, summary, p_e, 10**309) == failure_bound(14_000, summary, p_e, large)

    def test_second_moment_rejects_a_boolean_limit_even_when_cached(self):
        assert AttemptLaw(0.1, 1).second_moment == 1.0
        with pytest.raises(ParameterError):
            AttemptLaw(0.1, True)


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

    @pytest.mark.parametrize("load", [1e-16, 1e-9, 1e-4, 1.0])
    @pytest.mark.parametrize("p_e", [0.0, 0.1, 0.9])
    @pytest.mark.parametrize("cap", [1, 2, 10, 100])
    def test_poisson_moments_keep_their_relative_precision_at_small_loads(self, load, p_e, cap):
        # lambda E[W] - (1 - e^-lambda) cancels as lambda -> 0: at load 1e-16,
        # p_e = 0 it gave a mean of -3.3e-13 (refused as negative), and at 1e-9 a
        # variance of -8.2e-17.  Worst seen on this grid: 4.1e-16 (1e-4, 0.9, 100)
        exact = poisson_moments_reference(load, p_e, cap)
        for value, oracle in zip(device_moments(p_e, cap, PoissonPerRI(load)), exact):
            assert abs(value - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("p_e", [0.0, 1e-9, 0.1, 0.4, 0.9, 0.999])
    @pytest.mark.parametrize("cap", [1, 2, 10, 64, 100, 10**9])
    def test_load_one_repeats_the_published_arithmetic(self, p_e, cap):
        # E[W] as the series A(L), which keeps its precision as p_e nears 1
        # where the closed form (1 - p_e^L) / (1 - p_e) does not
        e_w, e_w2 = _attempt_sums(p_e, cap)[0], AttemptLaw(p_e, cap).second_moment
        published = (e_w - (1.0 - E_INV), e_w2 + E_INV * (1.0 - 2.0 * e_w - E_INV))
        assert device_moments(p_e, cap, PoissonPerRI(1.0)) == published

    @pytest.mark.parametrize("p_e", [0.0, 1e-9, 1e-3, 0.1, 0.4, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    @pytest.mark.parametrize("cap", [1, 2, 3, 10, 64, 100])
    def test_load_one_moments_keep_their_relative_precision_near_p_e_one(self, p_e, cap):
        # E[W] in the closed form put the mean 4.8e-9 off at p_e = 1 - 1e-9, L = 10
        exact = poisson_moments_reference(1.0, p_e, cap)
        for value, oracle in zip(device_moments(p_e, cap, PoissonPerRI(1.0)), exact):
            assert abs(value - oracle) <= 1e-14 * oracle

    @given(st.one_of(st.just(OnePerRI()), st.floats(1e-3, 1000.0).map(PoissonPerRI)),
           st.floats(0.0, 0.98), st.integers(1, 100))
    @example(PoissonPerRI(43.7), 0.4, 10)
    @example(PoissonPerRI(50.0), 0.9, 100)
    @example(PoissonPerRI(1000.0), 0.98, 100)
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_moments_match_the_engine_count_table(self, arrival, p_e, cap):
        # R_i by conditioning on U over the table the engine draws from
        # (both tails cut above load 43.7) and the oracle's attempt pmf
        pmf, back = sim._report_count_law(arrival)
        count = pmf[back]
        u = np.arange(count.size)
        attempts = np.array(truncated_geometric_pmf(p_e, cap))
        k = np.arange(1, cap + 1)
        e_w = attempts @ k
        given_u = np.where(u > 0, u * e_w - 1.0, 0.0)
        mean = count @ given_u
        variance = count @ (u * (attempts @ (k - e_w) ** 2) + (given_u - mean) ** 2)
        # under one report this reference's own u E[W] - 1 cancels all of a
        # mean of about p_e as p_e nears 0, so it holds only to a few ulp of
        # E[W^2]; the Poisson reference and closed forms need no such slack
        floor = 0.0
        if isinstance(arrival, OnePerRI):
            floor = 8 * sys.float_info.epsilon * AttemptLaw(p_e, cap).second_moment
        for closed, conditioned in zip(device_moments(p_e, cap, arrival), (mean, variance)):
            assert abs(closed - conditioned) <= 1e-9 * conditioned + floor

    @pytest.mark.parametrize("p_e", PE_GRID)
    @pytest.mark.parametrize("cap", CAP_GRID)
    def test_one_per_ri_matches_oracle(self, p_e, cap):
        mean, variance = pmf_moments(one_per_ri_demand_pmf(p_e, cap))
        summary = demand_summary(SystemParams(1, p_e, cap, OnePerRI()))
        assert summary.mean == pytest.approx(mean, rel=1e-6, abs=1e-12)
        assert summary.variance == pytest.approx(variance, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("p_e", [1e-300, 1e-20, 1e-9, 1e-3, 0.1, 0.4, 0.9])
    @pytest.mark.parametrize("cap", [1, 2, 10, 64])
    def test_one_per_ri_moments_keep_their_relative_precision(self, p_e, cap):
        # E[W] - 1 and E[W^2] - E[W]^2 cancel all of a mean of about p_e as
        # p_e nears 0: they gave (0.0, 0.0) at p_e = 1e-20, L = 10; at L = 1
        # the oracle's moments are exactly 0, and so must these be
        exact = pmf_moments(one_per_ri_demand_pmf(p_e, cap))
        for value, oracle in zip(device_moments(p_e, cap, OnePerRI()), exact):
            assert abs(value - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("p_e", [0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    @pytest.mark.parametrize("cap", [2, 10, 64, 1000])
    def test_one_per_ri_variance_keeps_its_relative_precision_near_one(self, p_e, cap):
        # E[(W - 1)^2] - E[W - 1]^2 cancels as W nears L for nearly every
        # report: 4.0e-11 off at p_e = 1 - 1e-6, L = 10, 3.1e-9 at 1 - 1e-9, L = 64
        exact = one_per_ri_moments_reference(p_e, cap)
        for value, oracle in zip(device_moments(p_e, cap, OnePerRI()), exact):
            assert abs(value - oracle) <= 1e-12 * oracle

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

    def test_degenerate_variance_at_a_fractional_mean(self):
        summary = DemandSummary(mean=5.5, variance=0.0)
        assert failure_bound(5, summary, 0.1, 5) == 1.0
        assert failure_bound(6, summary, 0.1, 5) == 0.1**5

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

    def test_zero_variance_demand_is_its_mean_rounded_up(self):
        # the one rule: mu + 0 z, then the scan, which the step leaves alone
        rule = capacity_rule(SystemParams(10, 0.1, 5))
        assert rule.smallest_capacity(5.5, 0.0) == 6
        assert rule.smallest_capacity(0.0, 0.0) == 0

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
