"""Tests for the resource-grid mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from m2mpool.errors import InfeasibleGeometryError, ParameterError
from m2mpool.lte import LteProfile, build_pool_plan, rbs_per_report

HEADLINE_DEVICES = 30_000


def five_mhz(**overrides) -> LteProfile:
    base = dict(rbs_per_subframe_total=25, m2m_rbs_per_subframe=25)
    base.update(overrides)
    return LteProfile(**base)


class TestRbsPerReport:
    def test_qpsk_100_bytes(self):
        assert rbs_per_report(five_mhz()) == 3

    def test_qam64_100_bytes(self):
        assert rbs_per_report(five_mhz(bits_per_re=6)) == 1

    def test_qam64_1000_bytes(self):
        assert rbs_per_report(five_mhz(bits_per_re=6, report_size_bits=8000)) == 10


class TestBuildPoolPlan:
    def test_headline_fraction(self):
        plan = build_pool_plan(HEADLINE_DEVICES, five_mhz(), 14841)
        assert plan.capacity_fraction == pytest.approx(3 * 44841 / 1_500_000, abs=1e-12)
        assert plan.capacity_fraction == pytest.approx(0.0897, abs=0.0001)

    def test_large_report_fraction(self):
        plan = build_pool_plan(HEADLINE_DEVICES, five_mhz(bits_per_re=6, report_size_bits=8000), 14841)
        assert plan.capacity_fraction == pytest.approx(10 * 44841 / 1_500_000, abs=1e-12)

    def test_single_device(self):
        profile = LteProfile(
            rbs_per_subframe_total=1, m2m_rbs_per_subframe=1, report_size_bits=100, ri_subframes=10
        )
        plan = build_pool_plan(1, profile, 0)
        assert plan.rbs_per_report == 1
        assert (plan.preallocated_subframes, plan.common_subframes, plan.total_subframes) == (1, 0, 1)

    def test_partition_and_packing_invariants(self):
        for capacity in (0, 1, 97, 14841):
            plan = build_pool_plan(HEADLINE_DEVICES, five_mhz(), capacity)
            assert plan.total_subframes == plan.preallocated_subframes + plan.common_subframes
            assert plan.total_subframes * 25 >= plan.rbs_per_report * (30_000 + capacity)
            assert 0.0 < plan.alpha <= 1.0

    def test_worst_case_delay(self):
        plan = build_pool_plan(HEADLINE_DEVICES, five_mhz(), 14841)
        assert plan.worst_case_delay_seconds == (60_000 + plan.total_subframes) * 1e-3

    def test_doubling_bandwidth_halves_fraction(self):
        narrow = build_pool_plan(HEADLINE_DEVICES, five_mhz(), 14841)
        wide = build_pool_plan(HEADLINE_DEVICES, five_mhz(rbs_per_subframe_total=50), 14841)
        assert wide.capacity_fraction == pytest.approx(narrow.capacity_fraction / 2.0, rel=1e-12)

    def test_fraction_monotone_in_report_size(self):
        fractions = [
            build_pool_plan(HEADLINE_DEVICES, five_mhz(bits_per_re=6, report_size_bits=8 * size), 14841).capacity_fraction
            for size in range(100, 1001, 100)
        ]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_fraction_monotone_in_devices_and_capacity(self):
        by_devices = [
            build_pool_plan(n, five_mhz(), 1000).capacity_fraction
            for n in (100, 1_000, 10_000)
        ]
        by_capacity = [
            build_pool_plan(HEADLINE_DEVICES, five_mhz(), c).capacity_fraction for c in (0, 500, 5_000)
        ]
        assert by_devices == sorted(by_devices)
        assert by_capacity == sorted(by_capacity)

    def test_report_wider_than_reserved_rbs(self):
        with pytest.raises(InfeasibleGeometryError):
            build_pool_plan(HEADLINE_DEVICES, five_mhz(report_size_bits=8000), 100)

    def test_pool_exceeding_interval(self):
        with pytest.raises(InfeasibleGeometryError):
            build_pool_plan(HEADLINE_DEVICES, five_mhz(ri_subframes=1000), 14841)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ParameterError):
            build_pool_plan(HEADLINE_DEVICES, five_mhz(), -1)


class TestCapacityFromSubframes:
    @given(
        st.integers(min_value=0, max_value=20_000),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200)
    def test_roundtrip_never_loses_capacity(self, capacity, reserved, rbs):
        if rbs > reserved:
            return
        profile = LteProfile(
            rbs_per_subframe_total=100,
            m2m_rbs_per_subframe=reserved,
            report_size_bits=rbs * 288,
            ri_subframes=10**7,
        )
        assert rbs_per_report(profile) == rbs
        plan = build_pool_plan(10, profile, capacity)
        # the shared subframes, packed with whole reports, carry at least C
        assert plan.common_subframes * reserved // rbs >= capacity


class TestProfileValidation:
    def test_reserved_exceeding_bandwidth(self):
        with pytest.raises(ParameterError):
            LteProfile(rbs_per_subframe_total=20, m2m_rbs_per_subframe=25)

    def test_rejects_zero_counts(self):
        with pytest.raises(ParameterError):
            LteProfile(rbs_per_subframe_total=25, m2m_rbs_per_subframe=25, report_size_bits=0)
        with pytest.raises(ParameterError):
            LteProfile(True, True)
