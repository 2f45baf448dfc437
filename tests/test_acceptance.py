"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL verdict line (visible
with `pytest -s` or in the captured output) and asserts its stated runtime
budget.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from m2mpool.analytic import (
    AttemptLaw,
    SystemParams,
    demand_summary,
    dimension_capacity,
    failure_bound,
    gaussian_cdf,
)
from m2mpool.cli import main as cli_main
from m2mpool.errors import InfeasibleTargetError
from m2mpool.lte import LteProfile, build_pool_plan
from m2mpool.numerics import RngStream
from m2mpool.sim import (
    Z95,
    SchedulerPolicy,
    estimate_failure_prob,
    ks_distance,
    sample_demand,
    simulate_interval,
)

from oracles import pmf_moments, poisson_demand_pmf, truncated_geometric_pmf

GOLDEN_DIR = Path(__file__).parent / "goldens"
E_INV = math.exp(-1.0)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"took {elapsed:.1f}s, budget {budget_seconds:.0f}s"
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[criterion {number}] {label}: PASS ({elapsed:.1f}s)")


def wilson_se(estimate) -> float:
    return (estimate.ci_high - estimate.ci_low) / (2.0 * Z95)


def five_mhz(**overrides) -> LteProfile:
    base = dict(rbs_per_subframe_total=25, m2m_rbs_per_subframe=25)
    base.update(overrides)
    return LteProfile(**base)


def test_criterion_1_clt_validation():
    with criterion(1, "Gaussian demand model at N=100, L=10, 1e5 runs", 30.0):
        runs = 100_000
        for p_e in (0.1, 0.4):
            params = SystemParams(100, p_e, 10)
            summary = demand_summary(params)
            [hist] = sample_demand([params], runs, seed=20260808)
            distance = ks_distance(hist, gaussian_cdf(summary, hist.offset, hist.offset + hist.counts.size - 1))
            assert distance <= 0.02, f"pe={p_e}: ks={distance:.4f}"
            mean_tolerance = 3.0 * summary.std / math.sqrt(runs)
            assert abs(hist.mean() - summary.mean) <= mean_tolerance


def test_criterion_2_headline_dimensioning():
    with criterion(2, "headline dimensioning at defaults", 1.0):
        params = SystemParams(30_000, 0.1, 10, target_failure=1e-3)
        summary = demand_summary(params)
        assert summary.mean == pytest.approx(14369.7, abs=0.1)
        assert summary.std == pytest.approx(152.3, abs=0.1)
        capacity = dimension_capacity(params)
        assert abs(capacity - 14841) <= 1
        plan = build_pool_plan(params.n_devices, five_mhz(), capacity)
        assert plan.capacity_fraction == pytest.approx(0.090, abs=0.005)


def test_criterion_3_modulation_and_report_size():
    with criterion(3, "64-QAM capacity fractions at 100 B and 1000 B", 1.0):
        params = SystemParams(30_000, 0.1, 10, target_failure=1e-3)
        capacity = dimension_capacity(params)
        small = build_pool_plan(params.n_devices, five_mhz(bits_per_re=6), capacity)
        assert small.capacity_fraction == pytest.approx(0.030, abs=0.005)
        large = build_pool_plan(params.n_devices, five_mhz(bits_per_re=6, report_size_bits=8000), capacity)
        assert large.capacity_fraction == pytest.approx(0.300, abs=0.015)


def test_criterion_4_bound_validity():
    with criterion(4, "simulated failure within bound across the grid", 600.0):
        combos = [
            (p_e, cap, n) for p_e in (0.1, 0.4) for cap in (2, 10) for n in (100, 1_000)
        ]
        for index, (p_e, cap, n) in enumerate(combos):
            floor = p_e**cap
            # a 1e-3 target is below the floor at L=2; keep the same Gaussian
            # tail budget there so the dimensioned point is comparable
            eps = 1e-3 if 1e-3 > floor else floor + 1e-3 * (1.0 - floor)
            params = SystemParams(n, p_e, cap, target_failure=eps)
            capacity = dimension_capacity(params)
            summary = demand_summary(params)
            bound = failure_bound(capacity, summary, p_e, cap)
            for offset, policy in enumerate(SchedulerPolicy):
                estimate = estimate_failure_prob(
                    params, capacity, policy, 100_000, seed=7_000 + 10 * index + offset
                )
                limit = bound + 3.0 * wilson_se(estimate)
                assert estimate.p_hat <= limit, (
                    f"pe={p_e} L={cap} N={n} {policy.value}: "
                    f"p_hat={estimate.p_hat:.3e} > bound+3se={limit:.3e}"
                )


def test_criterion_5_oracle_equivalence():
    with criterion(5, "closed-form moments match the convolution oracle", 5.0):
        for p_e in (0.0, 0.1, 0.4, 0.9):
            for cap in (1, 2, 5, 10):
                mean, variance = pmf_moments(poisson_demand_pmf(p_e, cap))
                summary = demand_summary(SystemParams(1, p_e, cap))
                assert summary.mean == pytest.approx(mean, rel=1e-6)
                assert summary.variance == pytest.approx(variance, rel=1e-6)
                bracket = (
                    (2 * cap - 1) * p_e ** (cap + 1) - (2 * cap + 1) * p_e**cap + p_e + 1.0
                ) / (1.0 - p_e) ** 2
                assert bracket == pytest.approx(AttemptLaw(p_e, cap).second_moment, abs=1e-10)


def _assert_pmf_normalization():
    for p_e in (0.0, 0.1, 0.4, 0.9, 0.99):
        for cap in (1, 2, 10, 37):
            total = sum(truncated_geometric_pmf(p_e, cap))
            assert total == pytest.approx(1.0, abs=1e-12)


def _assert_bound_monotone_with_floor():
    params = SystemParams(200, 0.4, 10)
    summary = demand_summary(params)
    previous = 1.0
    for capacity in range(0, 500, 10):
        value = failure_bound(capacity, summary, 0.4, 10)
        assert value <= previous + 1e-15
        assert value >= 0.4**10
        previous = value


def _assert_dimensioning_brackets():
    cases = [
        SystemParams(30_000, 0.1, 10),
        SystemParams(1_000, 0.4, 10),
        SystemParams(100, 0.5, 4, target_failure=0.1),
    ]
    for params in cases:
        capacity = dimension_capacity(params)
        summary = demand_summary(params)
        eps = params.target_failure
        assert failure_bound(capacity, summary, params.p_e, params.max_attempts) <= eps
        assert failure_bound(capacity - 1, summary, params.p_e, params.max_attempts) > eps
    with pytest.raises(InfeasibleTargetError):
        dimension_capacity(SystemParams(100, 0.4, 2, target_failure=1e-3))


def _assert_csv_determinism(tmp_path: Path):
    for args in (
        ["dimension"],
        ["validate-clt", "--runs", "2000", "--seed", "77"],
        ["sweep", "--sweep", "devices:1000:5000:1000"],
    ):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert cli_main([*args, "--out", str(first)]) == 0
        assert cli_main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def _assert_capacity_sufficiency():
    params = SystemParams(100, 0.4, 10)
    capacity = 120
    for i in range(3_000):
        result = simulate_interval(params, capacity, SchedulerPolicy.RANDOM_UNIFORM, RngStream(21, i))
        if result.common_demand <= capacity:
            assert result.unserved_failures == 0


GOLDEN_SWEEPS = [
    ("sweep_devices_qpsk_5mhz.csv", ["sweep", "--sweep", "devices:1000:30000:1000"]),
    (
        "sweep_devices_qam64_5mhz.csv",
        ["sweep", "--sweep", "devices:1000:30000:1000", "--modulation", "qam64"],
    ),
    (
        "sweep_report_bytes_qam64_5mhz.csv",
        ["sweep", "--sweep", "report-bytes:100:1000:100", "--modulation", "qam64"],
    ),
]


def _assert_golden_sweeps(tmp_path: Path):
    for name, args in GOLDEN_SWEEPS:
        regenerated = tmp_path / name
        assert cli_main([*args, "--out", str(regenerated)]) == 0
        golden = GOLDEN_DIR / name
        assert regenerated.read_bytes() == golden.read_bytes(), f"{name} drifted"
    devices = (GOLDEN_DIR / "sweep_devices_qpsk_5mhz.csv").read_text().strip().splitlines()
    fractions = [float(line.split(",")[8]) for line in devices[1:]]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(0.0897, abs=0.005)
    sizes = (GOLDEN_DIR / "sweep_report_bytes_qam64_5mhz.csv").read_text().strip().splitlines()
    assert float(sizes[-1].split(",")[8]) == pytest.approx(0.299, abs=0.015)


def test_criterion_6_property_suite(tmp_path):
    with criterion(6, "property suite and golden sweep curves", 120.0):
        _assert_pmf_normalization()
        _assert_bound_monotone_with_floor()
        _assert_dimensioning_brackets()
        _assert_csv_determinism(tmp_path)
        _assert_capacity_sufficiency()
        _assert_golden_sweeps(tmp_path)


# Seeded `simulate` at the overload point (N=1000, p_e=0.4, C=926: about 98% of
# intervals overflow, so both serving rules run), two blocks each.  The FIFO
# files were recorded under stream layout v4; the random ones under v6,
# whose leap moved them (CHANGES.md holds the layout's history).  A change of
# the layout must regenerate these files and say so; any other change that
# moves them changed what the engine draws or how it serves.
SIMULATE_GOLDENS = [
    (f"simulate_overload_{policy}_seed{seed}.csv",
     ["simulate", "--devices", "1000", "--pe", "0.4", "--capacity", "926", "--runs", "2000",
      "--policy", policy, "--seed", str(seed)])
    for policy in ("random", "fifo") for seed in (3, 17)
]


@pytest.mark.parametrize("name,args", SIMULATE_GOLDENS, ids=[name for name, _ in SIMULATE_GOLDENS])
def test_seeded_simulate_matches_golden(tmp_path, name, args):
    regenerated = tmp_path / name
    assert cli_main([*args, "--out", str(regenerated)]) == 0
    assert regenerated.read_bytes() == (GOLDEN_DIR / name).read_bytes(), f"{name} drifted"


# Seeded runs past the 64-step chain (p_e=0.97, L=100) whose blocks never
# overflow the pool: the draws past the chain come block by block in interval
# order (see "Stream layout v7: the draw order" in the README).  The simulate
# file, at a finite pool, keeps the bytes recorded under stream layout v4;
# the validate-clt one was recorded under v7, which draws each interval's
# reports as one row where no pool is served.
PAST_CHAIN_GOLDENS = [
    ("validate_clt_past_chain_seed3.csv",
     ["validate-clt", "--pe", "0.97", "--max-attempts", "100", "--runs", "3000", "--seed", "3"]),
    ("simulate_past_chain_ample_seed7.csv",
     ["simulate", "--devices", "100", "--pe", "0.97", "--max-attempts", "100", "--runs", "3000",
      "--capacity", "100000", "--seed", "7"]),
]


@pytest.mark.parametrize("name,args", PAST_CHAIN_GOLDENS, ids=[name for name, _ in PAST_CHAIN_GOLDENS])
def test_seeded_runs_past_the_chain_match_golden(tmp_path, name, args):
    regenerated = tmp_path / name
    assert cli_main([*args, "--out", str(regenerated)]) == 0
    assert regenerated.read_bytes() == (GOLDEN_DIR / name).read_bytes(), f"{name} drifted"


def test_seeded_validate_clt_at_both_p_e_matches_golden(tmp_path):
    # p_e = 0.1 and 0.4 share each block's arrival draw; three blocks, the
    # last one partial, recorded under stream layout v7 (each interval's
    # reports by outcome in one row; see "Stream layout v7: the draw order"
    # in the README)
    name = "validate_clt_two_pe_seed4.csv"
    regenerated = tmp_path / name
    assert cli_main(["validate-clt", "--runs", "2500", "--seed", "4", "--out", str(regenerated)]) == 0
    assert regenerated.read_bytes() == (GOLDEN_DIR / name).read_bytes(), f"{name} drifted"
