"""Tests for the Monte Carlo interval engine."""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest
from scipy import stats

from m2mpool import (
    DemandHistogram,
    IndeterminateEstimateError,
    OnePerRI,
    ParameterError,
    PoissonPerRI,
    RngStream,
    SchedulerPolicy,
    SystemParams,
    demand_summary,
    dimension_capacity,
    estimate_failure_prob,
    failure_bound,
    ks_distance,
    sample_demand,
    simulate_interval,
    wilson_interval,
)
from m2mpool.sim import (
    _INT64_MAX,
    Z95,
    _draw_block,
    _finish,
    _outcome_law,
    _report_count_law,
    _serve,
)

from oracles import (
    fifo_law,
    one_per_ri_demand_pmf,
    poisson_demand_pmf,
    random_law,
    serve_slots,
    truncated_geometric_pmf,
)


def exact_demand_law(device_pmf: dict[int, float], n_devices: int) -> np.ndarray:
    """pmf of R, the sum of n independent device demands, by n-fold convolution."""
    device = np.zeros(max(device_pmf) + 1)
    for value, prob in device_pmf.items():
        device[value] = prob
    law = np.ones(1)
    for _ in range(n_devices):
        law = np.convolve(law, device)
        law = law[: np.flatnonzero(law > 1e-30)[-1] + 1]  # drop the negligible upper tail
    return law


def pooled_chisquare_pvalue(hist: DemandHistogram, law: np.ndarray, least: float = 20.0) -> float:
    """Chi-square p-value of a demand histogram against a pmf, adjacent values
    pooled until each bin expects at least `least` counts."""
    size = max(law.size, hist.offset + hist.counts.size)
    observed = np.zeros(size)
    observed[hist.values] = hist.counts
    expected = np.zeros(size)
    expected[: law.size] = law * hist.runs / law.sum()
    bins_observed, bins_expected = [], []
    o = e = 0.0
    for oi, ei in zip(observed.tolist(), expected.tolist()):
        o, e = o + oi, e + ei
        if e >= least:
            bins_observed.append(o)
            bins_expected.append(e)
            o = e = 0.0
    bins_observed[-1] += o
    bins_expected[-1] += e
    return stats.chisquare(bins_observed, bins_expected).pvalue


class TestSampleDemand:
    def test_mean_and_variance_match_analytic(self):
        params = SystemParams(100, 0.1, 10)
        hist = sample_demand(params, 20_000, seed=101)
        summary = demand_summary(params)
        assert abs(hist.mean() - summary.mean) <= 3.0 * summary.std / math.sqrt(hist.runs)
        assert hist.variance() == pytest.approx(summary.variance, rel=0.05)

    def test_high_error_variance(self):
        params = SystemParams(100, 0.4, 10)
        hist = sample_demand(params, 20_000, seed=102)
        summary = demand_summary(params)
        assert abs(hist.mean() - summary.mean) <= 3.0 * summary.std / math.sqrt(hist.runs)
        assert hist.variance() == pytest.approx(summary.variance, rel=0.05)

    def test_non_unit_load_matches_analytic(self):
        params = SystemParams(100, 0.1, 10, PoissonPerRI(load=2.0))
        hist = sample_demand(params, 20_000, seed=104)
        summary = demand_summary(params)
        assert abs(hist.mean() - summary.mean) <= 3.0 * summary.std / math.sqrt(hist.runs)
        assert hist.variance() == pytest.approx(summary.variance, rel=0.05)

    def test_degenerate_concentrates_at_zero(self):
        hist = sample_demand(SystemParams(1, 0.0, 5, OnePerRI()), 200, seed=1)
        assert (hist.offset, hist.counts.tolist()) == (0, [200])

    def test_histogram_totals_runs(self):
        hist = sample_demand(SystemParams(10, 0.3, 4), 500, seed=7)
        assert hist.counts.sum() == hist.runs == 500
        assert hist.counts[0] > 0 and hist.counts[-1] > 0

    def test_rejects_zero_runs(self):
        with pytest.raises(ParameterError):
            sample_demand(SystemParams(10, 0.1, 5), 0, seed=1)

    @pytest.mark.parametrize(
        "arrival,p_e,cap,seed",
        [
            pytest.param(PoissonPerRI(), 0.1, 10, 110, id="load1-pe0.1"),
            pytest.param(PoissonPerRI(), 0.4, 10, 111, id="load1-pe0.4"),
            pytest.param(PoissonPerRI(load=2.0), 0.1, 10, 112, id="load2-pe0.1"),
            pytest.param(PoissonPerRI(load=2.0), 0.4, 10, 113, id="load2-pe0.4"),
            # L beyond the binomial chain: reports still in flight get per-report draws
            pytest.param(OnePerRI(), 0.97, 100, 114, id="one-per-ri-pe0.97-L100"),
        ],
    )
    def test_histogram_matches_exact_law(self, arrival, p_e, cap, seed):
        if isinstance(arrival, OnePerRI):
            device = one_per_ri_demand_pmf(p_e, cap)
        else:
            device = poisson_demand_pmf(p_e, cap, load=arrival.load)
        hist = sample_demand(SystemParams(100, p_e, cap, arrival), 100_000, seed=seed)
        law = exact_demand_law(device, 100)
        assert pooled_chisquare_pvalue(hist, law) > 0.001
        # the pooled chi-square is weak against a small shift; the mean is not
        values = np.arange(law.size)
        mean = values @ law / law.sum()
        std = math.sqrt((values - mean) ** 2 @ law / law.sum())
        assert abs(hist.mean() - mean) <= 5.0 * std / math.sqrt(hist.runs)


class RecordingGenerator:
    """A Generator that records the name of every method called on it."""

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self.calls: list[str] = []

    def __getattr__(self, name: str):
        method = getattr(self.gen, name)

        def record(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return record


def by_category(gen, counts, law, size=None) -> np.ndarray:
    """A multinomial draw over the categories of one of the engine's laws, as
    `_draw_block` makes it, put back in category order."""
    pmf, back = law
    return gen.multinomial(counts, pmf, size)[..., back]


def attempt_counts(gen, p_e: float, cap: int, first: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """Reports by attempt count (index 1..cap) as `_draw_block` draws them:
    one multinomial over the outcomes, then per-report draws past the chain."""
    steps = min(cap, 64)
    outcomes = by_category(gen, np.stack([first, excess]), _outcome_law(p_e, steps)).sum(axis=(0, 1))
    counts = np.zeros(cap + 1, dtype=np.int64)
    counts[1 : steps + 1] = outcomes[:steps]
    if cap == steps:
        counts[cap] += outcomes[steps]  # exhausted at the retry limit
    else:
        more, _ = _finish(gen, p_e, int(outcomes[steps]), cap - steps)
        np.add.at(counts, steps + more, 1)
    return counts


class TestBlockDraws:
    """The two multinomial draws of a block against the laws they stand for."""

    @pytest.mark.parametrize("load,seed", [(1.0, 500), (1000.0, 501)])
    def test_devices_by_report_count_are_poisson(self, load, seed):
        devices = by_category(RngStream(seed, 0).generator, 1000, _report_count_law(load), 1000)
        totals = devices.sum(axis=0)
        assert totals.sum() == 10**6
        law = stats.poisson.pmf(np.arange(totals.size), load)
        assert pooled_chisquare_pvalue(DemandHistogram(totals), law) > 0.001
        mean = np.arange(totals.size) @ totals / 10**6
        assert abs(mean - load) <= 5.0 * math.sqrt(load / 10**6)

    @pytest.mark.parametrize("p_e,cap,seed", [(0.4, 10, 502), (0.1, 10, 503), (0.97, 100, 504)])
    def test_reports_by_attempt_count_are_truncated_geometric(self, p_e, cap, seed):
        # at L = 100 the 14% of reports that fail all 64 attempts drawn as
        # counts finish by per-report draws
        gen = RngStream(seed, 0).generator
        first, excess = gen.integers(0, 200, 1000), gen.integers(0, 100, 1000)
        counts = attempt_counts(gen, p_e, cap, first, excess)
        assert counts.sum() == first.sum() + excess.sum()
        law = np.array([0.0, *truncated_geometric_pmf(p_e, cap)])
        assert pooled_chisquare_pvalue(DemandHistogram(counts), law) > 0.001

    @pytest.mark.parametrize("load", [0.05, 1.0, 40.0])
    def test_report_count_table_keeps_its_right_cut_only_at_low_loads(self, load):
        # e^-load >= 1e-19 up to load 43.7: nothing is cut on the left
        k = np.arange(int(2 * load) + 41)
        pmf = np.exp(k * math.log(load) - load - np.append(0.0, np.log(k[1:]).cumsum()))
        pmf = pmf[np.cumsum(pmf[::-1])[::-1] > 1e-19]
        order = np.argsort(-pmf, kind="stable")
        after = np.cumsum(pmf[order][::-1])[::-1]
        head = np.count_nonzero(after[1:] > 1e-3)
        order = np.concatenate([order[:head], order[head:][::-1]])
        drawn, back = _report_count_law(load)
        assert np.array_equal(drawn, (pmf / pmf.sum())[order])
        assert np.array_equal(back, np.argsort(order))

    @pytest.mark.parametrize("load,counts", [(50.0, 125), (1000.0, 570)])
    def test_report_count_table_cuts_both_tails_below_1e_19(self, load, counts):
        drawn, back = _report_count_law(load)
        # one zero category stands for every count below the first kept one
        assert drawn.size == counts + 1
        assert drawn[0] == 0.0
        law = drawn[back]
        first, last = np.flatnonzero(law)[[0, -1]]
        assert last == law.size - 1 and last - first + 1 == counts
        assert np.all(law[:first] == 0.0)
        assert stats.poisson.cdf(first - 1, load) < 1e-19 <= stats.poisson.cdf(first, load)
        assert stats.poisson.sf(last, load) < 1e-19 <= stats.poisson.sf(last - 1, load)
        assert law.sum() == pytest.approx(1.0, abs=1e-15)
        devices = by_category(RngStream(507, 0).generator, 10**6, (drawn, back), 100)
        assert not devices[:, :first].any()

    def test_deep_tail_keeps_the_law(self):
        # numpy forms each category's conditional probability against
        # 1 - (the earlier ones) by subtraction; drawn largest first, that
        # remainder falls to its own rounding error by attempt 17 at
        # p_e = 0.1, which then comes 26% short and 18 never comes
        n, p_e, rows = 10**15, 0.1, 200_000
        outcomes = by_category(RngStream(505, 0).generator, np.full(rows, n), _outcome_law(p_e, 20))
        for attempt in range(14, 19):
            expected = rows * n * p_e ** (attempt - 1) * (1.0 - p_e)
            assert abs(outcomes[:, attempt - 1].sum() - expected) <= 5.0 * math.sqrt(expected), attempt

    @pytest.mark.parametrize("arrival", [PoissonPerRI(), PoissonPerRI(0.05), PoissonPerRI(1000.0), OnePerRI()])
    @pytest.mark.parametrize("n_devices", [1, 30_000, 10**12])
    @pytest.mark.parametrize("cap", [1, 10, 64])
    def test_a_block_takes_a_fixed_number_of_draw_calls(self, arrival, n_devices, cap):
        # one multinomial for the devices, one for the reports, whatever the
        # counts: a per-step chain of draws fails this
        gen = RecordingGenerator(RngStream(506, cap).generator)
        _draw_block(gen, SystemParams(n_devices, 0.4, cap, arrival), 50, _INT64_MAX,
                    SchedulerPolicy.RANDOM_UNIFORM)
        assert gen.calls == ["multinomial", "multinomial"]


class TestKsDistance:
    def test_gaussian_self_consistency(self):
        mean, std = 500.0, 30.0
        draws = np.rint(RngStream(9, 0).generator.normal(mean, std, 1_000_000)).astype(int)
        low = int(draws.min())
        hist = DemandHistogram(np.bincount(draws - low), low)
        from m2mpool import DemandSummary

        assert ks_distance(hist, DemandSummary(mean, std**2)) < 0.005

    def test_fig_scale_match(self):
        params = SystemParams(100, 0.4, 10)
        hist = sample_demand(params, 20_000, seed=103)
        assert ks_distance(hist, demand_summary(params)) <= 0.03

    def test_single_run_is_bounded(self):
        hist = sample_demand(SystemParams(10, 0.1, 5), 1, seed=4)
        assert 0.0 <= ks_distance(hist, demand_summary(SystemParams(10, 0.1, 5))) <= 1.0

    def test_rejects_zero_variance(self):
        from m2mpool import DemandSummary

        hist = DemandHistogram(np.array([5]))
        with pytest.raises(ParameterError):
            ks_distance(hist, DemandSummary(0.0, 0.0))


class TestSimulateInterval:
    def test_error_free_never_fails(self):
        for i in range(50):
            result = simulate_interval(
                SystemParams(200, 0.0, 5), 10_000, SchedulerPolicy.RANDOM_UNIFORM, RngStream(11, i)
            )
            assert result.failures == 0
            assert result.unserved_failures == 0

    def test_no_shared_pool_fails_on_first_error(self):
        # single preallocated attempt, failure probability 0.5, nothing to retry with
        params = SystemParams(100, 0.5, 2, OnePerRI())
        total = failed = 0
        for i in range(2_000):
            result = simulate_interval(params, 0, SchedulerPolicy.RANDOM_UNIFORM, RngStream(12, i))
            total += result.reports
            failed += result.failures
        p_hat = failed / total
        assert abs(p_hat - 0.5) <= 3.0 * math.sqrt(0.25 / total)

    def test_capacity_sufficiency(self):
        # whenever the realized demand fits the pool, the only failures are
        # reports that burned every attempt
        params = SystemParams(100, 0.4, 10)
        capacity = 120
        saw_both_sides = set()
        for i in range(3_000):
            result = simulate_interval(params, capacity, SchedulerPolicy.RANDOM_UNIFORM, RngStream(13, i))
            if result.common_demand <= capacity:
                assert result.unserved_failures == 0
                saw_both_sides.add("fits")
            else:
                saw_both_sides.add("overflows")
                assert result.unserved_failures >= 1
        assert saw_both_sides == {"fits", "overflows"}

    def test_attempt_distribution_through_the_engine(self):
        # with one device and one report, demand + 1 is the report's attempt
        # count; over 10^6 batched intervals it must follow the truncated geometric
        p_e, cap = 0.4, 8
        params = SystemParams(1, p_e, cap, OnePerRI())
        hist = sample_demand(params, 1_000_000, seed=14)
        counts = np.zeros(cap + 1, dtype=np.int64)
        counts[hist.values + 1] = hist.counts
        expected = np.array(truncated_geometric_pmf(p_e, cap)) * counts.sum()
        assert stats.chisquare(counts[1:], expected).pvalue > 0.001

    def test_bound_holds_at_dimensioned_capacity(self):
        params = SystemParams(100, 0.1, 10)
        capacity = dimension_capacity(params)
        estimate = estimate_failure_prob(params, capacity, SchedulerPolicy.RANDOM_UNIFORM, 20_000, seed=15)
        bound = failure_bound(capacity, demand_summary(params), params.p_e, params.max_attempts)
        se = (estimate.ci_high - estimate.ci_low) / (2.0 * Z95)
        assert estimate.p_hat <= bound + 3.0 * se

    def test_rejects_negative_capacity(self):
        with pytest.raises(ParameterError):
            simulate_interval(SystemParams(10, 0.1, 5), -1, SchedulerPolicy.FIFO, RngStream(1, 0))


class TestEstimateFailureProb:
    def test_error_free_estimate_is_zero(self):
        estimate = estimate_failure_prob(
            SystemParams(50, 0.0, 5), 10_000, SchedulerPolicy.RANDOM_UNIFORM, 200, seed=16
        )
        assert estimate.p_hat == 0.0
        assert estimate.ci_low == 0.0

    def test_deterministic_replay(self):
        params = SystemParams(100, 0.4, 10)
        first = estimate_failure_prob(params, 100, SchedulerPolicy.FIFO, 2_000, seed=17)
        second = estimate_failure_prob(params, 100, SchedulerPolicy.FIFO, 2_000, seed=17)
        assert first == second

    def test_policies_share_the_bound(self):
        params = SystemParams(100, 0.4, 10)
        capacity = dimension_capacity(params)
        bound = failure_bound(capacity, demand_summary(params), params.p_e, params.max_attempts)
        for policy in SchedulerPolicy:
            estimate = estimate_failure_prob(params, capacity, policy, 20_000, seed=18)
            se = (estimate.ci_high - estimate.ci_low) / (2.0 * Z95)
            assert estimate.p_hat <= bound + 3.0 * se

    def test_failures_non_increasing_in_capacity(self):
        params = SystemParams(100, 0.4, 10)
        grid = [0, 60, 100, 140, 200]
        estimates = [
            estimate_failure_prob(params, c, SchedulerPolicy.RANDOM_UNIFORM, 3_000, seed=19)
            for c in grid
        ]
        for lo, hi in zip(estimates[1:], estimates[:-1]):
            fuzz = 3.0 * ((hi.ci_high - hi.ci_low) + (lo.ci_high - lo.ci_low)) / (2.0 * Z95)
            assert lo.p_hat <= hi.p_hat + fuzz

    def test_indeterminate_without_reports(self):
        # the single device reports with probability 1 - e^-1e-13 < 1e-12,
        # so no stream layout draws a report
        with pytest.raises(IndeterminateEstimateError):
            estimate_failure_prob(
                SystemParams(1, 0.1, 5, PoissonPerRI(load=1e-13)), 10, SchedulerPolicy.FIFO, 1, seed=9
            )

    # at L=65 a report still in flight after the binomial chain has exactly one attempt left
    @pytest.mark.parametrize("p_e,cap,seed", [(0.5, 4, 115), (0.95, 65, 116)])
    def test_ample_capacity_fails_at_the_retry_limit(self, p_e, cap, seed):
        # no interval overflows, so each report fails independently with p_e^L
        estimate = estimate_failure_prob(
            SystemParams(100, p_e, cap), 10**9, SchedulerPolicy.RANDOM_UNIFORM, 20_000, seed=seed
        )
        floor = p_e**cap
        se = math.sqrt(floor * (1.0 - floor) / estimate.reports_total)
        assert abs(estimate.p_hat - floor) <= 5.0 * se

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_overloaded_pool_matches_reference(self, policy):
        # N=1000, p_e=0.4, L=10, C=926 (mu - 2 sigma): about 98% of intervals
        # overflow.  Reference p_hat from 1000 commands of 100 intervals each
        # under the per-device engine, with the sd of one command's p_hat.
        reference, sd_command, commands = 0.06547, 0.00293, 1_000
        intervals = 5_000
        estimate = estimate_failure_prob(SystemParams(1000, 0.4, 10), 926, policy, intervals, seed=117)
        se = sd_command * math.sqrt(100 / intervals + 1 / commands)
        assert abs(estimate.p_hat - reference) <= 5.0 * se

    def test_rejects_zero_intervals(self):
        with pytest.raises(ParameterError):
            estimate_failure_prob(SystemParams(10, 0.1, 5), 10, SchedulerPolicy.FIFO, 0, seed=1)


def class_table(reports: list[tuple[int, bool]], columns: int = 1):
    """Class table (pending, flags, counts) of per-report (pending, flag) pairs, repeated over columns."""
    classes = collections.Counter(reports)
    keys = sorted(classes)
    return (
        np.array([p for p, _ in keys], dtype=np.int64),
        np.array([f for _, f in keys], dtype=bool),
        np.array([[classes[k]] * columns for k in keys], dtype=np.int64).reshape(len(keys), columns),
    )


def law_pvalue(outcomes, law: dict[tuple[int, int], float]) -> float:
    """Chi-square p-value of observed (failures, unserved) pairs against an
    exact law; outcomes expecting fewer than 5 draws share one bin, which is
    folded into the smallest other bin if it still expects fewer than 5."""
    observed = collections.Counter(outcomes)
    assert set(observed) <= {k for k, p in law.items() if p > 0}, "an outcome the law rules out"
    n = sum(observed.values())
    keys = sorted(law, key=law.get, reverse=True)
    big = [k for k in keys if law[k] * n >= 5]
    bins_observed = [observed[k] for k in big]
    bins_expected = [law[k] * n for k in big]
    rest_observed, rest_expected = n - sum(bins_observed), n - sum(bins_expected)
    if rest_expected >= 5:
        bins_observed.append(rest_observed)
        bins_expected.append(rest_expected)
    elif bins_observed:
        bins_observed[-1] += rest_observed
        bins_expected[-1] += rest_expected
    if len(bins_observed) < 2:
        return 1.0  # one outcome carries the law; the support check above decides
    return stats.chisquare(bins_observed, bins_expected).pvalue


# (first reports, excess reports, capacities): each report is (pool slots
# needed, retry-limit flag); a first report needing 0 slots was done after
# its preallocated slot
SERVING_CASES = [
    ([(1, False), (2, False), (3, False)], [(1, False), (2, False)], [2, 4, 6]),
    ([(0, True), (2, False), (2, True), (1, False)], [(2, False), (3, True)], [1, 6, 8]),
    ([], [(1, False), (1, True), (2, False), (2, True), (3, False), (1, False)], [2, 3, 7]),
    ([(2, False), (2, False), (2, True), (3, False), (1, True), (0, False)], [], [4, 7]),
    ([(1, False), (2, False), (2, True), (3, True)], [(2, False), (3, False)], [7, 10]),
    ([(0, True), (2, False), (2, True), (3, False)], [(2, False), (2, True), (4, False)], [7, 11]),
    ([(3, False), (3, True)], [(3, False), (3, True), (1, False)], [3, 12]),
    # reports needing more slots than the pool holds
    ([(5, False), (1, False), (2, True)], [(4, True), (1, False)], [2, 4]),
]
SERVING_PARAMS = [
    pytest.param(first, excess, capacity, 200 + 10 * i + capacity, id=f"case{i}-C{capacity}")
    for i, (first, excess, capacities) in enumerate(SERVING_CASES)
    for capacity in capacities
]
DRAWS = 10_000


def exact_law(policy: SchedulerPolicy, first, excess, capacity):
    if policy is SchedulerPolicy.FIFO:
        return fifo_law(first, excess, capacity)
    return random_law(first + excess, capacity)


class TestServingRules:
    """The closed-form serving rules against the exact law of the slot-by-slot pool."""

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    @pytest.mark.parametrize("first,excess,capacity,seed", SERVING_PARAMS)
    def test_closed_form_follows_the_exact_law(self, policy, first, excess, capacity, seed):
        failures, unserved = _serve(
            RngStream(seed, 0 if policy is SchedulerPolicy.FIFO else 1).generator,
            class_table(first, DRAWS), class_table(excess, DRAWS), capacity, policy,
        )
        law = exact_law(policy, first, excess, capacity)
        assert law_pvalue(zip(failures.tolist(), unserved.tolist()), law) > 0.001

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    @pytest.mark.parametrize("first,excess,capacity,seed", SERVING_PARAMS[::3])
    def test_slot_loop_follows_the_exact_law(self, policy, first, excess, capacity, seed):
        # ties the enumeration and the recursion to the slot-by-slot reference
        gen = RngStream(seed, 2).generator
        outcomes = []
        for _ in range(DRAWS):
            if policy is SchedulerPolicy.FIFO:
                queue = [first[i] for i in gen.permutation(len(first))]
                queue += [excess[i] for i in gen.permutation(len(excess))]
            else:
                queue = first + excess
            outcomes.append(serve_slots([p for p, _ in queue], [f for _, f in queue],
                                        capacity, policy.value, gen))
        assert law_pvalue(outcomes, exact_law(policy, first, excess, capacity)) > 0.001

    @pytest.mark.parametrize("kind", ["first", "excess"])
    def test_fifo_leaves_the_round_robin_remainder(self, kind):
        # n reports needing r slots each: C // n full rounds, then C % n of
        # them get one more slot, which completes them only if r = C // n + 1
        gen = RngStream(301, 0).generator
        for n in range(1, 8):
            for r in range(1, 6):
                table, empty = class_table([(r, False)] * n), class_table([])
                tables = (table, empty) if kind == "first" else (empty, table)
                for capacity in range(n * r):
                    expected = n - capacity % n if capacity // n == r - 1 else n
                    failures, unserved = _serve(gen, *tables, capacity, SchedulerPolicy.FIFO)
                    assert (failures.tolist(), unserved.tolist()) == ([expected], [expected])
                    assert serve_slots([r] * n, [False] * n, capacity, "fifo") == (expected, expected)

    def test_tied_clocks_serve_exactly_capacity_rings(self):
        # clocks that all tick 1 apart ring in rounds: ring k of every report
        # ties at time k, so exactly `capacity` rings leave the round robin count
        class TiedClocks:
            def standard_exponential(self, size):
                return np.ones(size)

        cases = [(n, r, capacity) for n in range(1, 6) for r in range(1, 5) for capacity in range(n * r)]
        # long reports, most of them needing more rings than the pool has slots
        cases += [(3, 300, capacity) for capacity in (0, 1, 598, 599, 600, 601, 897, 898, 899)]
        for n, r, capacity in cases:
            expected = n - capacity % n if capacity // n == r - 1 else n
            _, unserved = _serve(TiedClocks(), class_table([(r, False)] * n, 3), class_table([], 3),
                                 capacity, SchedulerPolicy.RANDOM_UNIFORM)
            assert unserved.tolist() == [expected] * 3

    def test_tied_rings_of_one_report(self):
        # report A rings twice at time 2 (its second clock step is 0), B once
        # at 2, and two more reports once at 1; three slots serve two of the
        # three rings at time 2, so A completes only if both of its own do
        class Clocks:
            def standard_exponential(self, size):
                return np.array([2.0, 0.0, 2.0, 1.0, 1.0])

        table = (np.array([2, 1, 1]), np.array([False, True, False]), np.array([[1], [1], [2]]))
        failures, unserved = _serve(Clocks(), table, class_table([]), 3, SchedulerPolicy.RANDOM_UNIFORM)
        # B (flagged) fails either way; A fails unless both its rings are served
        assert (failures.tolist(), unserved.tolist()) in [([2], [1]), ([2], [2])]

    @pytest.mark.parametrize("policy,reports", [
        (SchedulerPolicy.RANDOM_UNIFORM, 3),  # 3 * 2**22 rings
        (SchedulerPolicy.FIFO, 10**9),  # beyond numpy's hypergeometric
    ])
    def test_oversized_interval_is_refused_before_drawing(self, policy, reports):
        capacity = 2**22 if policy is SchedulerPolicy.RANDOM_UNIFORM else 10**9
        table = (np.array([2**22]), np.array([False]), np.array([[reports]]))
        with pytest.raises(ParameterError, match="an overflowing interval"):
            _serve(None, table, class_table([]), capacity, policy)


class TestOverflowBeyondTheChain:
    """Overflowing intervals whose reports outlast the binomial chain are served
    one at a time, after per-report draws; the slot loop over directly drawn
    attempt counts is the reference."""

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_engine_matches_the_slot_loop(self, policy):
        n_devices, p_e, cap, capacity, intervals = 20, 0.97, 100, 500, 2_000
        gen = RngStream(400, 0).generator
        failures = []
        for _ in range(intervals):
            trials = gen.geometric(1.0 - p_e, n_devices)  # attempts up to the first success
            pending = (np.minimum(trials, cap) - 1).tolist()
            failures.append(serve_slots(pending, (trials > cap).tolist(), capacity, policy.value, gen)[0])
        reference = np.mean(failures) / n_devices
        estimate = estimate_failure_prob(
            SystemParams(n_devices, p_e, cap, OnePerRI()), capacity, policy, intervals, seed=401
        )
        se = np.std(failures) / n_devices * math.sqrt(2.0 / intervals)
        assert 0.05 < reference < 0.95  # the pool, not the retry limit, decides most failures
        assert abs(estimate.p_hat - reference) <= 5.0 * se


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for failed, total in [(0, 100), (1, 100), (50, 100), (100, 100), (3, 10_000)]:
            low, high = wilson_interval(failed, total)
            assert 0.0 <= low <= failed / total <= high <= 1.0

    def test_zero_count_interval_is_open_above(self):
        low, high = wilson_interval(0, 1_000)
        assert low == 0.0
        assert high > 0.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            wilson_interval(5, 4)
        with pytest.raises(ParameterError):
            wilson_interval(-1, 10)
