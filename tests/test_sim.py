"""Tests for the Monte Carlo interval engine."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from m2mpool import sim
from m2mpool.analytic import (
    AttemptLaw,
    DemandSummary,
    OnePerRI,
    PoissonPerRI,
    SystemParams,
    demand_summary,
    dimension_capacity,
    failure_bound,
    gaussian_cdf,
)
from m2mpool.cli import main as cli_main
from m2mpool.errors import IndeterminateEstimateError, ParameterError
from m2mpool.numerics import RngStream
from m2mpool.sim import (
    _INT64_MAX,
    _RING_GROUP,
    Z95,
    DemandHistogram,
    SchedulerPolicy,
    _add_demands,
    _draw_arrivals,
    _draw_outcomes,
    _outcome_law,
    _random_unserved,
    _report_count_law,
    _ring_finish,
    _serve,
    estimate_failure_prob,
    ks_distance,
    sample_demand,
    simulate_interval,
    wilson_interval,
)

from oracles import (
    depth_first_law,
    fifo_law,
    one_per_ri_demand_pmf,
    poisson_demand_pmf,
    random_law,
    random_unserved_reference,
    serve_slots,
    truncated_geometric_pmf,
)


def draw_block(gen, params: SystemParams, size: int, capacity: int, policy: SchedulerPolicy):
    """Reports, failures and demand of `size` intervals drawn from `gen`."""
    return _draw_outcomes(gen, params, *_draw_arrivals(gen, params, size), capacity, policy)


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
        [hist] = sample_demand([params], 20_000, seed=101)
        summary = demand_summary(params)
        assert abs(hist.mean() - summary.mean) <= 3.0 * summary.std / math.sqrt(hist.runs)
        assert hist.variance() == pytest.approx(summary.variance, rel=0.05)

    def test_high_error_variance(self):
        params = SystemParams(100, 0.4, 10)
        [hist] = sample_demand([params], 20_000, seed=102)
        summary = demand_summary(params)
        assert abs(hist.mean() - summary.mean) <= 3.0 * summary.std / math.sqrt(hist.runs)
        assert hist.variance() == pytest.approx(summary.variance, rel=0.05)

    def test_non_unit_load_matches_analytic(self):
        params = SystemParams(100, 0.1, 10, PoissonPerRI(load=2.0))
        [hist] = sample_demand([params], 20_000, seed=104)
        summary = demand_summary(params)
        assert abs(hist.mean() - summary.mean) <= 3.0 * summary.std / math.sqrt(hist.runs)
        assert hist.variance() == pytest.approx(summary.variance, rel=0.05)

    def test_degenerate_concentrates_at_zero(self):
        [hist] = sample_demand([SystemParams(1, 0.0, 5, OnePerRI())], 200, seed=1)
        assert (hist.offset, hist.counts.tolist()) == (0, [200])

    def test_histogram_totals_runs(self):
        [hist] = sample_demand([SystemParams(10, 0.3, 4)], 500, seed=7)
        assert hist.counts.sum() == hist.runs == 500
        assert hist.counts[0] > 0 and hist.counts[-1] > 0

    def test_rejects_zero_runs(self):
        with pytest.raises(ParameterError):
            sample_demand([SystemParams(10, 0.1, 5)], 0, seed=1)

    @pytest.mark.parametrize("counts, mean, variance", [
        ([10**4], 10**15, 0.0),
        ([3000, 0, 1000, 6000], 10**15 + 2, 18_000 / 9_999),
    ])
    def test_moments_of_a_far_offset_do_not_wrap(self, counts, mean, variance):
        # offset x runs passes 2**63, which a sum in int64 wraps (to a mean of -844674407370955.1 here)
        hist = DemandHistogram(np.array(counts), offset=10**15)
        assert hist.mean() == mean
        assert hist.variance() == variance

    @pytest.mark.parametrize("arrival", [PoissonPerRI(50.0), OnePerRI()], ids=["load50", "one-per-ri"])
    @pytest.mark.parametrize("cap", [10, 100])
    @pytest.mark.parametrize("runs", [1, 1000, 2500])
    def test_shared_arrivals_give_each_p_e_its_own_histogram(self, arrival, cap, runs):
        # 2500 runs end in a partial block; at L = 100 and p_e = 0.97 about
        # 14% of the reports outlast the chain
        params = [SystemParams(20, p_e, cap, arrival) for p_e in (0.4, 0.97)]
        shared = sample_demand(params, runs, seed=21)
        for entry, hist in zip(params, shared):
            [alone] = sample_demand([entry], runs, seed=21)
            # every block's demands, from its own stream, histogrammed at once
            demands = np.concatenate([
                draw_block(RngStream(21, k).generator, entry, min(1000, runs - start),
                           _INT64_MAX, SchedulerPolicy.RANDOM_UNIFORM)[2]
                for k, start in enumerate(range(0, runs, 1000))
            ])
            low = int(demands.min())
            for got in (hist, alone):
                assert got.offset == low
                assert np.array_equal(got.counts, np.bincount(demands - low))

    @pytest.mark.parametrize("other", [SystemParams(21, 0.4, 10), SystemParams(20, 0.4, 10, OnePerRI()),
                                       SystemParams(20, 0.4, 10, PoissonPerRI(2.0))],
                             ids=["devices", "model", "load"])
    def test_rejects_parameter_sets_that_cannot_share_arrivals(self, other):
        with pytest.raises(ParameterError, match="same devices and arrival model"):
            sample_demand([SystemParams(20, 0.1, 10), other], 10, seed=1)

    def test_rejects_no_parameter_set(self):
        with pytest.raises(ParameterError):
            sample_demand([], 10, seed=1)

    def test_memory_grows_with_the_width_not_the_runs(self):
        # 200 blocks: every demand kept until the end took 16 B a run, 3.2 MB
        params = [SystemParams(100, p_e, 10) for p_e in (0.1, 0.4)]
        tracemalloc.start()
        try:
            hists = sample_demand(params, 200_000, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [hist.runs for hist in hists] == [200_000, 200_000]
        assert peak <= 2**20

    def test_width_limit_counts_every_block(self, monkeypatch):
        # a limit of the histogram's own width passes, one less refuses
        params = SystemParams(100, 0.4, 10)
        [hist] = sample_demand([params], 3000, seed=1)
        monkeypatch.setattr(sim, "MAX_HISTOGRAM_WIDTH", hist.counts.size)
        assert np.array_equal(sample_demand([params], 3000, seed=1)[0].counts, hist.counts)
        monkeypatch.setattr(sim, "MAX_HISTOGRAM_WIDTH", hist.counts.size - 1)
        with pytest.raises(ParameterError, match=f"^sampled demand at p_e=0.4 spans {hist.counts.size} values"):
            sample_demand([params], 3000, seed=1)
        # two blocks, each narrower than the limit, whose union is wider, on either side
        monkeypatch.setattr(sim, "MAX_HISTOGRAM_WIDTH", 10)
        low, counts = _add_demands(0, np.zeros(0, dtype=np.int64), np.array([100, 106, 103]), 0.4)
        assert (low, counts.tolist()) == (100, [1, 0, 0, 1, 0, 0, 1])
        for block in (np.array([109, 104]), np.array([97, 98])):
            assert _add_demands(low, counts.copy(), block, 0.4)[1].size == 10
        for block in (np.array([110, 104]), np.array([96, 98])):
            with pytest.raises(ParameterError, match="^sampled demand at p_e=0.4 spans 11 values"):
                _add_demands(low, counts.copy(), block, 0.4)

    def test_draws_each_block_of_arrivals_once(self, monkeypatch):
        # one arrival multinomial per block (3 at 2500 runs), then one
        # outcome multinomial per block and p_e (6), and no other draw
        streams: list[RecordingGenerator] = []

        def recording_stream(seed, index):
            streams.append(RecordingGenerator(RngStream(seed, index).generator))
            return collections.namedtuple("Stream", "generator")(streams[-1])

        monkeypatch.setattr(sim, "RngStream", recording_stream)
        params = [SystemParams(100, p_e, 10) for p_e in (0.1, 0.4)]
        sample_demand(params, 2500, seed=4)
        assert len(streams) == 3
        for gen, size in zip(streams, (1000, 1000, 500)):
            assert gen.calls == ["multinomial"] * 3
            # the device count is a scalar; a pool never served draws each
            # interval's reports, first and excess alike, as one row
            assert [np.shape(args[0]) for args in gen.args] == [(), (1, size), (1, size)]
        streams.clear()
        # a finite pool (here never exceeded) draws first and excess reports as two rows
        estimate_failure_prob(params[0], 10**6, SchedulerPolicy.RANDOM_UNIFORM, 2500, seed=4)
        assert [[np.shape(args[0]) for args in gen.args] for gen in streams] == [
            [(), (2, size)] for size in (1000, 1000, 500)]

    # alpha = 1e-6 for each of the three histograms: a correct sampler fails
    # one at about three seeds in a million
    @pytest.mark.parametrize("p_e_values, cap, seed", [
        pytest.param((0.1, 0.4), 10, 120, id="both-pe-L10"),
        # about 14% of the reports outlast the chain, each drawn alone
        pytest.param((0.97,), 100, 121, id="pe0.97-L100"),
    ])
    def test_one_row_draw_keeps_the_exact_law(self, p_e_values, cap, seed):
        # at N = 5 and load 1 a quarter of the devices send excess reports
        params = [SystemParams(5, p_e, cap) for p_e in p_e_values]
        for p_e, hist in zip(p_e_values, sample_demand(params, 100_000, seed=seed)):
            law = exact_demand_law(poisson_demand_pmf(p_e, cap), 5)
            assert pooled_chisquare_pvalue(hist, law) > 1e-6, p_e

    def test_a_load_past_the_table_cut_with_l_past_the_chain_keeps_the_exact_law(self):
        # a Poisson load above 43.7 drops the zero count from the report-count
        # table, and at L = 70 about 0.1% of the reports outlast the 64-step
        # chain.  The exact law: per report count u, the u-fold convolution of
        # the attempt pmf, less the preallocated attempt.  One chi-square at
        # alpha = 1e-6 over bins pooled to expect at least 5, and the mean
        # within 5 SE (about 6e-7): a correct sampler fails at about 1.6
        # seeds in a million
        load, p_e, cap, runs = 45.0, 0.9, 70, 100_000
        attempts = np.append(0.0, truncated_geometric_pmf(p_e, cap))
        law, total = np.zeros(1), np.ones(1)
        for u in range(1, 200):
            total = np.convolve(total, attempts)
            weight = math.exp(u * math.log(load) - load - math.lgamma(u + 1))
            law = np.pad(law, (0, total.size - 1 - law.size)) + weight * total[1:]
        [hist] = sample_demand([SystemParams(1, p_e, cap, PoissonPerRI(load))], runs, seed=122)
        assert pooled_chisquare_pvalue(hist, law, least=5.0) > 1e-6
        # the pooled chi-square is weak against a small shift; the mean is not
        values = np.arange(law.size)
        mean = values @ law
        assert abs(hist.mean() - mean) <= 5.0 * math.sqrt((values - mean) ** 2 @ law / hist.runs)

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
        [hist] = sample_demand([SystemParams(100, p_e, cap, arrival)], 100_000, seed=seed)
        law = exact_demand_law(device, 100)
        assert pooled_chisquare_pvalue(hist, law) > 0.001
        # the pooled chi-square is weak against a small shift; the mean is not
        values = np.arange(law.size)
        mean = values @ law / law.sum()
        std = math.sqrt((values - mean) ** 2 @ law / law.sum())
        assert abs(hist.mean() - mean) <= 5.0 * std / math.sqrt(hist.runs)


class RecordingGenerator:
    """A Generator that records the name of every method called on it, and
    how many variates each call returned."""

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self.calls: list[str] = []
        self.args: list[tuple] = []
        self.sizes: list[int] = []

    def __getattr__(self, name: str):
        method = getattr(self.gen, name)
        if not callable(method):
            return method  # the bit generator, whose state a caller may save and restore

        def record(*args, **kwargs):
            self.calls.append(name)
            self.args.append(args)
            result = method(*args, **kwargs)
            self.sizes.append(int(np.size(result)))
            return result

        return record


def by_category(gen, counts, law, size=None) -> np.ndarray:
    """A multinomial draw over the categories of one of the engine's laws, as
    `draw_block` makes it, put back in category order."""
    pmf, back = law
    return gen.multinomial(counts, pmf, size)[..., back]


def attempt_counts(gen, p_e: float, cap: int, first: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """Reports by attempt count (index 1..cap) as `draw_block` draws them:
    one multinomial over the outcomes, then per-report draws past the chain."""
    steps = min(cap, 64)
    outcomes = by_category(gen, np.stack([first, excess]), _outcome_law(AttemptLaw(p_e, steps))).sum(axis=(0, 1))
    counts = np.zeros(cap + 1, dtype=np.int64)
    counts[1 : steps + 1] = outcomes[:steps]
    if cap == steps:
        counts[cap] += outcomes[steps]  # exhausted at the retry limit
    else:
        fails = sim.leading_failure_counts(gen, p_e, int(outcomes[steps]))
        np.add.at(counts, steps + np.minimum(fails + 1, cap - steps), 1)
    return counts


BLOCK_DRAW_CASES = [
    pytest.param(SystemParams(n_devices, 0.4, cap, arrival), ["multinomial", "multinomial"],
                 id=f"{cap}-{n_devices}-arrival{index}")
    for index, arrival in enumerate([PoissonPerRI(), PoissonPerRI(0.05), PoissonPerRI(1000.0), OnePerRI()])
    for n_devices in (1, 30_000, 10**12)
    for cap in (1, 10, 64)
]
# about 2.8 of the 20 reports an interval outlast the chain, about 140 in
# the block: 50 intervals x 140 classes fit _MAX_CELLS, so one group
BLOCK_DRAW_CASES.append(pytest.param(SystemParams(20, 0.97, 100, OnePerRI()),
                                     ["multinomial", "multinomial", "random"], id="past-the-chain"))


class TestBlockDraws:
    """The two multinomial draws of a block against the laws they stand for."""

    @pytest.mark.parametrize("load,seed", [(1.0, 500), (1000.0, 501)])
    def test_devices_by_report_count_are_poisson(self, load, seed):
        law = _report_count_law(PoissonPerRI(load))
        devices = by_category(RngStream(seed, 0).generator, 1000, law, 1000)
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
    def test_every_report_count_table_leads_with_one_zero_category(self, load):
        # e^-load >= 1e-19 up to load 43.7: nothing is cut on the left, so the
        # leading zero category stands for no count and every count is kept
        # from 0 up to the right cut
        k = np.arange(int(2 * load) + 41)
        pmf = np.exp(k * math.log(load) - load - np.append(0.0, np.log(k[1:]).cumsum()))
        pmf = pmf[np.cumsum(pmf[::-1])[::-1] > 1e-19]
        order = np.argsort(-pmf, kind="stable")
        after = np.cumsum(pmf[order][::-1])[::-1]
        head = np.count_nonzero(after[1:] > 1e-3)
        order = np.concatenate([order[:head], order[head:][::-1]])
        drawn, back = _report_count_law(PoissonPerRI(load))
        assert drawn[0] == 0.0
        assert np.array_equal(drawn[1:], (pmf / pmf.sum())[order])
        assert np.array_equal(back, np.argsort(order) + 1)

    @pytest.mark.parametrize("arrival,seed", [(PoissonPerRI(0.05), 508), (PoissonPerRI(1.0), 509),
                                              (PoissonPerRI(40.0), 510), (OnePerRI(), 511)])
    def test_the_leading_zero_category_takes_nothing_from_the_stream(self, arrival, seed):
        # the arrivals, and the stream state after them, of a multinomial over
        # the table without its zero category: numpy's binomial at p = 0
        # returns 0 without a draw
        params, size = SystemParams(300, 0.4, 10, arrival), 200
        gen = RngStream(seed, 0).generator
        active, excess = _draw_arrivals(gen, params, size)
        drawn, back = _report_count_law(arrival)
        plain = RngStream(seed, 0).generator
        devices = np.hstack([np.zeros((size, 1), dtype=np.int64),
                             plain.multinomial(params.n_devices, drawn[1:], size)])[:, back]
        assert np.array_equal(active, params.n_devices - devices[:, 0])
        assert np.array_equal(excess, devices @ np.arange(devices.shape[1]) - active)
        assert gen.bit_generator.state == plain.bit_generator.state

    @pytest.mark.parametrize("load,counts", [(50.0, 125), (1000.0, 570)])
    def test_report_count_table_cuts_both_tails_below_1e_19(self, load, counts):
        drawn, back = _report_count_law(PoissonPerRI(load))
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

    def test_one_report_table_is_a_zero_category_then_one(self):
        # the table the Poisson cut and order gives for the pmf [0, 1]
        drawn, back = _report_count_law(OnePerRI())
        assert np.array_equal(drawn, [0.0, 1.0]) and drawn.dtype == np.float64
        assert np.array_equal(back, [0, 1]) and back.dtype == np.intp

    def test_report_count_tables_are_cached_by_model(self):
        # commands in one process share a table through equal frozen models
        assert _report_count_law(PoissonPerRI(1000.0)) is _report_count_law(PoissonPerRI(1000.0))
        assert _report_count_law(OnePerRI()) is _report_count_law(OnePerRI())

    def test_deep_tail_keeps_the_law(self):
        # numpy forms each category's conditional probability against
        # 1 - (the earlier ones) by subtraction; drawn largest first, that
        # remainder falls to its own rounding error by attempt 17 at
        # p_e = 0.1, which then comes 26% short and 18 never comes
        n, p_e, rows = 10**15, 0.1, 200_000
        outcomes = by_category(RngStream(505, 0).generator, np.full(rows, n), _outcome_law(AttemptLaw(p_e, 20)))
        for attempt in range(14, 19):
            expected = rows * n * p_e ** (attempt - 1) * (1.0 - p_e)
            assert abs(outcomes[:, attempt - 1].sum() - expected) <= 5.0 * math.sqrt(expected), attempt

    @pytest.mark.parametrize("params,calls", BLOCK_DRAW_CASES)
    def test_a_block_takes_a_fixed_number_of_draw_calls(self, params, calls):
        # one multinomial for the devices, one for the reports, whatever the
        # counts: a per-step chain of draws fails this; past the chain, one
        # uniform draw for the group, not one per interval and kind
        gen = RecordingGenerator(RngStream(506, params.max_attempts).generator)
        draw_block(gen, params, 50, _INT64_MAX, SchedulerPolicy.RANDOM_UNIFORM)
        assert gen.calls == calls


def attempt_law(p_e: float, cap: int) -> np.ndarray:
    """P[W = k], k = 1..cap <= 64, from the engine's outcome table: a report
    is done at attempt k < cap, or reaches the cap done or failing there."""
    pmf, back = _outcome_law(AttemptLaw(p_e, cap))
    law = pmf[back]
    return np.append(law[: cap - 1], law[cap - 1 :].sum())


class TestOutcomeTable:
    def test_first_attempt(self):
        assert attempt_law(0.1, 10)[0] == pytest.approx(0.9, abs=1e-15)

    def test_cap_holds_tail_mass(self):
        assert attempt_law(0.1, 10)[-1] == pytest.approx(1e-9, rel=1e-12)

    def test_normalization_example(self):
        assert attempt_law(0.4, 10).sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.99), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200)
    def test_normalization_property(self, p_e, cap):
        assert attempt_law(p_e, cap).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p_e", [0.0, 1e-300, 0.1, 0.4, 0.97, 1.0 - 2**-53])
    @pytest.mark.parametrize("steps", [1, 2, 10, 64])
    def test_the_table_is_the_inline_formula_it_replaced(self, p_e, steps):
        # the table written out from its formula, beside the engine's: the same floats in the same order
        inline = sim._drawn_in_order(np.append(p_e ** np.arange(steps) * (1 - p_e), p_e**steps))
        for table, expected in zip(_outcome_law(AttemptLaw(p_e, steps)), inline, strict=True):
            assert np.array_equal(table, expected)
            assert table.dtype == expected.dtype


def hist_cdf(hist, summary):
    """The Gaussian CDF over the histogram's demand range, as validate-clt reads it."""
    return gaussian_cdf(summary, hist.offset, hist.offset + hist.counts.size - 1)


class TestKsDistance:
    def test_gaussian_self_consistency(self):
        mean, std = 500.0, 30.0
        draws = np.rint(RngStream(9, 0).generator.normal(mean, std, 1_000_000)).astype(int)
        low = int(draws.min())
        hist = DemandHistogram(np.bincount(draws - low), low)
        assert ks_distance(hist, hist_cdf(hist, DemandSummary(mean, std**2))) < 0.005

    def test_fig_scale_match(self):
        params = SystemParams(100, 0.4, 10)
        [hist] = sample_demand([params], 20_000, seed=103)
        assert ks_distance(hist, hist_cdf(hist, demand_summary(params))) <= 0.03

    def test_single_run_is_bounded(self):
        [hist] = sample_demand([SystemParams(10, 0.1, 5)], 1, seed=4)
        assert 0.0 <= ks_distance(hist, hist_cdf(hist, demand_summary(SystemParams(10, 0.1, 5)))) <= 1.0

    def test_a_far_offset_keeps_every_step(self):
        # doubles at 2**60 are 256 apart: v + 1/2 - mean formed in doubles gave
        # a run of 256 demands one CDF value, and values - mean one deviation
        counts = np.arange(1025) % 7
        hist = DemandHistogram(counts, offset=2**60)
        cdf = np.array(hist_cdf(hist, DemandSummary(float(2**60 + 512), 100.0**2)))
        near = np.abs(np.arange(-1, counts.size) - 512) <= 300  # within 3 sigma of the mean
        assert (np.diff(cdf[near]) > 0).all()
        assert hist.variance() == DemandHistogram(counts).variance()

    def test_rejects_zero_variance(self):
        hist = DemandHistogram(np.array([5]))
        with pytest.raises(ParameterError):
            ks_distance(hist, hist_cdf(hist, DemandSummary(0.0, 0.0)))


class TestSimulateInterval:
    def test_error_free_never_fails(self):
        for i in range(50):
            result = simulate_interval(
                SystemParams(200, 0.0, 5), 10_000, SchedulerPolicy.RANDOM_UNIFORM, RngStream(11, i)
            )
            assert result.failures == 0

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

    def test_capacity_sufficiency(self, monkeypatch):
        # whenever the realized demand fits the pool, the only failures are
        # reports that burned every attempt: those drawn from the same stream
        # at an ample pool, since within the chain every finite capacity draws
        # the outcomes alike (two rows) before serving.  Where demand
        # overflows, serving adds failures, and leaves some report unserved
        params = SystemParams(100, 0.4, 10)
        capacity = 120
        serve, unserved = sim._serve, []

        def record(*args):
            failures, left = serve(*args)
            unserved.extend(left.tolist())
            return failures, left

        monkeypatch.setattr(sim, "_serve", record)
        sides = collections.Counter()
        for i in range(3_000):
            result = simulate_interval(params, capacity, SchedulerPolicy.RANDOM_UNIFORM, RngStream(13, i))
            ample = simulate_interval(params, 2**62, SchedulerPolicy.RANDOM_UNIFORM, RngStream(13, i))
            assert result.common_demand == ample.common_demand
            if result.common_demand <= capacity:
                assert result.failures == ample.failures
                sides["fits"] += 1
            else:
                assert result.failures >= ample.failures
                sides["overflows"] += 1
        assert set(sides) == {"fits", "overflows"}
        # every interval served overflowed, and each leaves at least one report unserved
        assert len(unserved) == sides["overflows"] and min(unserved) >= 1

    def test_attempt_distribution_through_the_engine(self):
        # with one device and one report, demand + 1 is the report's attempt
        # count; over 10^6 batched intervals it must follow the truncated geometric
        p_e, cap = 0.4, 8
        params = SystemParams(1, p_e, cap, OnePerRI())
        [hist] = sample_demand([params], 1_000_000, seed=14)
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

    @pytest.mark.parametrize("capacity", [0, 10**6])
    def test_an_unknown_policy_is_refused_whether_or_not_an_interval_overflows(self, capacity):
        # at 10**6 no interval overflows, so serving, which alone checked it, never ran
        with pytest.raises(ParameterError, match="unknown scheduler policy: 'bogus'"):
            estimate_failure_prob(SystemParams(100, 0.1, 10), capacity, "bogus", 100, 1)

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


def kinds_table(first, excess):
    """The class table `_serve` takes, and the row where the kinds split: the
    first reports' `class_table` stacked on the excess reports' one, a kind
    with no report holding one empty class, as each kind holds in the engine."""
    empty = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), np.zeros((1, first[2].shape[1]), dtype=np.int64))
    first, excess = (table if table[0].size else empty for table in (first, excess))
    return (*(np.concatenate(column) for column in zip(first, excess)), first[0].size)


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
            *kinds_table(class_table(first, DRAWS), class_table(excess, DRAWS)), capacity, policy,
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
                    failures, unserved = _serve(gen, *kinds_table(*tables), capacity, SchedulerPolicy.FIFO)
                    assert (failures.tolist(), unserved.tolist()) == ([expected], [expected])
                    assert serve_slots([r] * n, [False] * n, capacity, "fifo") == (expected, expected)

    @pytest.mark.parametrize("policy,reports", [
        (SchedulerPolicy.RANDOM_UNIFORM, 3),  # 3 * 2**22 rings
        (SchedulerPolicy.FIFO, 10**9),  # beyond numpy's hypergeometric
    ])
    def test_oversized_interval_is_refused_before_drawing(self, policy, reports):
        capacity = 2**22 if policy is SchedulerPolicy.RANDOM_UNIFORM else 10**9
        table = (np.array([2**22]), np.array([False]), np.array([[reports]]))
        with pytest.raises(ParameterError, match="an overflowing interval"):
            _serve(None, *kinds_table(table, class_table([])), capacity, policy)


def report_outcomes(p_e: float, max_attempts: int, excess: bool) -> list[tuple[tuple[int, bool], float]]:
    """Each (pool slots needed, retry-limit flag) of one report, with its
    truncated-geometric probability: a report done at attempt j <= L needs
    j - 1 slots, or j as an excess report, which has no preallocated
    transmission; one failing all L attempts needs L - 1 (L) and is flagged."""
    law = [((j - 1 + excess, False), p_e ** (j - 1) * (1 - p_e)) for j in range(1, max_attempts + 1)]
    return law + [((max_attempts - 1 + excess, True), p_e**max_attempts)]


@functools.lru_cache(maxsize=None)
def pool_laws(first: tuple, excess: tuple, capacity: int):
    """The exact (failures, unserved) laws under FIFO, the random policy and
    depth-first service."""
    reports = list(first + excess)
    return (fifo_law(list(first), list(excess), capacity), random_law(reports, capacity),
            depth_first_law(reports, capacity))


def averaged_laws(n_first, n_excess, p_e, max_attempts, capacity):
    """pool_laws averaged over every draw of the reports' attempts, as (joint
    laws, failure-count laws), and the mean failure count by Wald's identity."""
    joint = [collections.defaultdict(float) for _ in range(3)]  # FIFO, random, depth-first
    stop_loss = 0.0
    kinds = [False] * n_first + [True] * n_excess
    for draw in itertools.product(*(report_outcomes(p_e, max_attempts, kind) for kind in kinds)):
        reports = [report for report, _ in draw]
        weight = math.prod(prob for _, prob in draw)
        first, excess = tuple(sorted(reports[:n_first])), tuple(sorted(reports[n_first:]))
        for law, exact in zip(joint, pool_laws(first, excess, capacity)):
            for outcome, prob in exact.items():
                law[outcome] += weight * prob
        stop_loss += weight * max(sum(slots for slots, _ in reports) - capacity, 0)
    failures = [collections.defaultdict(float) for _ in joint]
    for law, marginal in zip(joint, failures):
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        for (count, _), prob in law.items():
            marginal[count] += prob
    return joint, failures, len(kinds) * p_e**max_attempts + (1 - p_e) * stop_loss


def worst_gap(law, other) -> float:
    return max(abs(law[key] - other[key]) for key in law.keys() | other.keys())


class TestFailureLawOverAttempts:
    """Averaged over every draw of the reports' attempts, the exact pool laws
    give the failure count one law under FIFO, the random policy and
    depth-first service, of mean n p_e^L + (1 - p_e) E[(R - C)^+] for R the
    slots needed: each served slot is a fresh Bernoulli trial (Wald's
    identity).  That is README's "Any scheduler, one failure law".  The joint
    law with the unserved count agrees under FIFO and the random policy in the
    cases where no report can reach its retry limit inside the pool, C < L - 1,
    and differs in the others listed."""

    CASES = [  # (first reports, excess reports, p_e, L, C)
        (3, 0, 0.5, 3, 2), (2, 2, 0.7, 3, 4), (2, 3, 0.8, 4, 5), (0, 3, 0.3, 2, 3),  # C >= L - 1
        (2, 1, 0.6, 4, 1), (1, 2, 0.5, 5, 2), (3, 1, 0.4, 3, 0),
    ]

    @pytest.mark.parametrize("n_first, n_excess, p_e, max_attempts, capacity", CASES)
    def test_failure_law_and_its_mean_are_those_of_either_policy(
            self, n_first, n_excess, p_e, max_attempts, capacity):
        joint, failures, identity = averaged_laws(n_first, n_excess, p_e, max_attempts, capacity)
        for marginal in failures:
            assert sum(count * prob for count, prob in marginal.items()) == pytest.approx(identity, abs=1e-12)
        assert worst_gap(*failures[:2]) < 1e-12
        worst = worst_gap(*joint[:2])
        assert (worst < 1e-12) == (capacity < max_attempts - 1), worst

    # every mix of up to 4 reports, p_e 0.3 and 0.7, L 1 to 4, every C from 0 to n L + 1;
    # thinned to n L <= 12 (no 4 reports at L = 4) to keep the grid near 2 s
    GRID = [(n_first, n - n_first, max_attempts) for n in range(1, 5) for n_first in range(n + 1)
            for max_attempts in range(1, 5) if n * max_attempts <= 12]

    @pytest.mark.parametrize("n_first, n_excess, max_attempts", GRID)
    def test_fifo_random_and_depth_first_give_one_failure_law(self, n_first, n_excess, max_attempts):
        for p_e, capacity in itertools.product((0.3, 0.7), range((n_first + n_excess) * max_attempts + 2)):
            joint, failures, identity = averaged_laws(n_first, n_excess, p_e, max_attempts, capacity)
            for marginal in failures:
                assert sum(count * prob for count, prob in marginal.items()) == pytest.approx(identity, abs=1e-12)
                assert worst_gap(marginal, failures[0]) <= 1e-12, (p_e, capacity)
            if capacity < max_attempts - 1:
                assert worst_gap(*joint[:2]) < 1e-12, (p_e, capacity)


class TestFailureCountsAcrossPolicies:
    """The engine's per-interval failure counts under FIFO and the random
    policy pass a chi-square test of homogeneity where retry limits meet the
    pool (C >= L - 1), as the exact laws above say they should.  Each policy
    replays 100,000 intervals from its own fixed seed, so the samples are
    independent.  Failure counts are merged, in order, into bins of at least
    10 intervals (at least 5 expected per policy).  At alpha = 1e-3 per point
    the two points give a false-alarm budget of at most 2e-3 for a correct
    engine over the choice of seeds."""

    ALPHA = 1e-3
    INTERVALS = 100_000
    SEEDS = {SchedulerPolicy.FIFO: 2701, SchedulerPolicy.RANDOM_UNIFORM: 2702}

    @staticmethod
    def pooled(table):
        """The columns of a 2-row table merged into consecutive bins of at least 10."""
        bins, total = [], np.zeros(2, dtype=np.int64)
        for column in table.T:
            total = total + column
            if total.sum() >= 10:
                bins.append(total)
                total = np.zeros(2, dtype=np.int64)
        bins[-1] = bins[-1] + total
        return np.array(bins).T

    @pytest.mark.parametrize("params, capacity", [
        (SystemParams(20, 0.5, 3), 10),
        (SystemParams(50, 0.6, 4), 40),
    ], ids=["N20-L3-C10", "N50-L4-C40"])
    def test_fifo_and_random_failure_counts_are_homogeneous(self, params, capacity):
        counts = []
        for policy, seed in self.SEEDS.items():
            blocks = sim._blocks([params], self.INTERVALS, seed, capacity, policy)
            counts.append(np.bincount(np.concatenate([failures for _, (_, failures, _) in blocks])))
        width = max(map(len, counts))
        table = self.pooled(np.array([np.pad(c, (0, width - len(c))) for c in counts]))
        assert table.shape[1] > 10 and table.sum() == 2 * self.INTERVALS
        assert stats.chi2_contingency(table).pvalue > self.ALPHA


# (params, capacity, intervals per block) of the blocks whose ring-finish
# tables the threshold rule is checked on, 50 seeds each
REFERENCE_BLOCKS = [
    # the overload point: each interval leaps, then about 240 rings are left
    # to the ring rule, so at a small ring group intervals straddle its
    # multiples and a block takes several groups
    (SystemParams(1000, 0.4, 10), 926, 30),
    # reports at the retry limit (flagged) in most intervals
    (SystemParams(60, 0.7, 4), 40, 40),
    # capacity 1: most reports need more than C + 1 = 2 slots
    (SystemParams(40, 0.6, 8), 1, 40),
    # p_e near 1 with L past the chain: past-the-chain classes after per-report draws
    (SystemParams(20, 0.97, 100, OnePerRI()), 300, 20),
]


class TestRandomServiceAgainstTheOldRule:
    """The ring-finish stage read from each interval's C-th ring time against
    the rule it replaced, which marks every late ring
    (`random_unserved_reference`), on the tables `draw_block` hands it."""

    @pytest.mark.parametrize("group", [None, 1 << 10], ids=["engine-group", "small-group"])
    @pytest.mark.parametrize("params,capacity,size", REFERENCE_BLOCKS,
                             ids=["overload", "flagged", "capacity-1", "past-the-chain"])
    def test_same_arrays_from_the_same_generator_state(self, monkeypatch, params, capacity, size, group):
        if group is not None:
            monkeypatch.setattr(sim, "_RING_GROUP", group)
        group = sim._RING_GROUP
        tables = []  # the class tables and slots left that the ring-finish stage receives

        def record(gen, pending, flags, counts, slots):
            tables.append((pending, flags, counts, slots))
            return _ring_finish(gen, pending, flags, counts, slots)

        monkeypatch.setattr(sim, "_ring_finish", record)
        straddling = flagged = capped = leapt = 0
        for seed in range(50):
            tables.clear()
            gen = RngStream(700 + seed, 0).generator
            draw_block(gen, params, size, capacity, SchedulerPolicy.RANDOM_UNIFORM)
            assert tables
            crossings = 0
            for pending, flags, counts, slots in tables:
                new = _ring_finish(RngStream(seed, 9).generator, pending, flags, counts, slots)
                old = random_unserved_reference(RngStream(seed, 9).generator, pending, flags, counts,
                                                slots, group)
                assert [a.tolist() for a in new] == [a.tolist() for a in old]
                rings = (np.minimum(pending[:, None], slots + 1) * counts).sum(axis=0)
                ends = np.cumsum(rings[slots > 0])
                crossings += int(((ends - 1) // group > np.append(0, ends[:-1]) // group).sum())
                flagged += int(counts[flags].sum())
                capped += int((counts * (pending[:, None] > slots + 1)).sum())
                leapt += int((slots < capacity).sum())
            straddling += crossings > 0
        # what each kind of block is there to cover
        if capacity == 926:
            assert leapt > 40 * size, "the ring rule finishes what the leap left"
        if capacity == 926 and group == 1 << 10:
            assert straddling == 50, "every block has an interval across a multiple of the ring group"
        if params.max_attempts == 4:
            assert flagged > 50
        if capacity == 1:
            assert capped > 50


class TestRandomServiceTies:
    """Stub clocks through the ring-finish stage: intervals whose C-th ring
    ties with the next one, and intervals with a gap there."""

    # per interval, the clock steps of report A (needs 2 slots), B (1 slot,
    # flagged), C1 and C2 (1 slot each), in the order the clocks are drawn,
    # and the (failures, unserved) of serving exactly C = 3 rings
    CASES = [
        # rings A 1, 4; B 2; C1 0.5; C2 5: a gap after T_C = 2, A and C2 left
        ([1.0, 3.0, 2.0, 0.5, 5.0], {(3, 2)}),
        # A 1, 2; B 2; C2 2 tie at T_C = 2 with C1 0.5 and A's first below: one
        # of the three tied rings is served, so two of A, B, C2 are left
        ([1.0, 1.0, 2.0, 0.5, 2.0], {(2, 2), (3, 2)}),
        # A rings twice at 2, tied with B at T_C = 2 (C1, C2 at 1): A completes
        # only if both its rings are served, which leaves B out
        ([2.0, 0.0, 2.0, 1.0, 1.0], {(2, 2), (2, 1)}),
        # A rings twice at T_C = 2 with a gap after it (B 3, C2 4): A completes
        ([2.0, 0.0, 3.0, 1.0, 4.0], {(2, 2)}),
    ]

    def test_ties_and_gaps_in_one_group(self):
        steps = np.array([step for case, _ in self.CASES for step in case])

        class Clocks:
            def standard_exponential(self, size):
                assert size == steps.size
                return steps.copy()

        intervals = len(self.CASES)
        table = (np.array([2, 1, 1]), np.array([False, True, False]),
                 np.array([[1] * intervals, [1] * intervals, [2] * intervals]))
        unserved, unflagged = _ring_finish(Clocks(), *table, np.full(intervals, 3))
        failures = table[2][table[1]].sum(axis=0) + unflagged
        for (_, allowed), outcome in zip(self.CASES, zip(failures.tolist(), unserved.tolist())):
            assert outcome in allowed
        # the old rule, which serves exactly C rings by construction, breaks the
        # ties the same way (where two rings of one report tie, the outcome alone
        # does not show how many rings were served)
        old_unserved, old_unflagged = random_unserved_reference(Clocks(), *table, 3, _RING_GROUP)
        assert unserved.tolist() == old_unserved.tolist()
        assert failures.tolist() == (old_unflagged + 1).tolist()

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
            unserved, _ = _ring_finish(TiedClocks(), *class_table([(r, False)] * n, 3), np.full(3, capacity))
            assert unserved.tolist() == [expected] * 3

    def test_tied_rings_of_one_report(self):
        # report A rings twice at time 2 (its second clock step is 0), B once
        # at 2, and two more reports once at 1; three slots serve two of the
        # three rings at time 2, so A completes only if both of its own do
        class Clocks:
            def standard_exponential(self, size):
                return np.array([2.0, 0.0, 2.0, 1.0, 1.0])

        table = (np.array([2, 1, 1]), np.array([False, True, False]), np.array([[1], [1], [2]]))
        unserved, unflagged = _ring_finish(Clocks(), *table, np.array([3]))
        failures = table[2][table[1]].sum(axis=0) + unflagged
        # B (flagged) fails either way; A fails unless both its rings are served
        assert (failures.tolist(), unserved.tolist()) in [([2], [1]), ([2], [2])]


class TestLeap:
    """The random policy's leap over each interval's first rings, and the
    intervals it serves with no draw at all."""

    @pytest.mark.parametrize("margin", [0.5, -0.25], ids=["leap", "overshoot"])
    @pytest.mark.parametrize("first,excess,capacity,seed", SERVING_PARAMS)
    def test_whole_path_follows_the_exact_law(self, monkeypatch, margin, first, excess, capacity, seed):
        # these pools are too small to gain: forced on here.  A margin below
        # 0 aims past the pool, so most leaps overshoot.
        monkeypatch.setattr(sim, "_LEAP_GAIN", 0.0)
        monkeypatch.setattr(sim, "_LEAP_MARGIN", margin)
        leaps = []
        leap = sim._leap

        def record(*args):
            leaps.append(leap(*args))
            return leaps[-1]

        monkeypatch.setattr(sim, "_leap", record)
        failures, unserved = _serve(RngStream(seed, 3).generator,
                                    *kinds_table(class_table(first, DRAWS), class_table(excess, DRAWS)),
                                    capacity, SchedulerPolicy.RANDOM_UNIFORM)
        assert law_pvalue(zip(failures.tolist(), unserved.tolist()), random_law(first + excess, capacity)) > 0.001
        # the leap served rings in many intervals, and overshot where aimed past the pool
        (leapt,) = leaps
        slots_left, overshot = leapt[3], int(leapt[4].sum())
        assert np.count_nonzero(slots_left < capacity) + overshot > DRAWS // 10
        if margin < 0:
            assert overshot > DRAWS // 10

    @pytest.mark.parametrize("params", [SystemParams(1000, 0.4, 10), SystemParams(40, 0.6, 8),
                                        SystemParams(20, 0.97, 100, OnePerRI())],
                             ids=["overload", "flagged", "past-the-chain"])
    def test_no_leap_pays_at_a_pool_of_32_or_fewer(self, monkeypatch, params):
        # every interval served holds a live report, so the leap costs at least
        # _LEAP_GAIN = 10 rings an interval and saves C - 4 sqrt(C) <= 9.37
        leaps, served = [], []
        leap, random_unserved = sim._leap, sim._random_unserved

        def record_leap(*args):
            leaps.append(args[4])
            return leap(*args)

        def record_service(gen, pending, flags, counts, capacity):
            served.append(counts.shape[1])
            return random_unserved(gen, pending, flags, counts, capacity)

        monkeypatch.setattr(sim, "_leap", record_leap)
        monkeypatch.setattr(sim, "_random_unserved", record_service)
        for capacity in (0, 1, 2, 7, 16, 31, 32):
            served.clear()
            estimate_failure_prob(params, capacity, SchedulerPolicy.RANDOM_UNIFORM, 200, seed=capacity)
            assert sum(served) > 100, capacity  # most intervals overflow
        assert leaps == []
        # the spy sees a leap where one pays
        estimate_failure_prob(SystemParams(1000, 0.4, 10), 926, SchedulerPolicy.RANDOM_UNIFORM, 50, seed=1)
        assert leaps and set(leaps) == {926}

    def test_overload_draws_at_most_400_variates_per_overflowing_interval(self, monkeypatch):
        # the ring rule alone draws about 1039 clock rings per overflowing
        # interval here; every variate of the serving stage counts
        variates, served = [], []
        random_unserved = sim._random_unserved

        def record(gen, pending, flags, counts, capacity):
            recording = RecordingGenerator(gen)
            result = random_unserved(recording, pending, flags, counts, capacity)
            variates.append(sum(recording.sizes))
            served.append(counts.shape[1])
            return result

        monkeypatch.setattr(sim, "_random_unserved", record)
        estimate_failure_prob(SystemParams(1000, 0.4, 10), 926, SchedulerPolicy.RANDOM_UNIFORM, 1000, seed=120)
        assert sum(served) > 900
        assert sum(variates) <= 400 * sum(served)

    @pytest.mark.parametrize("capacity", [5, 40])
    def test_an_interval_no_report_can_complete_draws_nothing(self, capacity):
        # interval 0: live reports needing C + 2 and C + 4 slots, which never
        # complete; interval 1 also holds one needing 2.  Reports needing no
        # slot are not live.
        pending = np.array([capacity + 2, capacity + 4, 2, 0])
        flags = np.array([False, True, False, True])
        counts = np.array([[3, 3], [2, 1], [0, 1], [4, 4]])
        # no generator: any draw fails
        unserved, unflagged = _random_unserved(None, pending, flags, counts[:, :1], capacity)
        assert (unserved.tolist(), unflagged.tolist()) == ([5], [3])
        gen = RecordingGenerator(RngStream(121, 0).generator)
        unserved, unflagged = _random_unserved(gen, pending, flags, counts, capacity)
        assert (unserved[0], unflagged[0]) == (5, 3)
        if capacity <= 32:
            # no leap pays at C <= 32: the second interval's rings alone, each report's capped at C + 1
            assert gen.sizes == [3 * (capacity + 1) + capacity + 1 + 2]

    def test_an_interval_that_draws_nothing_counts_no_rings_against_the_limit(self, monkeypatch):
        # three reports needing 5 slots of a pool of 2 would ring 3 x 3 = 9
        # times, but none can complete, so none rings; the limit counted them
        monkeypatch.setattr(sim, "_MAX_RINGS", 8)
        unserved, unflagged = _random_unserved(None, np.array([5]), np.array([False]), np.array([[3]]), 2)
        assert (unserved.tolist(), unflagged.tolist()) == ([3], [3])

    def test_near_p_e_1_only_intervals_with_a_report_that_can_complete_draw(self, monkeypatch):
        # almost every report needs more than C = 1000 slots; the ring rule
        # alone drew 100 x 1001 rings for each interval of a group that
        # holds one report needing fewer
        calls = []
        random_unserved = sim._random_unserved

        def record(gen, pending, flags, counts, capacity):
            recording = RecordingGenerator(gen)
            result = random_unserved(recording, pending, flags, counts, capacity)
            live = (pending > 0) & (pending <= capacity)
            calls.append((np.count_nonzero(counts[live].any(axis=0)), counts.shape[1], sum(recording.sizes)))
            return result

        monkeypatch.setattr(sim, "_random_unserved", record)
        estimate = estimate_failure_prob(SystemParams(100, 0.999999, 10**9), 1000,
                                         SchedulerPolicy.RANDOM_UNIFORM, 1000, seed=1)
        drawing, served, variates = np.array(calls).sum(axis=0)
        assert served > 900 and 0 < drawing < served // 5
        assert all(bool(size) == bool(can) for can, _, size in calls)
        assert variates <= 20_000 * drawing
        assert estimate.reports_total == 100_226  # the arrivals drawn before the leap, unchanged


def slot_loop_failures(gen, params: SystemParams, capacity: int, policy: SchedulerPolicy, intervals: int):
    """Failures and reports of each interval of a pool served slot by slot,
    each report's attempt count drawn directly; under FIFO the first reports,
    which used their preallocated slot, queue ahead of the excess ones."""
    failures, reports = [], []
    for _ in range(intervals):
        if isinstance(params.arrival, OnePerRI):
            active, excess = params.n_devices, 0
        else:
            per_device = gen.poisson(params.arrival.load, params.n_devices)
            active = int(np.count_nonzero(per_device))
            excess = int(per_device.sum()) - active
        # attempts up to the first success, first reports then excess ones
        trials = np.concatenate([gen.geometric(1.0 - params.p_e, active),
                                 gen.geometric(1.0 - params.p_e, excess)])
        pending = np.minimum(trials, params.max_attempts) - np.repeat([1, 0], [active, excess])
        flags = trials > params.max_attempts
        failures.append(serve_slots(pending.tolist(), flags.tolist(), capacity, policy.value, gen)[0])
        reports.append(active + excess)
    return np.array(failures), np.array(reports)


# (label, params, capacity, intervals, reference stream, engine seed)
SLOT_LOOP_POINTS = [
    ("", SystemParams(20, 0.97, 100, OnePerRI()), 500, 2_000, 0, 401),
    # excess reports past the chain, about 1.6 an interval at the retry limit
    ("poisson-", SystemParams(30, 0.95, 70, PoissonPerRI(2.0)), 1_000, 1_000, 1, 402),
    # reports past the chain need more than C + 1 = 2 slots: one capped class
    ("capacity-1-", SystemParams(30, 0.95, 70, PoissonPerRI(2.0)), 1, 2_000, 2, 403),
]


class TestOverflowBeyondTheChain:
    """Overflowing intervals whose reports outlast the binomial chain, served
    a group of intervals at a time after per-report draws; the slot loop over
    directly drawn attempt counts is the reference."""

    @pytest.mark.parametrize("params,capacity,intervals,stream,seed,policy", [
        pytest.param(params, capacity, intervals, stream, seed, policy, id=f"{label}{policy}")
        for label, params, capacity, intervals, stream, seed in SLOT_LOOP_POINTS
        for policy in SchedulerPolicy
    ])
    def test_engine_matches_the_slot_loop(self, params, capacity, intervals, stream, seed, policy):
        failures, reports = slot_loop_failures(RngStream(400, stream).generator, params, capacity,
                                               policy, intervals)
        reference = failures.sum() / reports.sum()
        estimate = estimate_failure_prob(params, capacity, policy, intervals, seed=seed)
        # a ratio of sums: its standard error from the residuals, for two independent runs
        se = math.sqrt(((failures - reference * reports) ** 2).sum()) / reports.sum() * math.sqrt(2.0)
        if capacity > 1:
            assert 0.05 < reference < 0.95  # the pool, not the retry limit, decides most failures
        assert abs(estimate.p_hat - reference) <= 5.0 * se

    @pytest.mark.parametrize("capacity", [600, 30])
    def test_class_tables_hold_each_report_past_the_chain(self, monkeypatch, capacity):
        # the classes past the chain of each overflowing interval against its
        # reports, drawn again from the same stream: one uniform each after the
        # two multinomials, interval by interval, first reports first.  At
        # C = 30 every report past the chain needs more than C + 1 slots.
        params, size, steps, remaining = SystemParams(20, 0.95, 70, PoissonPerRI(2.0)), 40, 64, 6
        tables = []

        def record(gen, pending, flags, counts, split, capacity, policy):
            tables.append([(pending[rows], flags[rows], counts[rows]) for rows in (slice(split), slice(split, None))])
            return np.zeros((2, counts.shape[1]), dtype=np.int64)

        monkeypatch.setattr(sim, "_serve", record)
        _, _, demand = draw_block(RngStream(410, 0).generator, params, size, capacity, SchedulerPolicy.FIFO)
        gen = RngStream(410, 0).generator
        devices = by_category(gen, params.n_devices, _report_count_law(params.arrival), size)
        active = params.n_devices - devices[:, 0]
        excess = devices @ np.arange(devices.shape[1]) - active
        outcomes = by_category(gen, np.stack([active, excess]), _outcome_law(AttemptLaw(params.p_e, steps)))
        beyond = outcomes[..., steps].T.ravel()
        fails = np.split(sim.leading_failure_counts(gen, params.p_e, int(beyond.sum())),
                         np.cumsum(beyond)[:-1])
        over = np.flatnonzero(demand > capacity)
        assert len(tables) == 1 and over.size > 10  # one group, most intervals served
        for kind, (pending, flags, counts) in enumerate(tables[0]):
            pre = 1 - kind
            assert np.array_equal(counts[:steps], outcomes[kind, over, :steps].T)
            for column, interval in enumerate(over.tolist()):
                # flags do not matter for a report the pool can never serve
                expected = collections.Counter(
                    (slots, f >= remaining) if slots <= capacity else (capacity + 1, None)
                    for f in fails[2 * interval + kind].tolist()
                    for slots in [steps - pre + min(f + 1, remaining)]
                )
                held = collections.Counter()
                for p, f, n in zip(pending[steps:].tolist(), flags[steps:].tolist(),
                                   counts[steps:, column].tolist()):
                    held[(p, f) if p <= capacity else (p, None)] += n
                assert +held == expected

    @pytest.mark.parametrize("capacity,intervals", [(1000, 1000), (10**7, 80)])
    def test_memory_stays_bounded_near_p_e_1(self, capacity, intervals):
        # about 100 reports an interval outlast the chain, nearly all with
        # distinct failure counts: one table row per distinct count over a
        # whole block took over a gigabyte.  At C = 1000 almost all of them
        # share the capped class; at C = 10**7 they stay distinct, and only
        # the group size bounds the table (about 90 MiB in one group)
        tracemalloc.start()
        try:
            estimate_failure_prob(SystemParams(100, 0.999999, 10**9), capacity, SchedulerPolicy.FIFO,
                                  intervals, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    def test_more_than_a_group_in_flight_in_one_interval_runs(self, tmp_path):
        # about 1.4 million reports an interval outlast the chain, more than
        # _MAX_CELLS: each interval is a group of its own
        out = tmp_path / "out.csv"
        assert cli_main(["simulate", "--devices", "10000000", "--pe", "0.97", "--max-attempts", "100",
                         "--runs", "2", "--capacity", str(10**20), "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 2


class TestUnservedPoolFailures:
    # alpha = 1e-6 for each of the two runs: a correct engine fails one at
    # about two seeds in a million
    @pytest.mark.parametrize("p_e, cap", [(0.5, 3), (0.97, 100)], ids=["in-chain", "past-chain"])
    def test_int64_pool_fails_reports_at_the_retry_limit_rate(self, p_e, cap, tmp_path):
        # no demand exceeds the pool, so every failure is a report failing its
        # L attempts, independently with probability p_e^L
        out = tmp_path / "out.csv"
        assert cli_main(["simulate", "--devices", "20", "--pe", str(p_e), "--max-attempts", str(cap),
                         "--capacity", str(_INT64_MAX), "--runs", "20000", "--seed", "9",
                         "--out", str(out)]) == 0
        row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
        reports, failures = int(row["reports"]), int(row["failures"])
        assert reports > 300_000
        assert stats.binomtest(failures, reports, AttemptLaw(p_e, cap).floor).pvalue > 1e-6


# (params, seed) at L <= 64: the overload point, a short retry limit (with a
# target above its floor p_e^L), the chain's last step under one report per
# interval, and a load above the 43.7 cut
METAMORPHIC_POINTS = [
    pytest.param(SystemParams(1000, 0.4, 10), 601, id="overload"),
    pytest.param(SystemParams(50, 0.6, 4, target_failure=0.2), 602, id="short-retry"),
    pytest.param(SystemParams(200, 0.85, 64, OnePerRI()), 603, id="chain-edge"),
    pytest.param(SystemParams(40, 0.3, 8, PoissonPerRI(50.0)), 604, id="load-50"),
]


class TestPoolMetamorphicInTheChain:
    """Within the 64-step chain a block draws its demand before any pool
    service, so the demand does not move with the capacity under one seed;
    and a pool no interval's demand exceeds serves nothing, so only the
    retry-limit failures remain.  Exact equalities: no significance level."""

    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    @pytest.mark.parametrize("params,seed", METAMORPHIC_POINTS)
    def test_demand_ignores_the_pool_and_an_ample_pool_leaves_retry_limit_failures(
            self, monkeypatch, params, seed, policy):
        def blocks(capacity):  # three blocks, the last one partial
            return [outcome for _, outcome in sim._blocks([params], 2_500, seed, capacity, policy)]

        served = []
        serve = sim._serve
        monkeypatch.setattr(sim, "_serve", lambda *args: served.append(args) or serve(*args))
        ample = blocks(2**62)
        assert served == []  # an ample pool serves no interval, so leaves none unserved
        starved = blocks(0)
        # at C = 0 every interval with demand is served, and loses reports
        assert any((failures > floor).any() for (_, failures, _), (_, floor, _) in zip(starved, ample))
        for drawn in (starved, blocks(dimension_capacity(params))):
            for (_, failures, demand), (_, floor, ample_demand) in zip(drawn, ample, strict=True):
                assert np.array_equal(demand, ample_demand)
                assert np.all(failures >= floor)
        largest = max(int(demand.max()) for _, _, demand in ample)
        for capacity in (largest, largest + 1, 2 * largest):
            for outcome, expected in zip(blocks(capacity), ample, strict=True):
                assert all(np.array_equal(got, want) for got, want in zip(outcome, expected)), capacity


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
