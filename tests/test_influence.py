"""Tests for corpus-level influence estimation (Section 5 pipeline)."""

import numpy as np
import pytest

from repro.config import HAWKES_PROCESSES, HawkesConfig, TWITTER_GAPS
from repro.core.influence import (
    UrlCascade,
    aggregate_weights,
    cascade_to_events,
    corpus_background_rates,
    fit_corpus,
    influence_percentages,
    select_urls,
    trim_gap_urls,
)
from repro.news.domains import NewsCategory
from repro.timeutil import Interval

ALT = NewsCategory.ALTERNATIVE
MAIN = NewsCategory.MAINSTREAM


def cascade(url, events, category=ALT):
    return UrlCascade(url=url, category=category, events=tuple(events))


def triple_cascade(url, t0=0.0, category=ALT):
    return cascade(url, [(t0, "Twitter"), (t0 + 120, "/pol/"),
                         (t0 + 300, "The_Donald")], category)


class TestSelectUrls:
    def test_triple_platform_kept(self):
        kept = select_urls([triple_cascade("u1")])
        assert len(kept) == 1

    def test_missing_twitter_dropped(self):
        c = cascade("u", [(0, "/pol/"), (60, "politics")])
        assert select_urls([c]) == []

    def test_missing_pol_dropped(self):
        c = cascade("u", [(0, "Twitter"), (60, "politics")])
        assert select_urls([c]) == []

    def test_missing_subreddit_dropped(self):
        c = cascade("u", [(0, "Twitter"), (60, "/pol/")])
        assert select_urls([c]) == []

    def test_any_of_six_subreddits_counts(self):
        for sub in ("The_Donald", "worldnews", "politics", "news",
                    "conspiracy", "AskReddit"):
            c = cascade("u", [(0, "Twitter"), (60, "/pol/"), (120, sub)])
            assert len(select_urls([c])) == 1

    def test_foreign_communities_stripped(self):
        c = cascade("u", [(0, "Twitter"), (60, "/pol/"),
                          (120, "politics"), (180, "Reddit-other")])
        kept = select_urls([c])
        assert len(kept) == 1
        assert all(name != "Reddit-other" for _, name in kept[0].events)


class TestTrimGapUrls:
    def test_no_overlap_keeps_all(self):
        gaps = [Interval(10_000, 20_000)]
        cascades = [triple_cascade("u1", t0=0.0),
                    triple_cascade("u2", t0=30_000.0)]
        assert len(trim_gap_urls(cascades, gaps, 0.5)) == 2

    def test_drops_shortest_overlapping(self):
        gaps = [Interval(0, 1_000_000)]
        short = triple_cascade("short", t0=0.0)         # ~300 s span
        long_events = [(0.0, "Twitter"), (500_000.0, "/pol/"),
                       (900_000.0, "politics")]
        long = cascade("long", long_events)
        kept = trim_gap_urls([short, long], gaps, 0.5)
        assert [c.url for c in kept] == ["long"]

    def test_zero_fraction_keeps_all(self):
        gaps = [Interval(0, 10**9)]
        cascades = [triple_cascade(f"u{i}") for i in range(5)]
        assert len(trim_gap_urls(cascades, gaps, 0.0)) == 5

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            trim_gap_urls([], TWITTER_GAPS, 1.5)

    def test_rounding_of_drop_count(self):
        gaps = [Interval(0, 10**9)]
        cascades = [triple_cascade(f"u{i}", t0=float(i)) for i in range(10)]
        kept = trim_gap_urls(cascades, gaps, 0.10)
        assert len(kept) == 9


class TestCascadeToEvents:
    def test_processes_indexed_canonically(self):
        c = triple_cascade("u")
        events = cascade_to_events(c)
        assert events.n_processes == 8
        present = {HAWKES_PROCESSES[int(p)] for p in events.processes}
        assert present == {"Twitter", "/pol/", "The_Donald"}

    def test_minute_binning(self):
        c = cascade("u", [(0.0, "Twitter"), (59.0, "Twitter"),
                          (61.0, "/pol/")])
        events = cascade_to_events(c)
        assert events.n_bins == 2
        assert events.total_events == 3


class TestFitCorpusAndAggregation:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(5)
        cascades = []
        for i in range(12):
            t0 = float(i) * 1e6
            cat = ALT if i % 2 else MAIN
            events = [(t0, "Twitter"), (t0 + 60, "Twitter"),
                      (t0 + 180, "/pol/"), (t0 + 600, "The_Donald"),
                      (t0 + 4000, "politics")]
            cascades.append(cascade(f"u{i}", events, cat))
        config = HawkesConfig(gibbs_iterations=30, gibbs_burn_in=10)
        return fit_corpus(cascades, config, rng=rng)

    def test_fit_count(self, fitted):
        assert len(fitted.fits) == 12

    def test_event_counts_recorded(self, fitted):
        for fit in fitted.fits:
            assert fit.event_counts.sum() == 5

    def test_weight_stack_shapes(self, fitted):
        assert fitted.weight_stack(ALT).shape == (6, 8, 8)
        assert fitted.weight_stack(MAIN).shape == (6, 8, 8)

    def test_aggregate_weights(self, fitted):
        agg = aggregate_weights(fitted)
        assert agg.mean_alternative.shape == (8, 8)
        assert np.all(agg.ks_pvalues >= 0)
        assert np.all(agg.ks_pvalues <= 1)
        stars = agg.significance_stars()
        assert stars.shape == (8, 8)
        assert set(np.unique(stars)) <= {"", "*", "**"}

    def test_influence_percentages_bounded(self, fitted):
        pct = influence_percentages(fitted, ALT)
        assert pct.shape == (8, 8)
        assert np.all(pct >= 0)
        # zero-event destinations yield zero percentage
        zero_dest = np.where(
            sum(f.event_counts for f in fitted.of_category(ALT)) == 0)[0]
        assert np.all(pct[:, zero_dest] == 0)

    def test_corpus_summary(self, fitted):
        summary = corpus_background_rates(fitted)
        assert summary.processes == HAWKES_PROCESSES
        # 6 URLs per category, each with Twitter events
        twitter_idx = HAWKES_PROCESSES.index("Twitter")
        assert summary.urls[ALT][twitter_idx] == 6
        assert summary.events[ALT][twitter_idx] == 12  # 2 per URL
        assert np.all(summary.mean_background[ALT] >= 0)

    def test_aggregate_requires_both_categories(self):
        result = fit_corpus([triple_cascade("u", category=ALT)],
                            HawkesConfig(gibbs_iterations=10,
                                         gibbs_burn_in=3),
                            rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            aggregate_weights(result)


def make_fit(url, category, *, weights=None, background=None,
             event_counts=None):
    from repro.core.influence import UrlFit
    k = len(HAWKES_PROCESSES)
    return UrlFit(
        url=url, category=category,
        background=np.zeros(k) if background is None else background,
        weights=np.zeros((k, k)) if weights is None else weights,
        event_counts=(np.zeros(k, dtype=np.int64) if event_counts is None
                      else event_counts),
        n_bins=100, log_likelihood=0.0)


class TestBackgroundRatePresenceConditioning:
    """Table 11 regression: mean lambda0 averages present URLs only."""

    def test_absent_process_excluded_from_mean(self):
        from repro.core.influence import InfluenceResult
        k = len(HAWKES_PROCESSES)
        pol = HAWKES_PROCESSES.index("/pol/")
        # URL A: /pol/ posted, fitted lambda0 = 0.3.  URL B: /pol/
        # absent (0 events), the fit leaves lambda0 near the prior mean.
        bg_a = np.full(k, 0.1)
        bg_a[pol] = 0.3
        counts_a = np.ones(k, dtype=np.int64)
        bg_b = np.full(k, 0.1)
        bg_b[pol] = 0.01  # prior-driven value for an absent process
        counts_b = np.ones(k, dtype=np.int64)
        counts_b[pol] = 0
        result = InfluenceResult(processes=HAWKES_PROCESSES, fits=[
            make_fit("a", ALT, background=bg_a, event_counts=counts_a),
            make_fit("b", ALT, background=bg_b, event_counts=counts_b),
        ])
        summary = corpus_background_rates(result)
        # Present-only mean: 0.3 from one URL, not (0.3 + 0.01) / 2.
        assert summary.mean_background[ALT][pol] == pytest.approx(0.3)
        assert summary.urls[ALT][pol] == 1
        # Processes present in both URLs still average over both.
        other = HAWKES_PROCESSES.index("Twitter")
        assert summary.mean_background[ALT][other] == pytest.approx(0.1)

    def test_never_present_process_reports_zero(self):
        from repro.core.influence import InfluenceResult
        k = len(HAWKES_PROCESSES)
        counts = np.zeros(k, dtype=np.int64)
        counts[0] = 3
        result = InfluenceResult(processes=HAWKES_PROCESSES, fits=[
            make_fit("a", ALT, background=np.full(k, 0.2),
                     event_counts=counts)])
        summary = corpus_background_rates(result)
        absent = summary.mean_background[ALT][1:]
        assert np.all(absent == 0.0)
        assert summary.mean_background[ALT][0] == pytest.approx(0.2)


class TestPercentChangeMasking:
    """Figure 10 regression: undefined ratio cells are NaN, never Inf."""

    @staticmethod
    def _result_with_zero_mainstream_cell():
        from repro.core.influence import InfluenceResult
        k = len(HAWKES_PROCESSES)
        w_alt = np.full((k, k), 0.2)
        w_main = np.full((k, k), 0.1)
        w_main[0, 0] = 0.0  # mainstream mean zero, alternative nonzero
        w_alt[1, 1] = 0.0
        w_main[1, 1] = 0.0  # both zero: 0/0
        return InfluenceResult(processes=HAWKES_PROCESSES, fits=[
            make_fit("a", ALT, weights=w_alt),
            make_fit("m", MAIN, weights=w_main),
        ])

    def test_non_finite_cells_become_nan(self):
        agg = aggregate_weights(self._result_with_zero_mainstream_cell())
        assert np.isnan(agg.percent_change[0, 0])  # x/0 was +Inf
        assert np.isnan(agg.percent_change[1, 1])  # 0/0 was NaN
        finite = agg.percent_change[np.isfinite(agg.percent_change)]
        assert np.all(finite == pytest.approx(100.0))
        assert not np.isinf(agg.percent_change).any()

    def test_masked_cells_serialize_as_null(self):
        from repro.api.serialize import influence_payload
        payload = influence_payload(self._result_with_zero_mainstream_cell())
        change = payload["percent_change"]
        assert change[0][0] is None
        assert change[1][1] is None
        assert change[0][1] == pytest.approx(100.0)


class TestInfluencePercentageFormula:
    def test_hand_computed(self):
        from repro.core.influence import InfluenceResult, UrlFit
        k = len(HAWKES_PROCESSES)
        weights = np.zeros((k, k))
        weights[7, 6] = 0.5  # Twitter -> /pol/
        counts = np.zeros(k, dtype=np.int64)
        counts[7] = 10  # Twitter events
        counts[6] = 5   # /pol/ events
        fit = UrlFit(url="u", category=ALT, background=np.zeros(k),
                     weights=weights, event_counts=counts, n_bins=100,
                     log_likelihood=0.0)
        result = InfluenceResult(processes=HAWKES_PROCESSES, fits=[fit])
        pct = influence_percentages(result, ALT)
        # 0.5 * 10 / 5 = 100%
        assert pct[7, 6] == pytest.approx(100.0)
