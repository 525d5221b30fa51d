"""Tests for table rendering and CSV figure export."""

import csv

import numpy as np

from repro.reporting.figures import write_series
from repro.reporting.tables import render_matrix_cells, render_table


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(["name", "count"],
                            [["alpha", 10], ["b", 20000]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "alpha" in text
        assert "20,000" in text

    def test_title(self):
        text = render_table(["a"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_float_formatting(self):
        text = render_table(["v"], [[0.12345], [1234.5], [12.345]])
        assert "0.1235" in text  # 4 significant digits (rounded)
        assert "1,234" in text
        assert "12.3" in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text


class TestRenderMatrix:
    def test_cells_rendered(self):
        cells = [[["A: 1", "M: 2"] for _ in range(2)] for _ in range(2)]
        text = render_matrix_cells(["p1", "p2"], cells, title="Fig 10")
        assert "Fig 10" in text
        assert "A: 1" in text
        assert text.count("M: 2") == 4

    def test_row_labels_present(self):
        cells = [[["x"] for _ in range(2)] for _ in range(2)]
        text = render_matrix_cells(["The_Donald", "Twitter"], cells)
        assert "The_Donald" in text
        assert "Twitter" in text


class TestFigureSeries:
    def test_write_series(self, tmp_path):
        path = write_series(tmp_path / "fig" / "out.csv",
                            {"x": [1, 2, 3], "y": [0.1, 0.2]})
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "y"]
        assert rows[1] == ["1", "0.1"]
        assert rows[3] == ["3", ""]  # ragged column padded

    def test_write_series_empty(self, tmp_path):
        path = write_series(tmp_path / "empty.csv", {"a": []})
        content = path.read_text().strip()
        assert content == "a"


class TestInfluenceSectionRendering:
    """Figure 10 report regression: undefined percent change is 'n/a'."""

    @staticmethod
    def _fake_influence(twitter_main_mean):
        from repro.config import HAWKES_PROCESSES
        from repro.core.influence import InfluenceResult, UrlFit
        from repro.news.domains import NewsCategory
        k = len(HAWKES_PROCESSES)
        twitter = HAWKES_PROCESSES.index("Twitter")

        def fit(url, category, tt_weight):
            weights = np.full((k, k), 0.05)
            weights[twitter, twitter] = tt_weight
            counts = np.ones(k, dtype=np.int64)
            return UrlFit(url=url, category=category,
                          background=np.full(k, 0.01), weights=weights,
                          event_counts=counts, n_bins=50,
                          log_likelihood=-1.0)
        fits = [fit("a", NewsCategory.ALTERNATIVE, 0.4),
                fit("m", NewsCategory.MAINSTREAM, twitter_main_mean)]
        return InfluenceResult(processes=HAWKES_PROCESSES, fits=fits)

    @classmethod
    def _render(cls, twitter_main_mean):
        from repro.core import aggregate_weights
        from repro.reporting.study import _section_influence
        result = cls._fake_influence(twitter_main_mean)
        return _section_influence(4, result, aggregate_weights(result))

    def test_zero_mainstream_mean_renders_na(self):
        text = self._render(twitter_main_mean=0.0)
        assert "(n/a)" in text
        assert "nan" not in text
        assert "inf%" not in text

    def test_finite_percent_change_still_rendered(self):
        text = self._render(twitter_main_mean=0.2)
        assert "+100.0%" in text
        assert "n/a" not in text

    def test_small_corpus_and_missing_category_notes(self):
        from repro.reporting.study import _section_influence
        assert "Too few URLs" in _section_influence(3, None, None)
        result = self._fake_influence(twitter_main_mean=0.2)
        text = _section_influence(5, result, None)
        assert "(Section 5, 5 URLs)" in text
        assert "Corpus lacks one of the news categories" in text
