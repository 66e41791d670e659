"""Tests for statistics helpers and experiment reporting."""

import numpy as np
import pytest

from repro.analysis import (
    Comparison,
    ExperimentResult,
    cdf_points,
    fraction_at_least,
    fraction_below,
    pdf_histogram,
    render_results,
)


class TestCDF:
    def test_unweighted(self):
        x, y = cdf_points([3.0, 1.0, 2.0])
        assert list(x) == [1.0, 2.0, 3.0]
        assert list(y) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_weighted(self):
        x, y = cdf_points([1.0, 2.0], weights=[1.0, 3.0])
        assert list(y) == pytest.approx([0.25, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_points([])


class TestFractions:
    def test_below(self):
        assert fraction_below([1, 2, 3, 4], 3) == 0.5

    def test_below_weighted(self):
        assert fraction_below([1, 10], 5, weights=[9, 1]) == \
            pytest.approx(0.9)

    def test_at_least(self):
        assert fraction_at_least([1, 2, 3, 4], 3) == 0.5


class TestHistogramAndSummary:
    def test_pdf_density_integrates_to_one(self):
        rng = np.random.default_rng(1)
        centers, density = pdf_histogram(rng.normal(0, 1, 5_000), bins=40)
        width = centers[1] - centers[0]
        assert float(np.sum(density) * width) == pytest.approx(1.0,
                                                               abs=0.02)


class TestReporting:
    def test_compare_and_render(self):
        result = ExperimentResult("figX", "Test figure")
        result.metrics["value"] = 3.14
        result.compare("first", "1.0", "1.1", True)
        result.compare("second", "2.0", "9.9", False)
        text = result.render()
        assert "figX" in text and "ok " in text and "MISS" in text
        assert not result.all_hold

    def test_all_hold(self):
        result = ExperimentResult("figY", "t")
        result.compare("only", "x", "x", True)
        assert result.all_hold

    def test_render_results_summary(self):
        a = ExperimentResult("a", "A")
        a.compare("m", "p", "v", True)
        b = ExperimentResult("b", "B")
        b.compare("m", "p", "v", False)
        text = render_results([a, b])
        assert "1/2 experiments" in text

    def test_comparison_row_format(self):
        row = Comparison("metric", "10", "11", True).row()
        assert row.startswith("  [ok ]")


class TestJSONExport:
    def test_to_dict_basic(self):
        result = ExperimentResult("figZ", "Z")
        result.metrics["m"] = 1.5
        result.compare("c", "1", "2", False)
        data = result.to_dict()
        assert data["experiment_id"] == "figZ"
        assert data["metrics"] == {"m": 1.5}
        assert data["comparisons"][0]["holds"] is False
        assert data["all_hold"] is False

    def test_to_dict_with_numeric_series(self):
        import json
        result = ExperimentResult("figZ", "Z")
        result.series["line"] = ([1, 2], [0.5, 1.0])
        result.series["labels"] = (["a", "b"], [1, 2])  # non-numeric axis
        data = result.to_dict(include_series=True)
        assert data["series"]["line"] == [[1.0, 2.0], [0.5, 1.0]]
        assert "labels" not in data["series"]
        json.dumps(data)  # fully serializable
