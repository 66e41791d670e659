"""Tests for ASCII plotting and the dig tool."""

import pytest

from repro.analysis import PlotConfig, ascii_plot


class TestAsciiPlot:
    def test_basic_render(self):
        text = ascii_plot({"line": ([0, 1, 2], [0.0, 0.5, 1.0])},
                          title="T", x_label="x")
        assert "T" in text
        assert "* line" in text
        assert text.count("\n") > 10

    def test_multiple_series_distinct_marks(self):
        text = ascii_plot({"a": ([0, 1], [0, 1]),
                           "b": ([0, 1], [1, 0])})
        assert "* a" in text and "o b" in text

    def test_log_x(self):
        text = ascii_plot({"cdf": ([0.1, 1.0, 10.0, 100.0],
                                   [0.25, 0.5, 0.75, 1.0])},
                          config=PlotConfig(log_x=True))
        assert "0.1" in text and "100" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"x": ([], [])})

    def test_deterministic(self):
        series = {"s": ([0, 5, 9], [1, 4, 2])}
        assert ascii_plot(series) == ascii_plot(series)

    def test_custom_canvas(self):
        text = ascii_plot({"s": ([0, 1], [0, 1])},
                          config=PlotConfig(height=5))
        rows = [r for r in text.splitlines() if "|" in r]
        assert len(rows) == 5


class TestDigTool:
    @pytest.fixture(scope="class")
    def deployment(self):
        from repro.tools.dig import default_deployment
        return default_deployment(seed=11)

    def test_lookup_adhs(self, deployment):
        from repro.dnscore import RCode
        from repro.tools.dig import lookup
        result = lookup(deployment, "www.acme.net")
        assert result.rcode == RCode.NOERROR
        assert result.addresses() == ["203.0.113.10"]

    def test_format_includes_sections(self, deployment):
        from repro.tools.dig import format_result, lookup
        result = lookup(deployment, "cdn.acme.net")
        text = format_result(result, trace=True)
        assert ";; QUESTION: cdn.acme.net. A" in text
        assert ";; TRACE:" in text
        assert "CNAME acme.edgesuite.net." in text

    def test_nxdomain_formatting(self, deployment):
        from repro.dnscore import RCode
        from repro.tools.dig import format_result, lookup
        result = lookup(deployment, "missing.acme.net")
        assert result.rcode == RCode.NXDOMAIN
        assert "no such name" in format_result(result)
