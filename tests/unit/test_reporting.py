"""Unit tests for repro.reporting: tables, figures, registry."""

import pytest

from repro.reporting import EXPERIMENTS, ascii_plot, format_table, run_experiment


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len({line.index("  ") for line in lines if "  " in line}) >= 1
        assert "333" in text

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_compaction(self):
        text = format_table(["v"], [[1234567.0], [0.000001], [3.14159]])
        assert "1.23e+06" in text
        assert "1e-06" in text
        assert "3.14" in text

    def test_zero(self):
        assert "0" in format_table(["v"], [[0.0]])


class TestAsciiPlot:
    def test_empty(self):
        assert ascii_plot({}) == "(no data)"

    def test_contains_markers_and_axes(self):
        text = ascii_plot({"curve": [(1, 1), (2, 4), (3, 9)]})
        assert "* = curve" in text
        assert "x: 1 .. 3" in text

    def test_log_axes_annotated(self):
        text = ascii_plot({"c": [(1, 10), (100, 1000)]}, logx=True, logy=True)
        assert "(log)" in text

    def test_log_skips_nonpositive(self):
        text = ascii_plot({"c": [(0, 1), (10, 10)]}, logx=True)
        assert "x: 10 .. 10" in text

    def test_multiple_series_distinct_markers(self):
        text = ascii_plot({"a": [(0, 0)], "b": [(1, 1)]})
        assert "* = a" in text
        assert "o = b" in text

    def test_title_first_line(self):
        text = ascii_plot({"a": [(0, 1)]}, title="T")
        assert text.splitlines()[0] == "T"


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7", "table8", "table9", "fig4", "fig7", "fig8", "fig11",
            "fig15", "fig16",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("table99")

    def test_table1_runs(self):
        text = run_experiment("table1")
        assert "tprep" in text and "51" in text

    def test_table4_runs(self):
        text = run_experiment("table4")
        assert "tturn" in text

    def test_table5_matches_paper_latencies(self):
        text = run_experiment("table5")
        assert "95" in text and "221" in text

    def test_table6_total(self):
        text = run_experiment("table6")
        assert "298" in text

    def test_table8_total(self):
        text = run_experiment("table8")
        assert "403" in text

    def test_fig11_values(self):
        text = run_experiment("fig11")
        assert "323" in text and "90" in text

    def test_experiment_metadata(self):
        exp = EXPERIMENTS["table5"]
        assert exp.paper_ref == "Table 5"
        assert exp.description
