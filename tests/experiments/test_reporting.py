"""Tests for the text reporting helpers."""

from repro.experiments.reporting import format_series, format_table


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 200, "b": None}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in text  # separator present
        assert "200" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_custom_columns(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["a", "c"])
        assert "b" not in text.splitlines()[0]

    def test_format_cell_scientific_for_extremes(self):
        text = format_table([{"x": 1e-9}, {"x": 123456.0}])
        assert "e-09" in text
        assert "e+05" in text or "1.23e" in text

    def test_format_series(self):
        text = format_series([1, 2], {"ipss": [0.1, 0.2], "tmc": [0.3, 0.4]}, x_label="gamma")
        assert "gamma" in text
        assert "ipss" in text
        assert "0.4" in text

    def test_format_series_ragged_lengths(self):
        text = format_series([1, 2, 3], {"s": [0.1]}, x_label="x")
        assert "-" in text
