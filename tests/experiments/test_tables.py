"""Tests for the text-table renderer."""

import pytest

from repro.experiments.tables import TextTable


class TestTextTable:
    def test_basic_render(self):
        table = TextTable(["name", "value"], title="demo")
        table.add_row(["alpha", 0.123456])
        table.add_row(["beta", 2])
        text = table.render()
        assert "demo" in text
        assert "alpha" in text
        assert "0.123" in text
        assert "beta" in text

    def test_columns_aligned(self):
        table = TextTable(["a", "b"])
        table.add_row(["long-name", 1])
        table.add_row(["x", 2])
        lines = table.render().splitlines()
        # All data lines share the same separator position.
        positions = {line.index("|") for line in lines if "|" in line}
        assert len(positions) == 1

    def test_add_dict_row_fills_missing(self):
        table = TextTable(["a", "b"])
        table.add_dict_row({"a": 1})
        assert "-" in table.render()

    def test_wrong_cell_count_rejected(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])
