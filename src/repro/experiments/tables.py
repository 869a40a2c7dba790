"""Minimal text-table renderer for experiment output.

The benchmark harness prints the same rows the paper's tables report; this
renderer keeps that output aligned and dependency-free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float]


class TextTable:
    """Column-aligned plain-text table."""

    def __init__(self, columns: Sequence[str], *, title: Optional[str] = None) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = list(columns)
        self.title = title
        self.rows: List[List[str]] = []

    # ------------------------------------------------------------------ #
    @staticmethod
    def _format(value: Cell) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def add_row(self, values: Sequence[Cell]) -> None:
        """Append a row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}"
            )
        self.rows.append([self._format(value) for value in values])

    def add_dict_row(self, record: Dict[str, Cell]) -> None:
        """Append a row from a dict keyed by column name (missing -> '-')."""
        self.add_row([record.get(column, "-") for column in self.columns])

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Render the table to a string."""
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-+-".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
