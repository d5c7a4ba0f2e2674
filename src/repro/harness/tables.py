"""Plain-text table/series rendering for the figure benchmarks and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

Cell = Union[str, float, int, None]


@dataclass
class Table:
    """A renderable figure: title, column headers, and rows of cells."""

    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        """Append one row (must match the column count)."""
        if len(cells) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} cells, got "
                             f"{len(cells)}")
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Cell]:
        """All values of one column, by header name."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def render(table: Table) -> str:
    """Render a table as aligned monospace text."""
    formatted_rows = []
    for row in table.rows:
        formatted_rows.append([
            "-" if c is None else (f"{c:.3f}" if isinstance(c, float)
                                   else str(c))
            for c in row])
    widths = [len(col) for col in table.columns]
    for row in formatted_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    lines = [table.title, "=" * len(table.title)]
    header = "  ".join(col.rjust(w) for col, w in zip(table.columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in formatted_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    for note in table.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def to_csv(table: Table) -> str:
    """Render a table as CSV (header row + data rows, RFC-4180 quoting)."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()
