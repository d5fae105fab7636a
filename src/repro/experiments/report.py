"""ASCII rendering of figure results for the experiment CLI."""

from __future__ import annotations

from repro.experiments.figures import FigureResult


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(rows: list[dict], columns: list[str]) -> str:
    """Render rows as a fixed-width ASCII table."""
    if not rows:
        return "(no rows)"
    header = [str(column) for column in columns]
    body = [[_format_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body))
        for i in range(len(columns))
    ]
    def render_line(cells):
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
    separator = "  ".join("-" * width for width in widths)
    return "\n".join([render_line(header), separator] + [render_line(line) for line in body])


def render_figure(result: FigureResult) -> str:
    """Full report block for one figure."""
    parts = [
        f"== {result.name}: {result.description} ==",
        format_table(result.rows, result.columns),
    ]
    for note in result.notes:
        parts.append(f"note: {note}")
    return "\n".join(parts)
