"""Plain-text rendering of experiment results (aligned tables)."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Render an aligned text table with a title line."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(str(column)), *(len(row[i]) for row in rendered_rows))
        if rendered_rows
        else len(str(column))
        for i, column in enumerate(columns)
    ]
    lines = [title, ""]
    header = "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
