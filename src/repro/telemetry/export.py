"""Export helpers: JSON snapshots and plain-text tables.

The UI and the benchmark harness both consume these: ``snapshot_to_json``
produces the structure a REST endpoint on the Manager would serve, and
``render_table`` prints the aligned text tables the benchmark scripts use to
report paper-style result rows.
"""

from __future__ import annotations

import json
from typing import List, Mapping, Sequence


def snapshot_to_json(snapshot: Mapping[str, object], indent: int = 2) -> str:
    """Serialize a (possibly nested) snapshot into deterministic JSON."""
    return json.dumps(snapshot, indent=indent, sort_keys=True, default=str)


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
    precision: int = 3,
) -> str:
    """Render an aligned plain-text table.

    Used by every benchmark to print the rows/series a paper table or figure
    would contain.
    """
    rendered_rows: List[List[str]] = [
        [_format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(format_row([str(header) for header in headers]))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(format_row(row) for row in rendered_rows)
    return "\n".join(lines)
