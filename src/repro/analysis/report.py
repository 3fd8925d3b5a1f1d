"""Experiment result records and report rendering.

Every benchmark builds an :class:`ExperimentResult` (headers + rows + notes),
prints it with the same table renderer the UI uses, and can append it to an
:class:`ExperimentReport` -- the machinery used to populate EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.telemetry.export import render_table


@dataclass
class ExperimentResult:
    """One reproduced table/figure."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    paper_claim: str = ""
    notes: str = ""

    def add_row(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def render(self, precision: int = 4) -> str:
        """Plain-text rendering (what the benchmark prints)."""
        table = render_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}", precision=precision)
        sections = [table]
        if self.paper_claim:
            sections.append(f"paper claim : {self.paper_claim}")
        if self.notes:
            sections.append(f"notes       : {self.notes}")
        return "\n".join(sections)

    def to_markdown(self, precision: int = 4) -> str:
        """Markdown rendering used when assembling EXPERIMENTS.md."""
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                return f"{cell:.{precision}f}"
            return str(cell)

        lines = [f"### {self.experiment_id}: {self.title}", ""]
        if self.paper_claim:
            lines.append(f"*Paper claim:* {self.paper_claim}")
            lines.append("")
        lines.append("| " + " | ".join(str(h) for h in self.headers) + " |")
        lines.append("|" + "|".join(["---"] * len(self.headers)) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(cell) for cell in row) + " |")
        if self.notes:
            lines.append("")
            lines.append(f"*Notes:* {self.notes}")
        lines.append("")
        return "\n".join(lines)


class ExperimentReport:
    """A collection of experiment results (one full reproduction run)."""

    def __init__(self, title: str = "GNF reproduction results") -> None:
        self.title = title
        self.results: List[ExperimentResult] = []

    def add(self, result: ExperimentResult) -> ExperimentResult:
        self.results.append(result)
        return result

    def render(self) -> str:
        blocks = [self.title, "=" * len(self.title), ""]
        for result in self.results:
            blocks.append(result.render())
            blocks.append("")
        return "\n".join(blocks)

    def to_markdown(self) -> str:
        blocks = [f"# {self.title}", ""]
        for result in self.results:
            blocks.append(result.to_markdown())
        return "\n".join(blocks)

    def save(self, path: str) -> None:
        """Write the markdown report to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_markdown())
