"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.analysis.report import ExperimentResult

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Directory for machine-readable result mirrors; set by ``--json`` (see
# conftest.py).  ``None`` disables JSON emission.
_JSON_DIR: Optional[str] = None


def configure_json_dir(path: Optional[str]) -> None:
    """Enable (or disable, with ``None``) JSON mirrors of every result."""
    global _JSON_DIR
    _JSON_DIR = path


def _write_json(result: ExperimentResult) -> str:
    assert _JSON_DIR is not None
    os.makedirs(_JSON_DIR, exist_ok=True)
    path = os.path.join(_JSON_DIR, f"{result.experiment_id.lower()}.json")
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "paper_claim": result.paper_claim,
        "notes": result.notes,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def record_result(result: ExperimentResult) -> ExperimentResult:
    """Print a paper-style result table and persist it under results/.

    When a JSON directory is configured (``pytest benchmarks --json <dir>``)
    the same result is also mirrored as ``<id>.json`` so CI jobs and
    plotting scripts can consume it without parsing markdown.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{result.experiment_id.lower()}.md")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.to_markdown())
    if _JSON_DIR is not None:
        _write_json(result)
    print()
    print(result.render())
    return result


def run_once(benchmark, func):
    """Run a deterministic full-scenario benchmark exactly once."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
