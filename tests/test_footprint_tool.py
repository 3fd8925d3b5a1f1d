"""The footprint attribution tool (`tools/footprint.py`), at a smoke size."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import footprint


def test_attribution_prints_the_guard_figures_and_names_repro_lines():
    report = footprint.attribute(small=8, large=24, top=10)
    assert report.retained_per_client > 0  # the finalize peak is noise at this size
    assert len(report.lines) == 10
    sizes = [size for size, _, _ in report.lines]
    assert sizes[0] > 0
    top_files = [where for _, _, where in report.lines[:5]]
    assert all("repro/" in where for where in top_files), top_files
    # What finalize() leaves is the digest's per-entry hashes and the packed
    # workload_stats rows: lines of the scenarios package, each a gain.
    assert 0 < len(report.finalize_lines) <= 10
    assert all(size > 0 for size, _, _ in report.finalize_lines)
    top_finalize = [where for _, _, where in report.finalize_lines[:2]]
    assert all("repro/scenarios/" in where for where in top_finalize), top_finalize
