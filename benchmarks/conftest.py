"""Shared fixtures for the benchmark harness.

Each benchmark module reproduces one experiment of the catalogue in
docs/BENCHMARKS.md (E1..E16), prints the paper-style result table and
writes it to ``benchmarks/results/<experiment>.md`` so every reported
number can be regenerated at any time.
"""

from __future__ import annotations

import os
import sys

import pytest

# Make _bench_utils (and tools/heartbeat_waves) importable regardless of
# how pytest inserts paths.
sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

from _bench_utils import configure_json_dir, record_result  # noqa: E402


def pytest_addoption(parser):
    """The result mirror, and E12's fleet size (a 10k-client headline run
    locally, a 40-client smoke in CI)."""
    group = parser.getgroup("gnf-benchmarks")
    group.addoption(
        "--json",
        default=None,
        metavar="DIR",
        help="Also mirror every ExperimentResult as <id>.json under DIR",
    )
    group.addoption(
        "--e12-clients",
        type=int,
        default=10_000,
        help="Bulk-client count for the E12 hybrid-core bench (default: 10000)",
    )


def pytest_configure(config):
    configure_json_dir(config.getoption("--json"))


@pytest.fixture
def record_experiment():
    """Return a callable that prints and persists an ExperimentResult."""
    return record_result
