"""The call census (`tools/census.py`), on one short canned scenario."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import census


def test_census_of_one_scenario_lists_what_it_never_entered():
    uncalled = census.census([("fig2-roaming", {})])
    listed = {(entry.path.replace(os.sep, "/"), entry.qualname) for entry in uncalled}
    # The event loop runs every scenario; the rollup oracle runs in none.
    assert ("src/repro/netem/simulator.py", "Simulator.run") not in listed
    assert ("src/repro/core/sharding.py", "ShardedManager.full_scan_overview") in listed
    assert all(entry.lines >= 1 for entry in uncalled)
    assert uncalled == sorted(uncalled, key=lambda entry: (entry.path, entry.line))
