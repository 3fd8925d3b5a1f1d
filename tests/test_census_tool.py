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


#: The attributes ``src/`` may write without a reader, and why each stays.
WRITE_ONLY_ALLOWED = {
    "AgentHeartbeat.nf_stats": "probe hook, `perf/probes.py:339`",
    "CoverageLossRecord.lost_at": "record field",
    "CoverageLossRecord.new_station": "record field",
    "CoverageLossRecord.stranded_station": "record field",
    "HandoverEvent.new_station": "record field",
    "HandoverEvent.old_station": "record field",
    "Hotspot.threshold": "record field",
    "LatencyComparison.responses": "record field",
    "RouteEntry.interface_name": "record field",
    "StateChange.new_state": "record field",
    "StateChange.old_state": "record field",
    "Subnet.role": "record field",
}


def test_static_census_finds_no_unbuilt_class_and_no_new_write_only_state():
    # A new entry here is state nothing reads: delete it, or give it a
    # reader, or allow it above with a reason.
    assert census.unbuilt_classes() == []
    assert census.write_only_attributes() == sorted(WRITE_ONLY_ALLOWED)


def test_every_allowlisted_def_exists_and_has_a_known_reason():
    # Static: each entry of tests/golden/uncalled.json names a def that is
    # still under src/repro, for a reason from the fixed vocabulary.
    defs = {}
    for key, reason in census.allowlist().items():
        path, _, qualname = key.partition("::")
        assert path.startswith("src/repro/"), key
        if path not in defs:
            found = census._defs(os.path.join(census.REPO_ROOT, *path.split("/")))
            defs[path] = {name for _, name, _ in found}
        assert qualname in defs[path], key
        assert reason in census.REASONS, (key, reason)
