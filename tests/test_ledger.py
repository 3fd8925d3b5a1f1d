"""The perf ledger (`tools/ledger.py`): its committed rows and its row diff."""

from __future__ import annotations

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import ledger

ROWS = ledger.load_rows()


def test_every_row_is_a_full_layer_run_of_every_workload():
    assert len(ROWS) >= 2
    for path, row in zip(ledger.row_paths(), ROWS):
        assert os.path.basename(path) == f"BENCH_{row['ledger']['pr']}.json"
        assert row["provenance"]["mode"] == "layers"
        assert row["provenance"]["scale"] == "full"
        if row["ledger"]["rev"]:
            assert row["provenance"]["git_sha"] == row["ledger"]["rev"]
        else:  # a PR's own row, measured before its commit
            assert row["provenance"]["git_sha"] == f"uncommitted on {row['ledger']['parent']}"
        assert set(row["workloads"]) == set(ledger.WORKLOADS)
    newest = ROWS[-1]["workloads"].values()
    assert all(workload["ops_failed"] == 0 for workload in newest)


def test_a_row_is_only_made_from_a_full_layer_run():
    newest = ROWS[-1]
    tiny = {"provenance": dict(newest["provenance"], scale="tiny"), "workloads": newest["workloads"]}
    with pytest.raises(ValueError, match="full-scale"):
        ledger.make_row(tiny, 99, None)
    end_to_end = {"provenance": dict(newest["provenance"], mode="end_to_end"), "workloads": {}}
    with pytest.raises(ValueError, match="full-scale"):
        ledger.make_row(end_to_end, 99, None)
    partial = {"provenance": newest["provenance"], "workloads": {}}
    with pytest.raises(ValueError, match="lacks workload"):
        ledger.make_row(partial, 99, None)
    archived = {
        "provenance": dict(newest["provenance"], git_sha="unknown (not a git checkout)"),
        "workloads": newest["workloads"],
    }
    with pytest.raises(ValueError, match="--rev"):
        ledger.make_row(archived, 99, None)


def test_row_diff_passes_call_count_drift_and_nothing_else():
    base = ROWS[-1]
    assert ledger.diff_status(base, base) == (0, [])
    other = copy.deepcopy(base)
    other["workloads"]["bulk-hybrid"]["per_layer"]["scenarios.runner.calls"]["value"] += 1
    assert ledger.diff_status(base, other) == (0, ["scenarios.runner.calls"])
    other["workloads"]["bulk-hybrid"]["per_layer"]["netem.simulator.events"]["value"] += 1
    assert ledger.diff_status(base, other)[0] == 1
    failing = copy.deepcopy(base)
    failing["workloads"]["edge-dataplane"]["failed_share"] = 0.5
    assert ledger.diff_status(base, failing)[0] == 1


def test_trajectory_has_one_line_per_row_in_each_table():
    table = ledger.trajectory_table(ROWS)
    for row in ROWS:
        head = f"| {row['ledger']['pr']} | {ledger._rev_cell(row)} |"
        assert table.count(head) == 2
