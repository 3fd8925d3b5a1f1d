"""The statistics of ``tools/paired_bench.py``, on canned JSON (no workload is run)."""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import paired_bench

BETTER = {"run_wall_s": "lower", "sim_s_per_wall_s": "higher"}


def _run(run_wall_s, fingerprint="f00d"):
    return {
        "metrics": {
            "run_wall_s": {"value": run_wall_s, "unit": "s"},
            "sim_s_per_wall_s": {"value": 120.0 / run_wall_s, "unit": "sim-s/s"},
        },
        "failed": 0,
        "sim_fingerprint": fingerprint,
        "better": BETTER,
    }


def _layer_run(fingerprint="f00d", **overrides):
    metrics = {
        "netem.fluid.self_s": {"value": 1.0, "unit": "s"},
        "netem.fluid.calls": {"value": 1000, "unit": "count"},
        "netem.fluid.epochs": {"value": 480.0, "unit": "count"},
        "netem.fluid.fluid_byte_share": {"value": 0.944081, "unit": "ratio"},
        "core.migration.sim_downtime_ms_p50": {"value": 12.5, "unit": "ms"},
        "wireless.probe_scans_per_s": {"value": 250.0, "unit": "1/s"},
    }
    for name, value in overrides.items():
        metrics[name.replace("__", ".")]["value"] = value
    return {"metrics": metrics, "failed": 0, "sim_fingerprint": fingerprint, "better": {}}


def test_sides_alternate_who_runs_first():
    assert [paired_bench.pair_order(index)[0] for index in range(4)] == [
        "parent", "change", "parent", "change"
    ]
    assert all(sorted(paired_bench.pair_order(index)) == ["change", "parent"] for index in range(4))


def test_quartiles_stay_inside_the_sample_range():
    assert paired_bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert paired_bench.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert paired_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_tie_counts_for_neither_side():
    parent = [3.0, 3.0, 3.0, 3.0]
    change = [2.0, 3.0, 4.0, 2.5]
    assert paired_bench.tally(parent, change, "lower") == {"wins": 2, "ties": 1, "losses": 1}
    assert paired_bench.tally(parent, change, "higher") == {"wins": 1, "ties": 1, "losses": 2}


def test_simulated_counters_drop_host_times_and_profiler_call_counts():
    assert sorted(paired_bench.simulated_counters(_layer_run()["metrics"])) == [
        "core.migration.sim_downtime_ms_p50", "netem.fluid.epochs", "netem.fluid.fluid_byte_share",
    ]
    # On the declared metric set that leaves exactly the 17 simulated counters.
    with open(os.path.join(paired_bench.REPO_ROOT, "BENCHMARK.json")) as handle:
        declared = {
            entry["name"]: {"value": 0.0, "unit": entry["unit"]}
            for entry in json.load(handle)["per_layer"]
        }
    assert len(paired_bench.simulated_counters(declared)) == 17


def test_summarise_reports_per_side_quartiles_wins_and_equality():
    runs = {
        "parent": [_run(4.0), _run(3.0), _run(5.0)],
        "change": [_run(2.0), _run(3.0), _run(2.5)],
    }
    report = paired_bench.summarise(runs, {"parent": _layer_run(), "change": _layer_run()})
    wall = report["metrics"]["run_wall_s"]
    assert wall["parent"] == (3.5, 4.0, 4.5) and wall["change"] == (2.25, 2.5, 2.75)
    assert (wall["wins"], wall["ties"], wall["losses"]) == (2, 1, 0)
    rate = report["metrics"]["sim_s_per_wall_s"]
    assert (rate["better"], rate["wins"], rate["ties"]) == ("higher", 2, 1)
    assert report["fingerprint_equal"]
    assert (report["counters"], report["counters_differing"]) == (3, [])


def test_summarise_flags_a_differing_fingerprint_or_counter():
    runs = {"parent": [_run(4.0)], "change": [_run(2.0, fingerprint="beef")]}
    layers = {"parent": _layer_run(), "change": _layer_run(netem__fluid__epochs=481.0)}
    report = paired_bench.summarise(runs, layers)
    assert not report["fingerprint_equal"]
    assert report["counters_differing"] == ["netem.fluid.epochs"]
    # A call count that moved is the point of a perf change, not a difference.
    layers["change"] = _layer_run(netem__fluid__calls=10)
    runs["change"] = [_run(2.0)]
    report = paired_bench.summarise(runs, layers)
    assert report["fingerprint_equal"] and report["counters_differing"] == []
    # Only the traced run differing is still a difference.
    layers["change"] = _layer_run(fingerprint="beef")
    assert not paired_bench.summarise(runs, layers)["fingerprint_equal"]
