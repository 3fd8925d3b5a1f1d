"""E15 -- zero-gap bundle rolling upgrades and slice SLO admission.

The ServiceBundle layer rolls a live ``mobile-core@v1`` instance to v2
in place: deploy the replacement beside the original, copy state through
the MigrationEngine, cut over, drain the old chain.  This experiment
measures what that costs under load -- the SMF session table grows with
concurrent flows, so the state the cutover must move is load-dependent --
and contrasts the two copy disciplines (iterative ``precopy`` vs
freeze-and-copy ``stateful``), mirroring E5's migration assertion shape:
pre-copy hides the transfer outside the freeze window, so its downtime
stays below stateful under load and its coverage gap is exactly zero.

The second half runs the canned ``slice-embb-iot`` scenario and reports
the per-slice admission split: one bundle, two slices, two SLOs, every
instance priced against its own slice's objectives.
"""

from __future__ import annotations

from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.core.manager import AssignmentState
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import CBRTrafficGenerator
from repro.scenarios import run_scenario

#: Concurrent CBR flows growing the SMF session table, and the simulated
#: seconds of load before the upgrade fires.
FLOWS = 24
LOAD_DURATION_S = 20.0


def _upgrade_run(mode: str, loaded: bool):
    """Roll one loaded (or idle) mobile-core instance v1 -> v2 and measure."""
    testbed = GNFTestbed(TestbedConfig(station_count=1, seed=15))
    phone = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(0.5)
    spec = testbed.upgrades.catalogue.get("mobile-core", 1)
    assignment = testbed.manager.attach_chain(
        phone.ip, spec.chain_for("embb"), station_name="station-1"
    )
    testbed.run(6.0)
    generators = []
    if loaded:
        # Distinct src ports = distinct PDU sessions: the SMF table (and so
        # the state the upgrade must move) grows with offered load.
        for index in range(FLOWS):
            generator = CBRTrafficGenerator(
                testbed.simulator,
                phone,
                server_ip=testbed.server_ip,
                rate_pps=10,
                payload_bytes=400,
                src_port=42_000 + index,
            )
            generator.start()
            generators.append(generator)
    testbed.run(LOAD_DURATION_S)
    testbed.upgrades.register_instance(
        assignment.assignment_id, "mobile-core", 1, "embb", phone.ip, fleet="bench"
    )
    assert testbed.upgrades.upgrade_bundle("mobile-core", 2, mode=mode) == 1
    testbed.run(15.0)
    for generator in generators:
        generator.stop()
    (record,) = testbed.upgrades.telemetry()["records"]
    # Per-NF share of the moved state, from the live (now v2) chain.
    deployment = testbed.agents["station-1"].deployments[assignment.assignment_id]
    per_nf_mb = {
        deployed.nf.nf_type: len(str(deployed.nf.export_state())) / 1e6
        for deployed in deployment.deployed_nfs
    }
    census = testbed.upgrades.live_refs()
    testbed.stop()
    return record, per_nf_mb, census


def _run_experiment():
    rows = []
    measured = {}
    for loaded in (False, True):
        for mode in ("precopy", "stateful"):
            record, per_nf_mb, census = _upgrade_run(mode, loaded)
            load = "loaded" if loaded else "idle"
            measured[(mode, load)] = (record, per_nf_mb, census)
            rows.append(
                [
                    "upgrade",
                    f"{mode}/{load}",
                    round(record["state_mb"], 6),
                    record["coverage_gap_s"],
                    record["downtime_s"],
                    f"rounds={record['rounds']} census={census}",
                    record["success"],
                ]
            )
    # Downtime per NF: each NF's share of the state moved inside the final
    # copy window, for both loaded disciplines.
    for mode in ("precopy", "stateful"):
        record, per_nf_mb, _ = measured[(mode, "loaded")]
        total_mb = sum(per_nf_mb.values()) or 1.0
        for nf_type, state_mb in sorted(per_nf_mb.items()):
            rows.append(
                [
                    "nf-downtime",
                    f"{nf_type}/{mode}",
                    round(state_mb, 6),
                    "",
                    record["downtime_s"] * state_mb / total_mb,
                    f"{100.0 * state_mb / total_mb:.1f}% of moved state",
                    True,
                ]
            )
    # Slice SLO admission split on the canned two-slice scenario.
    result = run_scenario("slice-embb-iot", seed=0)
    by_slice = {}
    for assignment in result.testbed.manager.assignments.values():
        slice_name = assignment.chain.name.split("/")[-1]
        entry = by_slice.setdefault(
            slice_name, {"instances": 0, "admitted": 0, "slo": assignment.chain.slo}
        )
        entry["instances"] += 1
        entry["admitted"] += int(assignment.state is AssignmentState.ACTIVE)
    for slice_name, entry in sorted(by_slice.items()):
        slo = entry["slo"]
        rows.append(
            [
                "slice",
                slice_name,
                "",
                "",
                "",
                (
                    f"admitted {entry['admitted']}/{entry['instances']} at "
                    f"slo(latency<={slo.max_latency_s}s, bw>={slo.min_bandwidth_mbps}Mbps)"
                ),
                entry["admitted"] == entry["instances"],
            ]
        )
    return rows, measured, by_slice


def test_e15_bundle_rolling_upgrade(benchmark, record_experiment):
    rows, measured, by_slice = run_once(benchmark, _run_experiment)
    result = ExperimentResult(
        experiment_id="E15",
        title="Bundle rolling upgrades: downtime per mode/NF + slice admission",
        headers=[
            "row",
            "config",
            "state (MB)",
            "coverage gap (s)",
            "downtime (s)",
            "detail",
            "ok",
        ],
        paper_claim=(
            "GNF instantiates and manages per-client NF services at the edge "
            "without interrupting them; bundle upgrades extend that to "
            "whole-template rolls with no coverage gap"
        ),
        notes=(
            "the SMF session table grows with concurrent flows, so loaded "
            "upgrades move more state; pre-copy keeps the transfer outside "
            "the freeze window (gap exactly 0) while stateful pays the full "
            "copy inside it; slice rows show each slice admitted against "
            "its own SLO"
        ),
    )
    for row in rows:
        result.add_row(*row)
    record_experiment(result)

    for (mode, load), (record, _, census) in measured.items():
        assert record["success"], (mode, load)
        assert census == {"mobile-core@v2": 1}, (mode, load)
    # The E5 assertion shape, transplanted: pre-copy downtime strictly below
    # stateful under load, and its coverage gap is exactly zero while
    # stateful pays a real one.
    assert measured[("precopy", "loaded")][0]["downtime_s"] < measured[("stateful", "loaded")][0]["downtime_s"]
    assert measured[("precopy", "idle")][0]["coverage_gap_s"] == 0.0
    assert measured[("precopy", "loaded")][0]["coverage_gap_s"] == 0.0
    assert measured[("stateful", "loaded")][0]["coverage_gap_s"] > 0.0
    # Load grew the moved state (the session table is real).
    assert (
        measured[("stateful", "loaded")][0]["state_mb"]
        > measured[("stateful", "idle")][0]["state_mb"]
    )
    # Both slices fully admitted on the canonical unsaturated topology.
    assert by_slice["embb"]["admitted"] == by_slice["embb"]["instances"] == 2
    assert by_slice["iot"]["admitted"] == by_slice["iot"]["instances"] == 3
