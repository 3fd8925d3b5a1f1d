"""The scenario engine: specs, runner, faults and the canned library.

The determinism matrix here is the PR's core regression gate: every canned
scenario is run twice under the same seed and must produce an identical
:class:`MetricsDigest`.  Anyone introducing global-``random`` calls,
dict-order nondeterminism or wall-clock leakage into the data path breaks
these tests loudly, with the digest diff naming the telemetry section that
moved.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import os

import pytest

from repro.core import errors
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.scenarios import (
    ChainAssignmentSpec,
    ClientFleetSpec,
    FaultSpec,
    MetricsDigest,
    MobilitySpec,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioSpecError,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
    run_scenario,
    scenario_names,
)

# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_validation_rejects_bad_inputs():
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="", duration_s=10.0).validate()
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="x", duration_s=0.0).validate()
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            fleets=[ClientFleetSpec(name="a", mobility=MobilitySpec(model="teleport"))],
        ).validate()
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            fleets=[ClientFleetSpec(name="a", workloads=[WorkloadSpec(kind="carrier-pigeon")])],
        ).validate()
    # Assignment referencing a fleet that does not exist.
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            fleets=[ClientFleetSpec(name="a")],
            assignments=[ChainAssignmentSpec(fleet="b", nfs=["firewall"])],
        ).validate()
    # Fault targeting a station beyond the topology.
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x",
            topology=TopologySpec(station_count=2),
            faults=[FaultSpec(kind="link-down", station=3, at_s=1.0)],
        ).validate()
    # Duplicate fleet names are ambiguous.
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(
            name="x", fleets=[ClientFleetSpec(name="a"), ClientFleetSpec(name="a")]
        ).validate()


def test_spec_round_trips_to_plain_data():
    spec = build_scenario("chaos-soak", seed=5)
    data = spec.to_dict()
    assert data["name"] == "chaos-soak"
    assert data["seed"] == 5
    assert data["topology"]["station_count"] == 3
    assert all(isinstance(fault["kind"], str) for fault in data["faults"])
    # to_dict must be pure data (JSON-able), no live objects.
    json.dumps(data)


def test_topology_spec_is_the_testbed_config():
    assert TopologySpec is TestbedConfig
    assert ScenarioSpecError is errors.ScenarioSpecError
    assert issubclass(ScenarioSpecError, ValueError)


@pytest.mark.parametrize("name", scenario_names())
def test_every_canned_spec_round_trips_through_plain_data(name):
    spec = build_scenario(name, seed=3)
    data = spec.to_dict()
    json.dumps(data)
    assert list(data["topology"]) == [f.name for f in dataclasses.fields(TestbedConfig)]
    assert TestbedConfig(**spec.topology.to_dict()) == spec.topology
    assert data["topology"] == spec.topology.to_dict()


def test_to_dict_of_a_hand_built_spec_is_the_expected_literal():
    spec = ScenarioSpec(
        name="tiny",
        seed=4,
        duration_s=5.0,
        fleets=[
            ClientFleetSpec(
                name="f",
                position=(1.0, 2.0),
                mobility=MobilitySpec(model="linear", params={"velocity_mps": (1.0, 0.0)}),
                workloads=[WorkloadSpec(kind="dns", stop_s=3.0, params={"names": ["a.example"]})],
            )
        ],
        assignments=[
            ChainAssignmentSpec(fleet="f", nfs=["firewall", {"nf_type": "ids", "config": {"x": 1}}]),
            ChainAssignmentSpec(fleet="f", nfs=["nat"], daily_window=(10.0, 20.0)),
        ],
        faults=[FaultSpec(kind="link-down", station=2, at_s=1.0)],
    )
    data = spec.validate().to_dict()
    assert data.pop("topology") == dataclasses.asdict(TestbedConfig())
    chain = {
        "attach_at_s": 1.0,
        "detach_at_s": None,
        "day_length_s": 86_400.0,
        "slo_max_latency_s": None,
        "slo_min_bandwidth_mbps": 0.0,
    }
    assert data == {
        "name": "tiny",
        "description": "",
        "seed": 4,
        "duration_s": 5.0,
        "fleets": [
            {
                "name": "f",
                "count": 1,
                "position": [1.0, 2.0],
                "spread_m": 0.0,
                "appear_at_s": 0.0,
                "appear_stagger_s": 0.0,
                "mobility": {
                    "model": "linear",
                    "start_s": 0.0,
                    "params": {"velocity_mps": [1.0, 0.0]},
                },
                "workloads": [
                    {
                        "kind": "dns",
                        "start_s": 0.0,
                        "stop_s": 3.0,
                        "era_scaled": True,
                        "params": {"names": ["a.example"]},
                    }
                ],
            }
        ],
        "assignments": [
            {
                "fleet": "f",
                "nfs": ["firewall", {"nf_type": "ids", "config": {"x": 1}}],
                "daily_window": None,
                **chain,
            },
            {"fleet": "f", "nfs": ["nat"], "daily_window": [10.0, 20.0], **chain},
        ],
        "bundles": [],
        "upgrades": [],
        "faults": [
            {"kind": "link-down", "station": 2, "at_s": 1.0, "duration_s": None, "params": {}}
        ],
        "eras": [],
    }


# ---------------------------------------------------------------------------
# One deployment config: overrides and rejections
# ---------------------------------------------------------------------------

_OTHER_NAME = {
    "station_profile": "server",
    "migration_strategy": "precopy",
    "placement_strategy": "least-loaded",
    "simulation_mode": "hybrid",
}


def _non_default(field: dataclasses.Field):
    """A legal value for ``field`` that differs from its default."""
    default = getattr(TestbedConfig(), field.name)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 0.75 or 0.125
    if isinstance(default, dict):
        return {"edge.example.com": ["198.51.100.7"]}
    return _OTHER_NAME[field.name]  # a new name-valued knob needs its other name here


def _knob_spec() -> ScenarioSpec:
    return ScenarioSpec(name="knobs", seed=2, duration_s=1.0, fleets=[ClientFleetSpec(name="f")])


@pytest.mark.parametrize("field", dataclasses.fields(TestbedConfig), ids=lambda f: f.name)
def test_every_config_field_is_a_run_time_override(field):
    spec = _knob_spec()
    before = copy.deepcopy(spec.topology)
    value = _non_default(field)
    assert value != getattr(before, field.name)
    run = ScenarioRunner(spec).start(**{field.name: value})
    assert getattr(run.testbed.config, field.name) == value
    assert spec.topology == before and run.testbed.config is not spec.topology
    assert run.finalize().drained


BAD_KNOBS = [
    {"station_count": 0},
    {"cells_per_station": 0},
    {"server_count": 0},
    {"station_profile": "mainframe"},
    {"uplink_bandwidth_bps": 0},
    {"migration_strategy": "teleport"},
    {"precopy_max_rounds": 0},
    {"precopy_downtime_target_s": 0.0},
    {"precopy_dirty_fraction": 1.0},
    {"heartbeat_interval_s": -1},
    {"scan_interval_s": 0},
    {"handover_scan_jitter_s": -0.1},
    {"placement_strategy": "teleport"},
    {"admission_queue_timeout_s": 0.0},
    {"autoscale_interval_s": 0.0},
    {"autoscale_up_threshold": 0.2, "autoscale_down_threshold": 0.9},
    {"autoscale_down_threshold": 0.0},
    {"autoscale_max_replicas": -1},
    {"shard_count": 0},
    {"region_count": 0},
    {"region_count": 3},  # more regions than the two stations
    {"simulation_mode": "quantum"},
    # NaN passes every `<=`/`<` rule and inf is never reached: both are refused.
    {"heartbeat_interval_s": float("nan")},
    {"scan_interval_s": float("nan")},
    {"uplink_bandwidth_bps": float("inf")},
    {"station_spacing_m": float("nan")},
    {"handover_scan_jitter_s": float("inf")},
]


@pytest.mark.parametrize("bad", BAD_KNOBS, ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_a_bad_knob_is_rejected_the_same_way_through_every_door(bad):
    with pytest.raises(ScenarioSpecError, match=next(iter(bad))):
        TestbedConfig(**bad).validate()
    with pytest.raises(ScenarioSpecError):
        GNFTestbed(TestbedConfig(**bad))
    with pytest.raises(ScenarioSpecError):
        ScenarioRunner(_knob_spec()).start(**bad)
    with pytest.raises(ScenarioSpecError):
        ScenarioSpec(name="x", topology=TopologySpec(**bad)).validate()


def _spec_with_every_timed_part() -> ScenarioSpec:
    return ScenarioSpec(
        name="finite",
        duration_s=5.0,
        fleets=[ClientFleetSpec(name="f", workloads=[WorkloadSpec(kind="cbr")])],
        assignments=[ChainAssignmentSpec(fleet="f", nfs=["firewall"])],
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "path",
    ["duration_s", "fleets.0.position", "fleets.0.workloads.0.start_s", "assignments.0.attach_at_s"],
)
def test_a_non_finite_spec_number_is_rejected(path, bad):
    spec = _spec_with_every_timed_part()
    spec.validate()
    *parents, name = path.split(".")
    owner = spec
    for step in parents:
        owner = owner[int(step)] if step.isdigit() else getattr(owner, step)
    setattr(owner, name, (bad, 0.0) if name == "position" else bad)
    with pytest.raises(ScenarioSpecError, match=f"{name} must be finite"):
        spec.validate()


def test_unknown_override_is_rejected_and_none_keeps_the_spec_value():
    spec = _knob_spec()
    spec.topology.shard_count = 2
    with pytest.raises(ScenarioSpecError, match="warp_factor"):
        ScenarioRunner(spec).start(warp_factor=9)
    run = ScenarioRunner(spec).start(shard_count=None, migration_strategy=None)
    assert run.testbed.config.shard_count == 2
    assert run.testbed.config.migration_strategy == "cold"
    assert run.testbed.config.seed == spec.seed == 2  # the run seed, not topology.seed
    run.finalize()


# ---------------------------------------------------------------------------
# The CLI passes its flags through as config fields
# ---------------------------------------------------------------------------


def _cli_main():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "examples", "run_scenario.py")
    module_spec = importlib.util.spec_from_file_location("run_scenario_cli", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.main


def test_cli_overrides_and_determinism_check(capsys):
    assert _cli_main()(["fig2-roaming", "--regions", "2", "--shards", "1", "--check-determinism"]) == 0
    assert "determinism       : OK" in capsys.readouterr().out


def test_cli_rejects_a_bad_knob_with_the_valid_names(capsys):
    with pytest.raises(SystemExit) as exit_info:
        _cli_main()(["fig2-roaming", "--placement", "nope"])
    assert exit_info.value.code != 0
    message = capsys.readouterr().err
    assert "nope" in message and "closest-agent" in message and "embedding" in message


def test_chain_assignment_normalises_nf_entries():
    assignment = ChainAssignmentSpec(
        fleet="f",
        nfs=["firewall", {"nf_type": "http-filter", "config": {"blocked_hosts": ["x"]}}],
    )
    assert assignment.nf_specs() == [
        ("firewall", {}),
        ("http-filter", {"blocked_hosts": ["x"]}),
    ]


def test_chain_assignment_carries_requirements_and_slo():
    assignment = ChainAssignmentSpec(
        fleet="f",
        nfs=["firewall", {"nf_type": "ids", "requirements": {"memory_mb": 9.0}}],
        slo_max_latency_s=0.25,
        slo_min_bandwidth_mbps=1.0,
    )
    assert assignment.nf_requirements() == [None, {"memory_mb": 9.0}]
    assert assignment.has_slo()
    data = assignment.to_dict()
    assert data["slo_max_latency_s"] == 0.25
    assert data["slo_min_bandwidth_mbps"] == 1.0
    # Bad SLOs and unknown requirement keys are rejected at validate time.
    def spec_with(assignment_spec):
        return ScenarioSpec(
            name="x", fleets=[ClientFleetSpec(name="f")], assignments=[assignment_spec]
        )

    with pytest.raises(ScenarioSpecError):
        spec_with(
            ChainAssignmentSpec(fleet="f", nfs=["firewall"], slo_max_latency_s=0.0)
        ).validate()
    with pytest.raises(ScenarioSpecError):
        spec_with(
            ChainAssignmentSpec(fleet="f", nfs=["firewall"], slo_min_bandwidth_mbps=-1.0)
        ).validate()
    with pytest.raises(ScenarioSpecError):
        spec_with(
            ChainAssignmentSpec(
                fleet="f", nfs=[{"nf_type": "ids", "requirements": {"gpu_count": 1}}]
            )
        ).validate()


# ---------------------------------------------------------------------------
# The canned library + determinism matrix (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_library_has_at_least_eight_canned_scenarios():
    names = scenario_names()
    assert len(names) >= 8, names
    for required in (
        "commuter-rush",
        "flash-crowd",
        "rolling-failure",
        "video-cell",
        "firewall-churn",
        "scheduler-day-cycle",
        "mixed-chain-density",
        "chaos-soak",
    ):
        assert required in names


@pytest.mark.parametrize("name", scenario_names())
def test_every_canned_scenario_replays_to_identical_digest(name):
    first = run_scenario(name, seed=11)
    second = run_scenario(name, seed=11)
    assert first.drained, f"{name}: first run left {first.pending_events_after_teardown} events"
    assert second.drained
    assert not first.attach_failures, first.attach_failures
    assert first.digest == second.digest, (
        f"{name} is not deterministic; differing telemetry sections: "
        f"{first.digest.diff(second.digest)}"
    )
    # The digest must be a real fingerprint, not a constant.
    assert first.digest.hexdigest != MetricsDigest.compute({}).hexdigest
    # Every scenario must generate actual traffic through the testbed.
    assert first.testbed.topology.gateway.packets_routed_upstream > 0
    # NF churn leaves no per-port switch state behind (port numbers are never reused).
    for station in first.testbed.topology.stations.values():
        assert set(station.switch._slowpath_busy_until) <= set(station.switch.ports), station.name


def test_different_seeds_change_seeded_scenarios():
    # commuter-rush draws speeds/dwell times from the seed, so two seeds must
    # diverge in telemetry (this is the "way to vary runs" the seed threading
    # exists for).
    a = run_scenario("commuter-rush", seed=1)
    b = run_scenario("commuter-rush", seed=2)
    assert a.digest != b.digest


# ---------------------------------------------------------------------------
# Rolling failure: a live chain demonstrably migrates (acceptance criterion)
# ---------------------------------------------------------------------------


def test_rolling_failure_migrates_live_chain():
    runner = ScenarioRunner(build_scenario("rolling-failure", seed=1))
    run = runner.start()
    # Station-1 crashes at t=15; by t=40 its user must have roamed away and
    # its chain must be live at the new station.
    run.advance(40.0)
    testbed = run.testbed
    client = testbed.clients["user1-1"]
    assert client.current_station_name not in (None, "station-1")
    new_station = client.current_station_name
    deployment = testbed.agents[new_station].deployment_for_client(client.ip)
    assert deployment is not None, "migrated chain not found at the new station"
    assert all(d.container.is_running for d in deployment.deployed_nfs)
    # Telemetry-based evidence: the migration record completed and the
    # migrated chain is processing the client's live traffic.
    records = [r for r in testbed.roaming.records if r.client_ip == client.ip and r.success]
    assert records, "no successful migration record in roaming telemetry"
    assert records[0].from_station == "station-1"
    assert records[0].to_station == new_station
    assert sum(d.packets_processed for d in deployment.deployed_nfs) > 0
    # Crash evidence also reached the provider-facing telemetry.
    assert testbed.manager.notifications.summary().get("critical", 0) >= 1
    sections = run.telemetry_sections()
    assert sections["faults"]["summary"]["faults_station-crash"] >= 1
    result = run.finalize()
    assert result.migrations_completed >= 1
    assert result.drained


# ---------------------------------------------------------------------------
# Fault injector details
# ---------------------------------------------------------------------------


def test_link_degrade_applies_and_recovers():
    spec = ScenarioSpec(
        name="degrade-test",
        seed=0,
        duration_s=20.0,
        topology=TopologySpec(station_count=1),
        fleets=[
            ClientFleetSpec(
                name="c",
                count=1,
                workloads=[WorkloadSpec(kind="cbr", start_s=1.0, params={"rate_pps": 50.0})],
            )
        ],
        faults=[
            FaultSpec(
                kind="link-degrade",
                station=1,
                at_s=5.0,
                duration_s=5.0,
                params={"bandwidth_factor": 0.01, "loss_rate": 0.2},
            )
        ],
    )
    run = ScenarioRunner(spec).start()
    link = run.testbed.topology.uplink_links["station-1"]
    original_bw = link.bandwidth_bps
    run.advance(6.0)
    assert link.bandwidth_bps == pytest.approx(original_bw * 0.01)
    assert link.loss_rate == pytest.approx(0.2)
    run.advance(6.0)
    assert link.bandwidth_bps == pytest.approx(original_bw)
    assert link.loss_rate == 0.0
    result = run.finalize()
    assert result.drained
    # Degradation must actually have cost packets.
    generator = run.generators["c-1/cbr0"]
    assert generator.loss_rate() > 0.0


def test_container_oom_kills_one_nf_container():
    spec = ScenarioSpec(
        name="oom-test",
        seed=0,
        duration_s=25.0,
        topology=TopologySpec(station_count=1),
        fleets=[ClientFleetSpec(name="c", count=1)],
        assignments=[ChainAssignmentSpec(fleet="c", nfs=["firewall"], attach_at_s=1.0)],
        faults=[FaultSpec(kind="container-oom", station=1, at_s=15.0)],
    )
    result = ScenarioRunner(spec).run()
    agent = result.testbed.agents["station-1"]
    assert agent.runtime.containers_failed == 1
    failed = [c for c in agent.runtime.containers.values() if c.state.value == "failed"]
    assert len(failed) == 1
    assert result.drained


def test_station_crash_recovery_restores_service():
    spec = ScenarioSpec(
        name="crash-recover-test",
        seed=0,
        duration_s=40.0,
        topology=TopologySpec(station_count=1),
        fleets=[
            ClientFleetSpec(
                name="c",
                count=1,
                workloads=[WorkloadSpec(kind="cbr", start_s=1.0, params={"rate_pps": 20.0})],
            )
        ],
        faults=[FaultSpec(kind="station-crash", station=1, at_s=10.0, duration_s=10.0)],
    )
    run = ScenarioRunner(spec).start()
    run.advance(15.0)
    # Crashed: cells silent, uplink down (single station => client is stuck).
    cell = next(iter(run.testbed.cells.values()))
    assert not cell.enabled
    assert not run.testbed.topology.uplink_links["station-1"].up
    run.advance(10.0)
    assert cell.enabled
    assert run.testbed.topology.uplink_links["station-1"].up
    generator = run.generators["c-1/cbr0"]
    before = generator.responses_received
    run.advance(10.0)
    # After recovery the client re-associates and echoes flow again.
    assert generator.responses_received > before
    assert run.finalize().drained


# ---------------------------------------------------------------------------
# Runner behaviours
# ---------------------------------------------------------------------------


def test_staggered_appearance_and_attach_burst():
    spec = build_scenario("flash-crowd", seed=2)
    run = ScenarioRunner(spec).start()
    assert len(run.testbed.clients) == 0  # everyone appears later
    run.advance(5.0)
    assert len(run.testbed.clients) == 8
    result = run.finalize()
    states = {a.state.value for _, a in run.assignments}
    assert len(run.assignments) == 8
    assert states == {"active"}
    assert result.drained


def test_detach_schedule_removes_chain():
    spec = build_scenario("firewall-churn", seed=0)
    run = ScenarioRunner(spec).start()
    run.advance(22.0)  # first wave attached at 2, detached at 18
    manager = run.testbed.manager
    removed = [a for _, a in run.assignments if a.state.value == "removed"]
    assert len(removed) == 3
    for station in run.testbed.agents.values():
        for deployment in station.deployments.values():
            assert deployment.assignment_id in manager.assignments
    assert run.finalize().drained


def test_workload_stats_are_frozen_at_the_finalize_instant():
    """Echoes still in flight at teardown land during the drain; the result
    keeps what each generator reported before it, read-only and JSON-able."""
    spec = ScenarioSpec(
        name="in-flight",
        duration_s=5.0,
        fleets=[
            ClientFleetSpec(
                name="f", count=2, workloads=[WorkloadSpec(kind="cbr", params={"rate_pps": 1000.0})]
            )
        ],
    )
    run = ScenarioRunner(spec).start()
    run.advance(2.0)
    at_finalize = {name: generator.stats() for name, generator in run.generators.items()}
    result = run.finalize()
    after_drain = {name: generator.stats() for name, generator in run.generators.items()}
    assert after_drain != at_finalize  # responses were in flight at teardown
    assert dict(result.workload_stats) == at_finalize
    assert list(result.workload_stats) == sorted(at_finalize)
    with pytest.raises(TypeError):
        result.workload_stats["f-1/cbr0"] = after_drain["f-1/cbr0"]
    result.workload_stats["f-1/cbr0"]["responses_received"] = -1.0  # the caller's own copy
    assert result.workload_stats["f-1/cbr0"] == at_finalize["f-1/cbr0"]
    assert json.loads(json.dumps(dict(result.workload_stats))) == at_finalize


def test_runner_seed_override_wins_over_spec_seed():
    spec = build_scenario("commuter-rush", seed=1)
    result = ScenarioRunner(spec).run(seed=99)
    assert result.seed == 99
    # Same override replays identically.
    again = ScenarioRunner(build_scenario("commuter-rush", seed=1)).run(seed=99)
    assert result.digest == again.digest
