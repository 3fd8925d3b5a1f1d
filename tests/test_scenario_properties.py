"""Property-based scenario tests (stdlib-random driven, hypothesis-style).

Random scenario specs -- random topologies, fleets, workload mixes, chains,
churn and fault barrages -- must never deadlock the simulator and must
always drain to ``pending_events == 0`` after teardown.  The generator is
seeded, so every failure is replayable from the printed case seed.
"""

from __future__ import annotations

import random

import pytest

from repro.scenarios import (
    ChainAssignmentSpec,
    ClientFleetSpec,
    FaultSpec,
    MobilitySpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

NF_POOL = ["firewall", "flow-monitor", "rate-limiter", "http-filter", "nat", "cache"]


def random_spec(rng: random.Random, case: int) -> ScenarioSpec:
    """Draw a small but structurally diverse random scenario."""
    station_count = rng.randint(1, 3)
    topology = TopologySpec(
        station_count=station_count,
        station_spacing_m=rng.choice([60.0, 70.0, 80.0]),
        station_profile=rng.choice(["router", "server"]),
        migration_strategy=rng.choice(["cold", "stateful", "precopy"]),
        fastpath_enabled=rng.random() < 0.8,
        handover_scan_jitter_s=rng.choice([0.0, 0.05]),
    )
    span = (station_count - 1) * topology.station_spacing_m
    fleets = []
    assignments = []
    for fleet_index in range(rng.randint(1, 2)):
        model = rng.choice(["static", "waypoint", "commuter"])
        if model == "waypoint":
            mobility = MobilitySpec(
                model="waypoint",
                start_s=rng.uniform(0.0, 2.0),
                params={
                    "area": (0.0, -20.0, max(span, 40.0), 20.0),
                    "speed_mps": (2.0, 9.0),
                    "pause_s": (0.0, 3.0),
                },
            )
        elif model == "commuter":
            mobility = MobilitySpec(
                model="commuter",
                start_s=rng.uniform(0.0, 2.0),
                params={
                    "anchor_a": (0.0, 0.0),
                    "anchor_b": (max(span, 40.0), 0.0),
                    "speed_mps": rng.uniform(5.0, 10.0),
                    "dwell_s": rng.uniform(1.0, 5.0),
                },
            )
        else:
            mobility = MobilitySpec(model="static")
        workloads = []
        for workload_index in range(rng.randint(0, 2)):
            kind = rng.choice(["cbr", "http", "dns", "video"])
            params = {}
            if kind == "cbr":
                params = {"rate_pps": rng.choice([5.0, 15.0, 30.0])}
            elif kind == "http":
                params = {"mean_think_time_s": rng.uniform(0.5, 2.0)}
            elif kind == "dns":
                params = {"query_interval_s": rng.uniform(0.5, 2.0)}
            else:
                params = {"segment_interval_s": 2.0, "packets_per_segment": 8}
            start = rng.uniform(1.0, 5.0)
            stop = start + rng.uniform(5.0, 15.0) if rng.random() < 0.3 else None
            workloads.append(WorkloadSpec(kind=kind, start_s=start, stop_s=stop, params=params))
        name = f"fleet{fleet_index + 1}"
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=rng.randint(1, 3),
                position=(rng.uniform(0.0, max(span, 1.0)), 0.0),
                spread_m=rng.uniform(0.0, 20.0),
                appear_at_s=rng.uniform(0.0, 3.0),
                appear_stagger_s=rng.uniform(0.0, 0.5),
                mobility=mobility,
                workloads=workloads,
            )
        )
        if rng.random() < 0.8:
            chain_len = rng.randint(1, 2)
            attach = rng.uniform(1.0, 4.0)
            detach = attach + rng.uniform(10.0, 20.0) if rng.random() < 0.4 else None
            daily = (8.0, 18.0) if rng.random() < 0.2 else None
            assignments.append(
                ChainAssignmentSpec(
                    fleet=name,
                    nfs=rng.sample(NF_POOL, chain_len),
                    attach_at_s=attach,
                    detach_at_s=detach,
                    daily_window=daily,
                    day_length_s=25.0,
                )
            )
    faults = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(["station-crash", "link-degrade", "link-down", "container-oom"])
        params = (
            {"bandwidth_factor": rng.uniform(0.05, 0.5), "loss_rate": rng.uniform(0.0, 0.2)}
            if kind == "link-degrade"
            else {}
        )
        faults.append(
            FaultSpec(
                kind=kind,
                station=rng.randint(1, station_count),
                at_s=rng.uniform(5.0, 20.0),
                duration_s=rng.uniform(4.0, 10.0) if kind != "container-oom" else None,
                params=params,
            )
        )
    return ScenarioSpec(
        name=f"property-case-{case}",
        seed=rng.randint(0, 2**32),
        duration_s=rng.uniform(15.0, 30.0),
        topology=topology,
        fleets=fleets,
        assignments=assignments,
        faults=faults,
    )


@pytest.mark.parametrize("case", range(10))
def test_random_scenarios_never_deadlock_and_always_drain(case):
    rng = random.Random(1000 + case)
    spec = random_spec(rng, case)
    spec.validate()
    result = ScenarioRunner(spec).run()
    assert result.drained, (
        f"case {case} (spec seed {spec.seed}) left "
        f"{result.pending_events_after_teardown} live events after teardown: "
        f"{result.testbed.simulator!r}"
    )
    assert result.pending_events_after_teardown == 0
    # The run must have made real progress, not silently no-oped.
    assert result.events_processed > 0
    assert result.duration_s == pytest.approx(spec.duration_s)


def test_random_scenarios_are_individually_deterministic():
    rng = random.Random(77)
    spec = random_spec(rng, 99)
    first = ScenarioRunner(spec).run()
    second = ScenarioRunner(spec).run()
    assert first.digest == second.digest, first.digest.diff(second.digest)


@pytest.mark.parametrize("case", range(6))
def test_random_federated_scenarios_drain_without_orphans(case):
    """Random specs run federated (region_count >= 2) must still drain to
    zero pending events, with no orphaned assignments or chain containers
    left in any region: every region-held assignment is indexed by the
    frontend under the right region, and no agent anywhere keeps running
    containers for an assignment that is no longer ACTIVE."""
    rng = random.Random(4000 + case)
    spec = random_spec(rng, case)
    while spec.topology.station_count < 2:
        spec = random_spec(rng, case)
    spec.validate()
    result = ScenarioRunner(spec).run(region_count=2, shard_count=2)
    assert result.drained, (
        f"case {case} (spec seed {spec.seed}) left "
        f"{result.pending_events_after_teardown} live events after teardown"
    )
    assert result.pending_events_after_teardown == 0
    manager = result.testbed.manager
    assert manager.region_count == 2 and manager.total_shard_count == 4
    # No orphaned assignments: the frontend's leaf index and each leaf's
    # table agree exactly, in both directions.
    for shard_index, shard in enumerate(manager.shards):
        for assignment_id in shard.assignments:
            assert manager._assignment_shard.get(assignment_id) == shard_index
            assert assignment_id in manager.assignments
    for assignment_id, shard_index in manager._assignment_shard.items():
        assignment = manager.assignments[assignment_id]
        if assignment.state.value == "active":
            assert assignment_id in manager.shards[shard_index].assignments
    # No orphaned segments: after teardown, every chain container an agent
    # still holds is running and belongs to an ACTIVE assignment (faults may
    # have ended the scenario with chains legitimately up; nothing REMOVED
    # may linger, and a stopped or failed container is not held at all).
    for agent in result.testbed.agents.values():
        for container in agent.runtime.containers.values():
            assert container.is_running, f"case {case}: held {container!r}"
            assignment_id = container.labels.get("assignment")
            if assignment_id is None:
                continue
            owner = manager.assignments.get(assignment_id)
            assert owner is not None, f"container for unknown assignment {assignment_id}"
            assert owner.state.value == "active", (
                f"case {case}: running container for {owner.state.value} "
                f"assignment {assignment_id} on {agent.station.name}"
            )
