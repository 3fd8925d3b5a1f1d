"""Split-chain (embedding) deployments end to end.

Covers the PR's split-chain guarantees at testbed scale:

* a chain too big for the client's saturated station embeds across two
  stations, with the head (client-nearest) segment on the client's station;
* roaming moves *only* the head segment -- remote segments stay where the
  embedding put them, and nothing staged per-roam leaks (the soak-ledger
  pattern from the migration tests);
* detach tears down every segment's containers on every station.

The shard-count digest invariance of a splitting workload is asserted by
``test_new_scenarios_shard_invariant_digests`` over ``slo-tight-embedding``.
"""

from __future__ import annotations

from repro.core.api import ClientEvent
from repro.core.chain import NFRequirements, NFSpec, ServiceChain
from repro.core.manager import AssignmentState, segment_deployment_id
from repro.core.testbed import GNFTestbed, TestbedConfig

CLIENT_IP = "10.10.99.1"
FILLER_IP = "10.10.99.2"


def _event(testbed: GNFTestbed, station: str, kind: str, ip: str = CLIENT_IP) -> ClientEvent:
    return ClientEvent(
        station_name=station,
        client_ip=ip,
        client_name="phone",
        event=kind,
        time=testbed.simulator.now,
    )


def _wait_active(testbed: GNFTestbed, assignment, budget_s: float = 30.0) -> None:
    waited = 0.0
    while assignment.state is not AssignmentState.ACTIVE and waited < budget_s:
        testbed.run(1.0)
        waited += 1.0
    assert assignment.state is AssignmentState.ACTIVE, assignment.state


def _split_chain() -> ServiceChain:
    """Four 9 MB NFs: too big for station-1's scraps, splits 2 + 2."""
    return ServiceChain(
        [
            NFSpec(nf_type, requirements=NFRequirements(memory_mb=9.0))
            for nf_type in ("ids", "cache", "http-filter", "flow-monitor")
        ],
        name="big-chain",
    )


def _split_testbed():
    """An embedding testbed with station-1 pre-filled so the next chain splits.

    Eight filler firewalls (a different client) push station-1 past the
    local-preference threshold while leaving scraps that fit exactly two of
    the split chain's NFs: the head lands locally, the tail spills to
    station-2.
    """
    testbed = GNFTestbed(TestbedConfig(station_count=3, placement_strategy="embedding"))
    testbed.start()
    testbed.run(0.5)
    for _ in range(8):
        testbed.manager.attach_chain(
            FILLER_IP, ServiceChain.of("firewall"), station_name="station-1"
        )
        testbed.run(2.1)
    testbed.run(8.0)  # let heartbeats settle and pending commitments expire
    assignment = testbed.manager.attach_chain(
        CLIENT_IP, _split_chain(), station_name="station-1"
    )
    testbed.run(5.0)
    assert assignment.state is AssignmentState.ACTIVE, assignment.failure_reason
    assert assignment.is_split, assignment.segments
    return testbed, assignment


def _running_containers(testbed: GNFTestbed, assignment_id: str):
    """The chain's running containers; the agents hold no stopped or failed one."""
    held = [
        (station, container)
        for station, agent in testbed.agents.items()
        for container in agent.runtime.containers.values()
        if assignment_id in container.name
    ]
    assert not any(container.is_terminal for _, container in held), held
    return [(station, container.name) for station, container in held if container.is_running]


def test_split_deployment_lands_head_local_tail_remote():
    testbed, assignment = _split_testbed()
    assert [(s.station_name, s.start, s.end) for s in assignment.segments] == [
        ("station-1", 0, 2),
        ("station-2", 2, 4),
    ]
    head = testbed.agents["station-1"].deployments[assignment.assignment_id]
    assert head.chain.nf_types == ["ids", "cache"]
    tail_id = segment_deployment_id(assignment.assignment_id, 1)
    tail = testbed.agents["station-2"].deployments[tail_id]
    assert tail.chain.nf_types == ["http-filter", "flow-monitor"]
    # All four NFs run, split across exactly the two segment stations.
    containers = _running_containers(testbed, assignment.assignment_id)
    assert len(containers) == 4
    assert {station for station, _ in containers} == {"station-1", "station-2"}


def test_split_chain_roams_head_segment_only():
    testbed, assignment = _split_testbed()
    testbed.manager.receive_client_event(_event(testbed, "station-1", "disconnected"))
    testbed.run(0.3)
    testbed.manager.receive_client_event(_event(testbed, "station-3", "connected"))
    testbed.run(3.0)
    _wait_active(testbed, assignment)
    assert assignment.migrations == 1
    assert assignment.station_name == "station-3"
    assert assignment.segments[0].station_name == "station-3"
    # The remote segment did not move (and was not redeployed).
    assert assignment.segments[1].station_name == "station-2"
    tail_id = segment_deployment_id(assignment.assignment_id, 1)
    assert tail_id in testbed.agents["station-2"].deployments
    # The head moved whole: its two NFs now run at station-3, none remain
    # at station-1, and nothing staged for the roam leaks.
    moved = testbed.agents["station-3"].deployments[assignment.assignment_id]
    assert moved.chain.nf_types == ["ids", "cache"]
    assert assignment.assignment_id not in testbed.agents["station-1"].deployments
    assert len(_running_containers(testbed, assignment.assignment_id)) == 4
    assert testbed.roaming._captured_state == {}
    assert testbed.roaming._speculative == {}


def test_split_chain_roam_soak_leaks_nothing():
    testbed, assignment = _split_testbed()
    for _ in range(10):
        old = assignment.station_name
        new = "station-3" if old == "station-1" else "station-1"
        testbed.manager.receive_client_event(_event(testbed, old, "disconnected"))
        testbed.run(0.3)
        testbed.manager.receive_client_event(_event(testbed, new, "connected"))
        testbed.run(2.2)
        _wait_active(testbed, assignment)
    assert assignment.migrations == 10
    assert all(record.success for record in testbed.roaming.records)
    # Ledgers bounded, container census constant: 4 NFs, no strays.
    assert testbed.roaming._captured_state == {}
    assert testbed.roaming._speculative == {}
    assert len(_running_containers(testbed, assignment.assignment_id)) == 4
    # Exactly one station hosts the head; the tail never moved.
    heads = [
        station
        for station, agent in testbed.agents.items()
        if assignment.assignment_id in agent.deployments
    ]
    assert heads == [assignment.station_name]
    assert assignment.segments[1].station_name == "station-2"
    # The run drains cleanly.
    testbed.stop()
    testbed.simulator.run(max_events=200_000)
    assert testbed.simulator.pending_events == 0


def test_detach_split_chain_removes_every_segment_container():
    testbed, assignment = _split_testbed()
    testbed.manager.detach(assignment.assignment_id)
    testbed.run(2.0)
    assert assignment.state is AssignmentState.REMOVED
    assert _running_containers(testbed, assignment.assignment_id) == []
    for agent in testbed.agents.values():
        assert not any(
            key == assignment.assignment_id or key.startswith(f"{assignment.assignment_id}::")
            for key in agent.deployments
        )
