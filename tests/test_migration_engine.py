"""Tests for the link-aware MigrationEngine.

Covers the regression fixes this subsystem shipped with:

* captured NF state and speculative replicas never leak -- not across a
  100-roam soak, not on detach, not when the client bounces back to its
  home station, and not after any canned scenario drains;
* a pre-copy fallback that finds its replica still booting *adopts* it
  instead of tearing it down and double-deploying the same chain id;
* state transfers ride the simulated links (gateway-routed chunks, RTT +
  bandwidth sharing observable) and the analytic RTT formula stays pinned;
* the canned ``fig2-roaming`` / ``chaos-soak`` digests replay identically
  per strategy and shard count;
* a stalled transfer's watchdog re-arms at an absolute deadline, so a
  permanent fault mid-transfer cannot freeze the simulated clock.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.containers.checkpoint import Checkpoint
from repro.core.api import ClientEvent
from repro.core.chain import ServiceChain
from repro.core.manager import AssignmentState
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import CBRTrafficGenerator
from repro.scenarios import FaultSpec, ScenarioRunner, build_scenario, run_scenario
from repro.wireless.mobility import LinearMobility

CLIENT_IP = "10.10.99.1"


def _event(testbed: GNFTestbed, station: str, kind: str, ip: str = CLIENT_IP) -> ClientEvent:
    """A synthetic Agent-reported client (dis)connection."""
    return ClientEvent(
        station_name=station,
        client_ip=ip,
        client_name="phone",
        cell_name=f"{station}-cell1",
        event=kind,
        time=testbed.simulator.now,
    )


def _pinned_assignment(testbed: GNFTestbed, chain: ServiceChain = None):
    """Attach a chain for a synthetic client pinned at station-1."""
    testbed.start()
    testbed.run(0.5)
    assignment = testbed.manager.attach_chain(
        CLIENT_IP, chain or ServiceChain.of("firewall"), station_name="station-1"
    )
    testbed.run(5.0)
    assert assignment.state is AssignmentState.ACTIVE
    return assignment


def _wait_active(testbed: GNFTestbed, assignment, budget_s: float = 30.0) -> None:
    waited = 0.0
    while assignment.state is not AssignmentState.ACTIVE and waited < budget_s:
        testbed.run(1.0)
        waited += 1.0
    assert assignment.state is AssignmentState.ACTIVE, assignment.state


# ---------------------------------------------------------------------------
# The RTT formula (analytic model, still pinned by a unit test)
# ---------------------------------------------------------------------------


def test_checkpoint_transfer_time_pins_rtt_and_bandwidth():
    checkpoint = Checkpoint(
        container_name="c1", image_reference="img", created_at=0.0, memory_mb=10.0
    )
    bandwidth = 50e6
    serialization = checkpoint.size_mb * 8 * 1_000_000 / bandwidth
    assert checkpoint.transfer_time_s(bandwidth, rtt_s=0.03) == pytest.approx(0.03 + serialization)
    # RTT defaults to zero: pure serialization.
    assert checkpoint.transfer_time_s(bandwidth) == pytest.approx(serialization)
    with pytest.raises(ValueError):
        checkpoint.transfer_time_s(0.0)


def test_engine_estimate_includes_path_rtt():
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    transfers = testbed.roaming.transfers
    size_bytes = 1_000_000
    rtt = 2 * testbed.topology.station_to_station_latency("station-1", "station-2")
    expected = rtt + size_bytes * 8 / testbed.config.uplink_bandwidth_bps
    assert transfers.estimate_transfer_time("station-1", "station-2", size_bytes) == pytest.approx(
        expected
    )


# ---------------------------------------------------------------------------
# Leak regressions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["stateful", "precopy"])
def test_soak_100_roams_keeps_ledgers_bounded(strategy):
    """Regression: captured state (and replicas) used to accumulate forever."""
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy=strategy))
    assignment = _pinned_assignment(testbed)
    for _ in range(100):
        old = assignment.station_name
        new = "station-2" if old == "station-1" else "station-1"
        testbed.manager.receive_client_event(_event(testbed, old, "disconnected"))
        testbed.run(0.3)
        testbed.manager.receive_client_event(_event(testbed, new, "connected"))
        testbed.run(2.2)
        _wait_active(testbed, assignment)
    coordinator = testbed.roaming
    assert len(coordinator.records) == 100
    assert all(record.success for record in coordinator.records)
    assert assignment.migrations == 100
    # The ledgers are bounded: everything staged per-roam was consumed.
    assert coordinator._captured_state == {}
    assert coordinator._speculative == {}
    # Exactly one station still hosts the chain.
    hosts = [
        name for name, agent in testbed.agents.items() if agent.deployment_for_client(CLIENT_IP)
    ]
    assert hosts == [assignment.station_name]


def test_detach_releases_captured_state_and_replicas():
    testbed = GNFTestbed(TestbedConfig(station_count=3, migration_strategy="precopy"))
    assignment = _pinned_assignment(testbed)
    coordinator = testbed.roaming
    testbed.manager.receive_client_event(_event(testbed, "station-1", "disconnected"))
    testbed.run(0.2)
    assert coordinator._captured_state  # exported at disconnect
    assert coordinator._speculative  # replicas booting on candidates
    testbed.manager.detach(assignment.assignment_id)
    testbed.run(5.0)
    assert coordinator._captured_state == {}
    assert coordinator._speculative == {}
    for agent in testbed.agents.values():
        assert agent.deployment_for_client(CLIENT_IP) is None
        leftovers = [
            container
            for container in agent.runtime.containers.values()
            if container.labels.get("assignment") == assignment.assignment_id
            and container.is_running
        ]
        assert leftovers == []


def test_detach_racing_migration_does_not_resurrect_assignment():
    """A detach landing while a migration deploy is in flight must win: the
    assignment stays REMOVED and the freshly deployed chain is torn down."""
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy="cold"))
    assignment = _pinned_assignment(testbed)
    testbed.manager.receive_client_event(_event(testbed, "station-1", "disconnected"))
    testbed.run(0.1)
    testbed.manager.receive_client_event(_event(testbed, "station-2", "connected"))
    testbed.run(0.1)  # migration deploy dispatched, nowhere near finished
    assert assignment.state is AssignmentState.MIGRATING
    testbed.manager.detach(assignment.assignment_id)
    testbed.run(15.0)
    assert assignment.state is AssignmentState.REMOVED
    assert assignment.migrations == 0
    record = testbed.roaming.records[0]
    assert not record.success
    assert "detached mid-migration" in record.detail
    for agent in testbed.agents.values():
        assert agent.deployment_for_client(CLIENT_IP) is None


def test_same_station_reconnect_drops_staged_state():
    """A client bouncing back to its home station must not leak replicas."""
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy="precopy"))
    assignment = _pinned_assignment(testbed)
    coordinator = testbed.roaming
    testbed.manager.receive_client_event(_event(testbed, "station-1", "disconnected"))
    testbed.run(3.0)  # replica fully booted on station-2, state captured
    assert coordinator._captured_state and coordinator._speculative
    testbed.manager.receive_client_event(_event(testbed, "station-1", "connected"))
    testbed.run(3.0)
    assert coordinator._captured_state == {}
    assert coordinator._speculative == {}
    assert coordinator.records == []  # nothing migrated
    assert assignment.station_name == "station-1"
    assert testbed.agents["station-2"].deployment_for_client(CLIENT_IP) is None


# ---------------------------------------------------------------------------
# Pre-copy fallback: adopt the still-booting replica
# ---------------------------------------------------------------------------


def test_precopy_adopts_still_booting_replica():
    """Regression: the fallback used to tear the booting replica down and
    cold-deploy the same chain id on the same station in the same tick."""
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy="precopy"))
    assignment = _pinned_assignment(testbed)
    testbed.manager.receive_client_event(_event(testbed, "station-1", "disconnected"))
    testbed.run(0.05)  # speculative replica started, nowhere near booted
    testbed.manager.receive_client_event(_event(testbed, "station-2", "connected"))
    _wait_active(testbed, assignment)
    testbed.run(2.0)
    record = testbed.roaming.records[0]
    assert record.success
    assert "adopted still-booting replica" in record.detail
    agent2 = testbed.agents["station-2"]
    deployment = agent2.deployment_for_client(CLIENT_IP)
    assert deployment is not None
    # Exactly one chain's worth of containers and steering rules exists: the
    # old double-deploy left a second container and duplicate rules behind.
    running = [
        container
        for container in agent2.runtime.containers.values()
        if container.labels.get("assignment") == assignment.assignment_id and container.is_running
    ]
    assert len(running) == len(assignment.chain)
    cookie = f"chain:{assignment.assignment_id}"
    rules = agent2.station.switch.flow_table.rules(cookie=cookie)
    # 1-NF chain on a 1-cell station: cell entry + uplink continuation +
    # downstream entry = 3 rules; 6 would mean the double-deploy is back.
    assert len(rules) == 3


def test_cancelled_boot_rolls_back_containers():
    """remove_chain on an in-flight deployment cancels the boot cleanly."""
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    testbed.start()
    testbed.run(0.5)
    agent = testbed.agents["station-2"]
    results = []
    agent.deploy_chain(
        "asg-cancel",
        CLIENT_IP,
        ServiceChain.of("firewall", "http-filter"),
        None,
        None,
        lambda deployment, success, detail: results.append((success, detail)),
    )
    testbed.run(0.01)  # image pull / first boot still in flight
    agent.remove_chain("asg-cancel")
    testbed.run(10.0)
    assert results and results[0][0] is False
    assert "cancelled" in results[0][1]
    assert agent.deployments.get("asg-cancel") is None
    leftovers = [
        container
        for container in agent.runtime.containers.values()
        if container.labels.get("assignment") == "asg-cancel" and container.is_running
    ]
    assert leftovers == []
    assert agent.station.switch.flow_table.rules(cookie="chain:asg-cancel") == []


# ---------------------------------------------------------------------------
# Link-routed transfers: RTT + bandwidth sharing observable
# ---------------------------------------------------------------------------


def _mobility_roam(strategy: str, loaded: bool = False):
    """A real radio-handover roam from station-1 to station-2."""
    testbed = GNFTestbed(
        TestbedConfig(station_count=2, migration_strategy=strategy, uplink_bandwidth_bps=30e6)
    )
    phone = testbed.add_client("phone", position=(0.0, 0.0))
    generators = []
    if loaded:
        for index, x in enumerate((2.0, 4.0, 78.0, 76.0)):
            background = testbed.add_client(f"bg-{index}", position=(x, 3.0))
            generators.append(
                CBRTrafficGenerator(
                    testbed.simulator,
                    background,
                    server_ip=testbed.server_ip,
                    rate_pps=250,
                    payload_bytes=1300,
                    src_port=41_000 + index,
                )
            )
    testbed.start()
    testbed.run(1.0)
    assignment = testbed.manager.attach_chain(phone.ip, ServiceChain.of("firewall", "http-filter"))
    testbed.run(6.0)
    for generator in generators:
        generator.start()
    LinearMobility(
        testbed.simulator, phone, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)
    ).start()
    testbed.run(45.0)
    for generator in generators:
        generator.stop()
    record = testbed.roaming.records[0]
    assert record.success, (strategy, loaded)
    return testbed, record


def test_stateful_transfer_rides_the_links():
    testbed, record = _mobility_roam("stateful")
    assert record.state_transferred_mb > 0
    assert record.bytes_moved > 0
    # The chunks crossed the gateway like any other backhaul traffic.
    assert testbed.topology.gateway.state_chunks_routed > 0
    engine = testbed.roaming
    assert engine.transfers.transfers_completed >= 1
    counters = engine.transfers.station_counters
    assert counters["station-1"]["state_bytes_sent"] > 0
    assert counters["station-2"]["state_bytes_received"] > 0
    # The per-station collectors publish the same counters.
    latest = testbed.agents["station-2"].collector.sample_once()
    assert latest["migration.state_bytes_received"] > 0
    summary = testbed.roaming.summary()
    assert summary["transfer_state_bytes_received"] > 0


def test_loaded_backhaul_stretches_stateful_migration():
    """Bandwidth sharing is real: client traffic slows the state transfer."""
    _, idle = _mobility_roam("stateful", loaded=False)
    _, loaded = _mobility_roam("stateful", loaded=True)
    assert loaded.downtime_s > idle.downtime_s
    assert loaded.bytes_moved == pytest.approx(idle.bytes_moved, rel=0.2)


def test_precopy_downtime_beats_stateful_under_load():
    _, stateful = _mobility_roam("stateful", loaded=True)
    _, precopy = _mobility_roam("precopy", loaded=True)
    assert precopy.downtime_s < stateful.downtime_s


def test_precopy_runs_iterative_rounds_for_large_state():
    """Big dirty state forces shrinking delta rounds before the freeze."""
    testbed = GNFTestbed(
        TestbedConfig(
            station_count=2,
            migration_strategy="precopy",
            precopy_max_rounds=4,
            precopy_downtime_target_s=0.05,
            precopy_dirty_fraction=0.25,
        )
    )
    assignment = _pinned_assignment(testbed)
    coordinator = testbed.roaming
    testbed.manager.receive_client_event(_event(testbed, "station-1", "disconnected"))
    testbed.run(4.0)  # replica fully booted on station-2
    # Model a chain with ~4 MB of hot state: at 100 Mbit/s the first dirty
    # delta (25%) cannot fit inside the 50 ms downtime target, so the engine
    # must run intermediate rounds before freezing.
    coordinator._captured_state[assignment.assignment_id] = [{"blob": "x" * 4_000_000}]
    testbed.manager.receive_client_event(_event(testbed, "station-2", "connected"))
    _wait_active(testbed, assignment)
    record = testbed.roaming.records[0]
    assert record.success
    assert record.rounds >= 2
    # Every round moved bytes: more than one full-size copy ended up on the
    # wire, but the freeze window only paid for the final (smallest) delta.
    assert record.bytes_moved > 4_000_000
    assert record.downtime_s < record.coverage_gap_s
    assert record.freeze_time_s < 0.5
    assert coordinator._captured_state == {}


# ---------------------------------------------------------------------------
# Determinism and drain cleanliness per strategy / shard count
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["cold", "stateful", "precopy"])
@pytest.mark.parametrize("name", ["fig2-roaming", "chaos-soak"])
def test_canned_digest_invariant_per_strategy_and_shards(name, strategy):
    runner = ScenarioRunner(build_scenario(name, seed=3))
    first = runner.run(migration_strategy=strategy)
    second = runner.run(shard_count=2, migration_strategy=strategy)
    assert first.drained and second.drained
    assert first.digest == second.digest, first.digest.diff(second.digest)
    for result in (first, second):
        coordinator = result.testbed.roaming
        assert coordinator.strategy == strategy
        assert coordinator._captured_state == {}
        assert coordinator._speculative == {}


@pytest.mark.parametrize("name", ["precopy-commuters", "stateful-backhaul"])
def test_migration_scenarios_drain_without_leaks(name):
    result = run_scenario(name, seed=0)
    assert result.drained
    assert result.migrations_completed >= 1
    coordinator = result.testbed.roaming
    assert coordinator._captured_state == {}
    assert coordinator._speculative == {}
    if name == "stateful-backhaul":
        assert result.testbed.topology.gateway.state_chunks_routed > 0


# ---------------------------------------------------------------------------
# The transfer watchdog cannot freeze the clock
# ---------------------------------------------------------------------------

#: Events per bounded chunk: the whole unfaulted ``precopy-commuters`` run is
#: about 50 000 events over 85 simulated seconds.
_CHUNK_EVENTS = 20_000


@pytest.mark.parametrize(
    "fault",
    [
        FaultSpec(kind="station-crash", station=1, at_s=7.324),
        FaultSpec(kind="link-down", station=3, at_s=17.065),
    ],
    ids=["station-crash-s1-at-7.324s", "link-down-s3-at-17.065s"],
)
def test_permanent_fault_mid_transfer_does_not_freeze_the_clock(fault):
    """A watchdog that re-armed for ``stall_timeout_s - elapsed`` could get a
    remainder that rounds to 1.8e-15 s, which ``now + remaining`` swallows:
    it then fired at one instant forever (t = 17.7505 s for the crash,
    t = 32.8735 s for the link-down).  The run advances in bounded chunks, so
    that failure reads "clock frozen" instead of hanging."""
    spec = build_scenario("precopy-commuters", seed=0)
    spec = replace(spec, faults=[*spec.faults, fault])
    run = ScenarioRunner(spec).start()
    simulator = run.simulator
    while simulator.now < spec.duration_s:
        began = simulator.now
        simulator.run(until=spec.duration_s, max_events=_CHUNK_EVENTS)
        assert simulator.now > began, f"clock frozen at t={began!r}"
    result = run.finalize()
    assert result.drained and result.faults_injected == 1
    transfers = result.testbed.roaming.transfers
    assert transfers.transfers_failed >= 1  # the stalled transfers gave up, as budgeted
    assert transfers._transfers == {}
    # Every transfer started is accounted for, including those still in
    # flight at teardown.
    assert transfers.transfers_started == (
        transfers.transfers_completed + transfers.transfers_failed + transfers.transfers_abandoned
    )
