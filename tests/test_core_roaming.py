"""Tests for NF roaming: cold, stateful and pre-copy migration, plus the
no-migration baseline."""

from __future__ import annotations

import pytest

from repro.baselines.no_migration import NoMigrationCoordinator
from repro.netem import packet as pkt
from repro.core.chain import ServiceChain
from repro.core.manager import AssignmentState
from repro.core.migration import MigrationEngine
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import CBRTrafficGenerator, HTTPWorkloadGenerator
from repro.wireless.mobility import LinearMobility


def roaming_scenario(strategy: str, chain: ServiceChain = None, speed: float = 8.0):
    """Build a two-station testbed with a client that will roam to station-2."""
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy=strategy))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    assignment = testbed.manager.attach_chain(client.ip, chain or ServiceChain.of("firewall", "http-filter"))
    testbed.run(6.0)
    assert assignment.state is AssignmentState.ACTIVE
    mobility = LinearMobility(testbed.simulator, client, velocity_mps=(speed, 0.0), destination=(80.0, 0.0))
    mobility.start()
    return testbed, client, assignment


def test_invalid_strategy_rejected():
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    from repro.core.errors import MigrationError

    with pytest.raises(MigrationError):
        MigrationEngine(testbed.simulator, testbed.manager, strategy="teleport")


@pytest.mark.parametrize("strategy", ["cold", "stateful", "precopy"])
def test_migration_follows_the_client(strategy):
    testbed, client, assignment = roaming_scenario(strategy)
    testbed.run(40.0)
    assert client.current_station_name == "station-2"
    records = testbed.roaming.records
    assert len(records) == 1
    record = records[0]
    assert record.success
    assert record.from_station == "station-1"
    assert record.to_station == "station-2"
    assert record.strategy == strategy
    assert assignment.station_name == "station-2"
    assert assignment.migrations == 1
    assert assignment.state is AssignmentState.ACTIVE
    # The new station hosts running containers; the old chain was removed.
    new_deployment = testbed.agents["station-2"].deployment_for_client(client.ip)
    assert new_deployment is not None
    assert all(d.container.is_running for d in new_deployment.deployed_nfs)
    testbed.run(5.0)
    assert testbed.agents["station-1"].deployment_for_client(client.ip) is None


def test_cold_migration_loses_nf_state():
    testbed, client, assignment = roaming_scenario("cold")
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=20)
    generator.start()
    testbed.run(40.0)
    new_deployment = testbed.agents["station-2"].deployment_for_client(client.ip)
    firewall = new_deployment.nf_by_type("firewall").nf
    # Fresh instance: its conntrack only contains flows seen after the move.
    assert firewall.conntrack_size <= 2


def test_stateful_migration_preserves_nf_state():
    chain = ServiceChain.single("firewall")
    testbed, client, assignment = roaming_scenario("stateful", chain=chain)
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=20)
    generator.start()
    testbed.run(3.0)
    old_fw = testbed.agents["station-1"].deployment_for_client(client.ip).nf_by_type("firewall").nf
    packets_before = old_fw.packets_in
    assert packets_before > 0
    testbed.run(37.0)
    record = testbed.roaming.records[0]
    assert record.success
    assert record.state_transferred_mb > 0
    new_fw = testbed.agents["station-2"].deployment_for_client(client.ip).nf_by_type("firewall").nf
    # The migrated instance carried the old counters/state across.
    assert new_fw.packets_in >= packets_before


def test_precopy_migration_has_smallest_coverage_gap():
    gaps = {}
    for strategy in ("cold", "precopy"):
        testbed, client, assignment = roaming_scenario(strategy)
        testbed.run(40.0)
        record = testbed.roaming.records[0]
        assert record.success, strategy
        gaps[strategy] = record.coverage_gap_s
    assert gaps["precopy"] < gaps["cold"]


def test_precopy_cleans_up_speculative_replicas():
    testbed, client, assignment = roaming_scenario("precopy")
    testbed.run(40.0)
    # Only the chosen station keeps a deployment for this client.
    deployments = [
        name for name, agent in testbed.agents.items() if agent.deployment_for_client(client.ip)
    ]
    testbed.run(5.0)
    deployments = [
        name for name, agent in testbed.agents.items() if agent.deployment_for_client(client.ip)
    ]
    assert deployments == ["station-2"]


def test_migration_summary_statistics():
    testbed, client, assignment = roaming_scenario("cold")
    testbed.run(40.0)
    summary = testbed.roaming.summary()
    assert summary["migrations_started"] == 1
    assert summary["migrations_completed"] == 1
    assert summary["mean_coverage_gap_s"] > 0
    assert testbed.roaming.mean_coverage_gap_s() == summary["mean_coverage_gap_s"]


def test_service_continuity_through_roaming():
    testbed, client, assignment = roaming_scenario("cold")
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=20)
    generator.start()
    testbed.run(40.0)
    generator.stop()
    # The client kept its IP and its traffic kept flowing after the handover
    # (short gap during the break-before-make handover itself).
    assert generator.responses_received > 0.8 * generator.packets_sent
    new_deployment = testbed.agents["station-2"].deployment_for_client(client.ip)
    assert new_deployment.deployed_nfs[0].packets_processed > 0


@pytest.mark.parametrize("strategy", ["cold", "stateful", "precopy"])
def test_migration_flushes_stale_fastpath_verdicts(strategy):
    """After a migration no stale cached verdict may survive at the old station.

    The client's traffic ran through station-1's chain long enough to warm the
    flow cache with chain-steering verdicts; once the migration completes the
    old station must hold neither chain rules nor cache entries keyed on the
    client, so nothing can replay a verdict that outputs into the torn-down
    NF ports.
    """
    testbed, client, assignment = roaming_scenario(strategy)
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=50)
    generator.start()
    testbed.run(2.0)
    old_switch = testbed.topology.station("station-1").switch
    # The chain is active and traffic is flowing: the cache is warm with
    # verdicts that reference the client's flows.
    assert any(
        key.ip_src == client.ip or key.ip_dst == client.ip
        for key in old_switch.flow_cache._entries
    )
    testbed.run(43.0)
    generator.stop()
    record = testbed.roaming.records[0]
    assert record.success and record.to_station == "station-2"
    # No chain remains at the old station...
    assert testbed.agents["station-1"].deployment_for_client(client.ip) is None
    # ...and no cache entry touching the client remains either: a flush of the
    # client's entries finds nothing left to remove.
    assert old_switch.flow_cache.flush_ip(client.ip) == 0
    # Any verdict still cached must trace back to a rule still installed in
    # the live table (no dangling chain rules).
    live_rule_ids = {rule.rule_id for rule in old_switch.flow_table.rules()}
    for verdict in old_switch.flow_cache._entries.values():
        assert verdict.rule.rule_id in live_rule_ids or verdict.generation != old_switch.flow_table.generation
    # Traffic kept flowing through the new station after the move.
    assert generator.responses_received > 0
    new_deployment = testbed.agents["station-2"].deployment_for_client(client.ip)
    assert new_deployment is not None


def test_stale_verdict_cannot_forward_after_migration():
    """A packet arriving at the old station post-migration is not steered into
    the removed chain: it takes the default path, and the old NFs see nothing."""
    testbed, client, assignment = roaming_scenario("cold")
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=50)
    generator.start()
    testbed.run(2.0)
    old_deployment = testbed.agents["station-1"].deployment_for_client(client.ip)
    old_nfs = list(old_deployment.deployed_nfs)
    assert any(deployed.packets_processed > 0 for deployed in old_nfs)
    testbed.run(43.0)
    generator.stop()
    assert testbed.roaming.records[0].success
    processed_at_migration = [deployed.packets_processed for deployed in old_nfs]
    # Replay the freshest possible "stale" packet at the old station: same
    # five-tuple the cache was warmed with, injected at the old cell port.
    old_station = testbed.topology.station("station-1")
    old_switch = old_station.switch
    cell_port = next(iter(old_station.cell_ports.values()))
    stale = pkt.make_udp_packet(
        src_ip=client.ip, dst_ip=testbed.server_ip, src_port=40001, dst_port=9000
    )
    old_switch.receive_packet(stale, old_switch.ports[cell_port].interface)
    testbed.run(1.0)
    # The old chain's NFs processed nothing new.
    assert [deployed.packets_processed for deployed in old_nfs] == processed_at_migration


def test_no_migration_baseline_loses_coverage():
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    # Replace the real engine with the baseline.
    baseline = NoMigrationCoordinator(testbed.simulator, testbed.manager)
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    assignment = testbed.manager.attach_chain(client.ip, ServiceChain.of("firewall"))
    testbed.run(6.0)
    LinearMobility(testbed.simulator, client, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)).start()
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=20)
    generator.start()
    testbed.run(40.0)
    assert baseline.coverage_loss_events() == 1
    assert baseline.stranded_assignments() == [assignment.assignment_id]
    # The chain stayed on station-1 and the client's traffic no longer reaches it.
    assert testbed.agents["station-2"].deployment_for_client(client.ip) is None
    old_nf = testbed.agents["station-1"].deployment_for_client(client.ip).deployed_nfs[0]
    packets_at_handover = old_nf.packets_processed
    testbed.run(10.0)
    assert old_nf.packets_processed == packets_at_handover
    # But the client itself still has connectivity (just no NF coverage).
    assert generator.responses_received > 0


def test_migration_respects_closed_schedule_window():
    """A chain migrating while its schedule window is closed must stay unsteered.

    Regression: the re-deploy at the new station installed steering rules by
    default, and the scheduler never corrected it (its own record already
    said "disabled", so it saw no transition to drive).
    """
    from repro.core.scheduler import ScheduleWindow, TimeSchedule

    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy="cold"))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    now = testbed.simulator.now
    # Open long enough to deploy, closed long before the roam, reopening later.
    assignment = testbed.manager.attach_chain(
        client.ip,
        ServiceChain.of("firewall"),
        schedule=TimeSchedule(
            windows=[
                ScheduleWindow(now, now + 10.0),
                ScheduleWindow(now + 80.0, now + 200.0),
            ]
        ),
    )
    testbed.run(14.0)  # deployed, then disabled when the window closed
    agent1 = testbed.agents["station-1"]
    cookie = f"chain:{assignment.assignment_id}"
    assert agent1.station.switch.flow_table.rules(cookie=cookie) == []

    LinearMobility(testbed.simulator, client, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)).start()
    testbed.run(40.0)  # roam + migrate, still inside the closed period
    assert assignment.station_name == "station-2"
    assert assignment.state is AssignmentState.ACTIVE
    agent2 = testbed.agents["station-2"]
    # The migrated chain exists but must not steer during the closed window.
    assert agent2.deployment_for_client(client.ip) is not None
    assert agent2.station.switch.flow_table.rules(cookie=cookie) == []
    # When the window reopens, the scheduler enables it at the new station.
    testbed.run(40.0)
    assert agent2.station.switch.flow_table.rules(cookie=cookie)
