"""Tests for the sharded control plane: station->shard routing, ControlBus
coalescing, aggregate views through the frontend, cross-shard roaming
handoffs, and digest-invariance of the shard count.  The region labels,
rollup exactness and the region x shard digest matrix are gated by
``tests/test_federation.py`` against the same ``ShardedManager``."""

from __future__ import annotations

import os
import sys

import pytest

from repro.core.api import ClientEvent, NFNotificationMessage
from repro.core.chain import ServiceChain
from repro.core.manager import AssignmentState, GNFManager
from repro.core.sharding import ShardedManager, StationShardMap
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import CBRTrafficGenerator
from repro.scenarios import run_scenario
from repro.wireless.mobility import LinearMobility

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

from heartbeat_waves import heartbeat_waves  # noqa: E402


# ---------------------------------------------------------------------------
# Station -> shard routing
# ---------------------------------------------------------------------------


def test_shard_map_contiguous_balanced_bands():
    shard_map = StationShardMap(station_count=8, shard_count=4)
    shards = [shard_map.shard_for(f"station-{i}") for i in range(1, 9)]
    assert shards == [0, 0, 1, 1, 2, 2, 3, 3]
    # Contiguity: a station's shard never decreases as the index grows.
    assert shards == sorted(shards)
    assert shard_map.band(0) == (1, 2)
    assert shard_map.band(3) == (7, 8)


def test_shard_map_routing_is_consistent_and_total():
    shard_map = StationShardMap(station_count=5, shard_count=2)
    for name in ("station-1", "station-5", "gateway", "weird.name"):
        first = shard_map.shard_for(name)
        assert first == shard_map.shard_for(name)
        assert 0 <= first < 2


def test_shard_map_more_shards_than_stations_leaves_empty_bands():
    shard_map = StationShardMap(station_count=2, shard_count=4)
    assert shard_map.shard_for("station-1") != shard_map.shard_for("station-2")
    occupied = {shard_map.shard_for(f"station-{i}") for i in (1, 2)}
    assert len(occupied) == 2


def test_shard_map_rejects_bad_counts():
    with pytest.raises(ValueError):
        StationShardMap(station_count=4, shard_count=0)
    with pytest.raises(ValueError):
        StationShardMap(station_count=0, shard_count=1)


# ---------------------------------------------------------------------------
# ControlBus coalescing
# ---------------------------------------------------------------------------


def test_control_bus_coalesces_heartbeats_into_few_flushes():
    testbed = GNFTestbed(TestbedConfig(station_count=8, shard_count=4))
    testbed.start()
    testbed.run(10.0)
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    bus = manager.bus
    # All 8 stations heartbeat on the same ticks: 8 messages ride each flush.
    assert bus.messages_enqueued >= 8 * 5
    assert bus.flushes < bus.messages_enqueued
    assert bus.largest_batch >= 2
    assert bus.stats()["coalescing_ratio"] > 1.0
    # Nothing is lost in the coalescing: every sent heartbeat is processed
    # (give the last wave its control-latency to land).
    testbed.run(0.5)
    sent = sum(agent.heartbeats_sent for agent in testbed.agents.values())
    assert manager.heartbeats_processed == sent
    # Channel traffic accounting still works per station.
    stats = manager.control_plane_stats()
    assert set(stats) == set(testbed.agents)
    assert all(entry["messages_delivered"] > 0 for entry in stats.values())


@pytest.mark.parametrize("shard_count, events", [(1, 40), (4, 5)])
def test_heartbeat_waves_cost_one_event_each_or_one_flush_per_wave(shard_count, events):
    # The fact benchmarks E7b/E14b assert at fleet scale: 8 stations x 5
    # waves cost the single Manager one delivery event per heartbeat and
    # the sharded bus one flush per wave.
    waves = heartbeat_waves(8, 5, shard_count=shard_count)
    assert waves.heartbeats == 40
    assert waves.events == events


def test_notifications_flow_through_bus_to_shared_centre():
    testbed = GNFTestbed(TestbedConfig(station_count=4, shard_count=2))
    testbed.start()
    testbed.run(1.0)
    agent = testbed.agents["station-3"]
    agent._manager_notification_sink(
        NFNotificationMessage(
            station_name="station-3",
            nf_name="ids-1",
            severity="critical",
            message="intrusion attempt",
            time=testbed.simulator.now,
        )
    )
    testbed.run(1.0)
    stored = testbed.manager.notifications.by_station("station-3")
    assert len(stored) == 1
    assert stored[0].severity == "critical"
    assert stored[0].delivery_latency_s > 0


def test_receive_client_event_direct_entry_matches_bus_path():
    """``ShardedManager.receive_client_event`` (tests, synthetic drivers)
    does exactly what an Agent-reported event arriving over the bus does:
    leaf counters and directory, global directory, listeners."""

    def drive(send):
        testbed = GNFTestbed(TestbedConfig(station_count=4, shard_count=2))
        manager = testbed.manager
        heard = []
        manager.add_client_event_listener(heard.append)
        testbed.start()
        testbed.run(0.5)
        send(
            testbed,
            ClientEvent(
                station_name="station-3",
                client_ip="10.10.99.1",
                client_name="phone",
                event="connected",
                time=testbed.simulator.now,
            ),
        )
        testbed.run(0.5)
        return (
            manager.client_locations,
            manager.client_names,
            manager.client_events_processed,
            [shard.client_locations for shard in manager.shards],
            [shard.client_events_processed for shard in manager.shards],
            heard,
        )

    over_bus = drive(lambda testbed, event: testbed.agents["station-3"]._manager_event_sink(event))
    direct = drive(lambda testbed, event: testbed.manager.receive_client_event(event))
    assert direct == over_bus
    assert direct[0] == {"10.10.99.1": "station-3"}
    assert direct[3] == [{}, {"10.10.99.1": "station-3"}]


# ---------------------------------------------------------------------------
# Aggregate views through the frontend
# ---------------------------------------------------------------------------


def _built_pair(station_count=4, **kwargs):
    single = GNFTestbed(TestbedConfig(station_count=station_count, shard_count=1, **kwargs))
    sharded = GNFTestbed(TestbedConfig(station_count=station_count, shard_count=station_count, **kwargs))
    for testbed in (single, sharded):
        testbed.start()
        testbed.run(10.0)
    return single, sharded


def test_overview_and_station_views_aggregate_across_shards():
    single, sharded = _built_pair()
    assert isinstance(single.manager, GNFManager)
    assert isinstance(sharded.manager, ShardedManager)
    lone, fanned = single.manager.overview(), sharded.manager.overview()
    for key in ("online_stations", "offline_stations", "connected_clients",
                "assignments", "active_assignments", "enabled_nfs", "heartbeats_processed"):
        assert lone[key] == fanned[key], key
    assert fanned["shards"] == 4 and fanned["regions"] == 1
    assert fanned == sharded.manager.full_scan_overview()
    assert sharded.manager.station_provenance()["station-3"] == "shard-2"
    # The placement view spans every station regardless of shard ownership.
    names = [view.name for view in sharded.manager.station_views("station-1").values()]
    assert sorted(names) == single.station_names()
    # Health and per-station stats route through the rollup-backed views.
    now = sharded.simulator.now
    assert list(sharded.manager.health.online_stations(now)) == single.station_names()
    assert sharded.manager.health.is_online("station-2", now)
    assert len(sharded.manager.health) == 4
    assert set(sharded.manager.last_heartbeat) == set(single.station_names())


def test_dashboard_renders_through_sharded_frontend():
    _, sharded = _built_pair()
    # The UI is a facade over the Manager API; it must not notice sharding.
    assert "GNF network overview" in sharded.ui.render_overview()
    rows = sharded.ui.stations()
    assert len(rows) == 4
    assert all(row["online"] for row in rows)


def test_attach_routes_to_owning_shard():
    testbed = GNFTestbed(TestbedConfig(station_count=4, shard_count=2))
    client = testbed.add_client("phone", position=(3 * testbed.config.station_spacing_m, 0.0))
    testbed.start()
    testbed.run(1.0)
    manager = testbed.manager
    assignment = manager.attach_nf(client.ip, "firewall")
    assert assignment.station_name == "station-4"
    owner = manager.shard_of("station-4")
    assert assignment.assignment_id in owner.assignments
    other = manager.shard_of("station-1")
    assert assignment.assignment_id not in other.assignments
    # Frontend-level queries see it too.
    assert manager.assignments_for_client(client.ip) == [assignment]
    testbed.run(8.0)
    assert assignment.state is AssignmentState.ACTIVE
    # Detach routes back to the same shard.
    manager.detach(assignment.assignment_id)
    testbed.run(2.0)
    assert assignment.state is AssignmentState.REMOVED
    assert testbed.agents["station-4"].deployment_for_client(client.ip) is None


# ---------------------------------------------------------------------------
# Cross-shard roaming
# ---------------------------------------------------------------------------


def test_cross_shard_roaming_keeps_chain_and_tears_down_old_shard():
    """A client roams from shard 0's station to shard 1's: the chain follows
    via an explicit handoff and the old shard's steering rules are torn down
    (asserted from the telemetry the old station reports, not just live
    object state)."""
    testbed = GNFTestbed(TestbedConfig(station_count=2, shard_count=2, migration_strategy="cold"))
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    assert manager.shard_map.shard_for("station-1") != manager.shard_map.shard_for("station-2")
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    baseline_rules = testbed.topology.stations["station-1"].switch.summary()["flow_rules"]
    assignment = manager.attach_chain(client.ip, ServiceChain.of("firewall", "http-filter"))
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=20)
    generator.start()
    testbed.run(6.0)
    assert assignment.state is AssignmentState.ACTIVE
    # Traffic is flowing through the chain via the old station's fast path.
    assert testbed.topology.stations["station-1"].switch.flow_cache.stats()["hits"] > 0
    assert testbed.topology.stations["station-1"].switch.summary()["flow_rules"] > baseline_rules

    LinearMobility(testbed.simulator, client, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)).start()
    testbed.run(40.0)

    # The migration completed and the chain kept following the client.
    assert client.current_station_name == "station-2"
    record = testbed.roaming.records[0]
    assert record.success and record.to_station == "station-2"
    assert assignment.state is AssignmentState.ACTIVE
    assert assignment.station_name == "station-2"
    assert assignment.migrations == 1

    # The explicit handoff moved the assignment between shards.
    assert len(manager.handoffs) == 1
    handoff = manager.handoffs[0]
    assert handoff.assignment_id == assignment.assignment_id
    assert handoff.from_shard != handoff.to_shard
    assert handoff.from_station == "station-1" and handoff.to_station == "station-2"
    source, target = manager.shards[handoff.from_shard], manager.shards[handoff.to_shard]
    assert assignment.assignment_id in target.assignments
    assert assignment.assignment_id not in source.assignments
    assert assignment.assignment_id in target.scheduler.tracked()
    assert assignment.assignment_id not in source.scheduler.tracked()

    # The new shard's station hosts the running chain...
    new_deployment = testbed.agents["station-2"].deployment_for_client(client.ip)
    assert new_deployment is not None
    assert all(d.container.is_running for d in new_deployment.deployed_nfs)
    testbed.run(5.0)
    # ...and the old shard's station tore everything down: no deployment, and
    # the telemetry it reports upstream (heartbeat switch stats + fast path)
    # shows the steering rules gone and the cached verdicts flushed.
    assert testbed.agents["station-1"].deployment_for_client(client.ip) is None
    old_switch = testbed.topology.stations["station-1"].switch
    assert old_switch.flow_table.rules(cookie=f"chain:{assignment.assignment_id}") == []
    reported = manager.last_heartbeat["station-1"]
    # The client's association rule left with the client, so the reported
    # rule count drops to (or below) the pre-attach baseline.
    assert reported.switch["flow_rules"] <= baseline_rules
    old_fastpath = old_switch.flow_cache.stats()
    assert old_fastpath["entries"] == 0
    assert old_fastpath["invalidations"] + old_fastpath["flushes"] > 0
    assert manager.overview()["cross_shard_handoffs"] == 1


def test_single_manager_ignores_station_change_hook():
    # The hook the roaming coordinator fires must be a no-op on a plain
    # GNFManager (the unsharded deployment).
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy="cold"))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    assignment = testbed.manager.attach_nf(client.ip, "firewall")
    testbed.run(6.0)
    LinearMobility(testbed.simulator, client, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)).start()
    testbed.run(40.0)
    assert assignment.station_name == "station-2"
    assert assignment.assignment_id in testbed.manager.assignments


# ---------------------------------------------------------------------------
# Digest invariance (the E10 acceptance criterion, tier-1 subset)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig2-roaming", "commuter-rush"])
def test_scenario_digest_is_shard_count_invariant(name):
    unsharded = run_scenario(name, seed=11, shard_count=1)
    sharded = run_scenario(name, seed=11, shard_count=4)
    assert unsharded.drained and sharded.drained
    assert unsharded.digest == sharded.digest, unsharded.digest.diff(sharded.digest)
    # And the sharded run really was sharded, with cross-shard traffic.
    manager = sharded.testbed.manager
    assert isinstance(manager, ShardedManager)
    assert manager.bus.stats()["coalescing_ratio"] > 1.0
    assert len(manager.handoffs) >= 1
