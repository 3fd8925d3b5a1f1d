"""The region x shard test harness: the multi-leaf frontend + streaming rollups.

Gates :class:`~repro.core.sharding.ShardedManager` end to end, for region
labels as well as plain shards (``tests/test_sharding.py`` covers the
station map, the bus and the single-region frontend views):

* station -> region/leaf routing and config validation;
* streaming rollup exactness (``HealthRollup`` flips liveness at exactly
  ``(now - last) <= timeout``, including at the float boundary, and its
  expiry heap stays bounded by the station count);
* the global client directory is the disjoint union of the leaf
  directories under concurrent cross-region roams;
* a cross-region handoff keeps the chain and tears the old station down
  (steering rules + fast path asserted from reported telemetry);
* a 100-roam cross-region soak keeps the migration ledgers bounded and the
  container census exact (mirrors ``test_migration_engine``'s soak);
* the streamed ``enabled_nfs`` follows an upgrade that changes chain length;
* every canned scenario replays to a byte-identical digest across
  region_count {1,2} x shard_count {1,4}, and after every multi-leaf run
  the streaming ``overview()`` equals the brute-force
  ``full_scan_overview()``.
"""

from __future__ import annotations

import pytest

from repro.core.api import ClientEvent
from repro.core.chain import ServiceChain
from repro.core.manager import AssignmentState
from repro.core.placement import PlacementEngine
from repro.core.sharding import ControlBus, ShardedManager, StationShardMap
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import CBRTrafficGenerator
from repro.scenarios import ScenarioRunner, build_scenario, scenario_names
from repro.telemetry.rollup import HealthRollup
from repro.wireless.mobility import LinearMobility

CLIENT_IP = "10.10.99.1"


def _event(testbed: GNFTestbed, station: str, kind: str, ip: str = CLIENT_IP) -> ClientEvent:
    """A synthetic Agent-reported client (dis)connection."""
    return ClientEvent(
        station_name=station,
        client_ip=ip,
        client_name=f"phone-{ip.rsplit('.', 1)[-1]}",
        event=kind,
        time=testbed.simulator.now,
    )


def _wait_active(testbed: GNFTestbed, assignment, budget_s: float = 30.0) -> None:
    waited = 0.0
    while assignment.state is not AssignmentState.ACTIVE and waited < budget_s:
        testbed.run(1.0)
        waited += 1.0
    assert assignment.state is AssignmentState.ACTIVE, assignment.state


def _assert_directory_consistent(manager: ShardedManager) -> None:
    """The global directory is exactly the disjoint union of the leaf
    directories, and every entry sits on the leaf owning its station."""
    merged = {}
    for shard_index, shard in enumerate(manager.shards):
        for client_ip, station in shard.client_locations.items():
            assert client_ip not in merged, (
                f"client {client_ip} appears in two leaf directories"
            )
            merged[client_ip] = station
            assert manager.shard_map.shard_for(station) == shard_index
    assert merged == manager.client_locations


def _assert_rollups_exact(manager: ShardedManager) -> None:
    """Streaming rollups == brute-force scans, and the counter tree's root
    equals the sum of the per-leaf counters it mirrors."""
    assert manager.overview() == manager.full_scan_overview()
    assert manager.heartbeats_processed == sum(
        shard.heartbeats_processed for shard in manager.shards
    )
    assert manager.client_events_processed == sum(
        shard.client_events_processed for shard in manager.shards
    )


# ---------------------------------------------------------------------------
# Station -> region routing and config validation
# ---------------------------------------------------------------------------


def test_region_map_bands_and_validation():
    manager = GNFTestbed(
        TestbedConfig(station_count=4, region_count=2, shard_count=2)
    ).manager
    assert isinstance(manager, ShardedManager)
    assert manager.region_count == 2
    assert manager.total_shard_count == 4
    # Contiguous region bands, each split into contiguous shard bands.
    assert [manager.region_index_of(f"station-{i}") for i in (1, 2, 3, 4)] == [0, 0, 1, 1]
    assert [manager.shard_map.shard_for(f"station-{i}") for i in (1, 2, 3, 4)] == [0, 1, 2, 3]
    assert manager.shard_map.band(0) == (1, 1)
    assert manager.shard_map.band(2) == (3, 3)
    assert manager.shard_map.band(3) == (4, 4)
    assert manager.station_provenance()["station-3"] == "region-1/shard-0"
    # Uneven split: 5 stations over 2 regions x 2 shards keeps both levels
    # contiguous and balanced.
    uneven = StationShardMap(station_count=5, shard_count=2, region_count=2)
    assert [uneven.shard_for(f"station-{i}") for i in range(1, 6)] == [0, 0, 1, 2, 3]
    assert uneven.band(0) == (1, 2) and uneven.band(1) == (3, 3)
    assert [uneven.region_of(leaf) for leaf in range(4)] == [0, 0, 1, 1]
    with pytest.raises(ValueError):
        ShardedManager(manager.simulator, shard_count=1, region_count=0, topology=manager.topology)
    with pytest.raises(ValueError):
        ShardedManager(manager.simulator, shard_count=0, region_count=2, topology=manager.topology)
    with pytest.raises(ValueError):
        ShardedManager(
            manager.simulator, shard_count=1, region_count=5, station_count=4, topology=manager.topology
        )
    with pytest.raises(ValueError):
        GNFTestbed(TestbedConfig(station_count=2, region_count=3))


def test_frontend_builds_one_engine_and_one_bus(monkeypatch):
    """Regions are labels: a 2 x 4 frontend owns eight leaves but exactly one
    PlacementEngine and one ControlBus."""
    built = {"engines": 0, "buses": 0}
    engine_init, bus_init = PlacementEngine.__init__, ControlBus.__init__

    def counting_engine(self, *args, **kwargs):
        built["engines"] += 1
        engine_init(self, *args, **kwargs)

    def counting_bus(self, *args, **kwargs):
        built["buses"] += 1
        bus_init(self, *args, **kwargs)

    monkeypatch.setattr(PlacementEngine, "__init__", counting_engine)
    monkeypatch.setattr(ControlBus, "__init__", counting_bus)
    testbed = GNFTestbed(TestbedConfig(station_count=8, region_count=2, shard_count=4))
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    assert len(manager.shards) == 8
    assert built == {"engines": 1, "buses": 1}
    assert manager.placement_engine is testbed.placement_engine
    assert all(shard.placement_engine is manager.placement_engine for shard in manager.shards)


# ---------------------------------------------------------------------------
# Streaming rollup exactness
# ---------------------------------------------------------------------------


def test_health_rollup_matches_monitor_predicate_at_the_boundary():
    """Liveness must flip at exactly ``(now - last) <= timeout`` -- the heap
    is only a nomination mechanism, the plain per-station ``is_online``
    check (what ``full_scan_overview`` scans with) decides."""
    rollup = HealthRollup(heartbeat_timeout_s=10.0)
    rollup.record("station-1", 5.0)
    assert rollup.is_online("station-1", 15.0)  # boundary: still online
    assert rollup.online_stations(15.0) == ("station-1",)
    just_past = 15.0 + 1e-9
    assert not rollup.is_online("station-1", just_past)
    assert rollup.online_stations(just_past) == ()
    assert rollup.offline_stations(just_past) == ("station-1",)
    # A fresh heartbeat resurrects the station (and bumps the version).
    version = rollup.version
    rollup.record("station-1", 20.0)
    assert rollup.version > version
    assert rollup.online_stations(25.0) == ("station-1",)
    assert rollup.offline_stations(25.0) == ()


def test_health_rollup_heap_is_bounded_by_station_count():
    """10k heartbeats that nobody polls leave at most one expiry entry per
    station, and the views stay exact once somebody does read."""
    rollup = HealthRollup(heartbeat_timeout_s=10.0)
    stations = [f"station-{i}" for i in range(1, 5)]
    for name in stations:
        rollup.register(name, 0.0)
    now = 0.0
    for beat in range(10_000):
        now = 2.0 * (beat // 4 + 1)
        rollup.record(stations[beat % 4], now)
    assert len(rollup._heap) <= len(stations)
    assert rollup.heartbeats_received("station-1") == 2_500
    assert rollup.online_stations(now) == tuple(stations)
    assert len(rollup._heap) <= len(stations)
    # Polled long after the last beat: everything expires, the heap drains.
    assert rollup.offline_stations(now + 10.5) == tuple(stations)
    assert rollup.online_stations(now + 10.5) == ()
    assert rollup._heap == []
    # One station resumes: exactly one entry comes back.
    rollup.record("station-2", now + 11.0)
    assert rollup.online_stations(now + 12.0) == ("station-2",)
    assert len(rollup._heap) == 1


def test_federated_overview_matches_single_manager_and_full_scan():
    """The streaming rollup overview agrees with a single Manager's scanned
    one on a live fleet, and with the brute-force recomputation."""
    single = GNFTestbed(TestbedConfig(station_count=4, shard_count=1))
    federated = GNFTestbed(TestbedConfig(station_count=4, region_count=2, shard_count=2))
    for testbed in (single, federated):
        testbed.start()
        testbed.run(10.0)
    manager = federated.manager
    assert isinstance(manager, ShardedManager)
    lone, fanned = single.manager.overview(), manager.overview()
    # Same summary, plus the shape / handoff keys only a frontend has.
    assert {key: fanned[key] for key in lone} == lone
    assert fanned["regions"] == 2 and fanned["shards"] == 4
    _assert_rollups_exact(manager)
    # The placement view spans every station, in global station order.
    names = [view.name for view in manager.station_views("station-1").values()]
    assert names == single.station_names()
    # Health view: point and list queries agree with the per-region truth.
    now = federated.simulator.now
    assert list(manager.health.online_stations(now)) == single.station_names()
    assert manager.health.is_online("station-3", now)
    assert len(manager.health) == 4
    assert set(manager.last_heartbeat) == set(single.station_names())
    # The UI renders through the frontend without noticing regions.
    assert "GNF network overview" in federated.ui.render_overview()


@pytest.mark.parametrize("region_count,shard_count", [(1, 2), (2, 1)])
def test_streamed_enabled_nfs_follows_a_length_changing_upgrade(region_count, shard_count):
    """A cutover swaps the chain while the assignment stays ACTIVE; the
    streamed NF count must move with the new chain's length, and detach must
    subtract what is running now, not what was first attached."""
    testbed = GNFTestbed(
        TestbedConfig(station_count=4, region_count=region_count, shard_count=shard_count)
    )
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    assignment = manager.attach_nf(client.ip, "firewall")
    _wait_active(testbed, assignment)
    assert manager.overview()["enabled_nfs"] == 1

    upgraded = ServiceChain.of("firewall", "rate-limiter")
    outcomes = []
    manager.stage_chain_upgrade(
        assignment.assignment_id, upgraded, lambda ok, detail: outcomes.append(("staged", ok))
    )
    testbed.run(10.0)
    manager.cutover_chain_upgrade(
        assignment.assignment_id, upgraded, None, lambda ok, detail: outcomes.append(("cut", ok))
    )
    testbed.run(5.0)
    assert outcomes == [("staged", True), ("cut", True)]
    assert assignment.state is AssignmentState.ACTIVE and len(assignment.chain) == 2
    assert manager.overview()["enabled_nfs"] == 2
    assert manager.overview() == manager.full_scan_overview()

    manager.detach(assignment.assignment_id)
    testbed.run(2.0)
    assert manager.overview()["enabled_nfs"] == 0
    assert manager.overview() == manager.full_scan_overview()


# ---------------------------------------------------------------------------
# Cross-region roaming: handoff, teardown, directory
# ---------------------------------------------------------------------------


def test_cross_region_roaming_keeps_chain_and_tears_down_old_region():
    """A client roams from region 0's station to region 1's: the chain
    follows via an explicit release/adopt handoff and the old region's
    station tears everything down (asserted from reported telemetry, not
    just live object state) -- the region-tier twin of the cross-shard test."""
    testbed = GNFTestbed(
        TestbedConfig(station_count=2, region_count=2, migration_strategy="cold")
    )
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    assert manager.region_index_of("station-1") != manager.region_index_of("station-2")
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    baseline_rules = testbed.topology.stations["station-1"].switch.summary()["flow_rules"]
    assignment = manager.attach_chain(client.ip, ServiceChain.of("firewall", "http-filter"))
    generator = CBRTrafficGenerator(
        testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=20
    )
    generator.start()
    testbed.run(6.0)
    assert assignment.state is AssignmentState.ACTIVE
    assert testbed.topology.stations["station-1"].switch.flow_cache.stats()["hits"] > 0

    LinearMobility(
        testbed.simulator, client, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)
    ).start()
    testbed.run(40.0)

    # The migration completed and the chain kept following the client.
    assert client.current_station_name == "station-2"
    record = testbed.roaming.records[0]
    assert record.success and record.to_station == "station-2"
    assert assignment.state is AssignmentState.ACTIVE
    assert assignment.station_name == "station-2"

    # The explicit handoff moved the assignment between regions.
    assert len(manager.handoffs) == 1
    handoff = manager.handoffs[0]
    assert handoff.assignment_id == assignment.assignment_id
    assert handoff.cross_region
    assert (handoff.from_shard, handoff.to_shard) == (0, 1)
    assert handoff.from_station == "station-1" and handoff.to_station == "station-2"
    source, target = manager.shards[0], manager.shards[1]
    assert assignment.assignment_id in target.assignments
    assert assignment.assignment_id not in source.assignments
    assert assignment.assignment_id in target.scheduler.tracked()
    assert assignment.assignment_id not in source.scheduler.tracked()
    # The directory followed the client across the region boundary.
    _assert_directory_consistent(manager)
    assert manager.client_locations[client.ip] == "station-2"

    # The new region's station hosts the running chain...
    new_deployment = testbed.agents["station-2"].deployment_for_client(client.ip)
    assert new_deployment is not None
    assert all(d.container.is_running for d in new_deployment.deployed_nfs)
    testbed.run(5.0)
    # ...and the old region's station tore everything down: no deployment,
    # and the telemetry it reports upstream shows the steering rules gone
    # and the cached fast-path verdicts flushed.
    assert testbed.agents["station-1"].deployment_for_client(client.ip) is None
    old_switch = testbed.topology.stations["station-1"].switch
    assert old_switch.flow_table.rules(cookie=f"chain:{assignment.assignment_id}") == []
    reported = manager.last_heartbeat["station-1"]
    assert reported.switch["flow_rules"] <= baseline_rules
    old_fastpath = old_switch.flow_cache.stats()
    assert old_fastpath["entries"] == 0
    assert old_fastpath["invalidations"] + old_fastpath["flushes"] > 0
    assert manager.overview()["cross_region_handoffs"] == 1
    assert manager.overview()["cross_shard_handoffs"] == 0
    _assert_rollups_exact(manager)


def test_directory_stays_consistent_under_concurrent_cross_region_roams():
    """Three synthetic clients ping-pong across the region boundary
    concurrently; after every wave the global directory equals the disjoint
    union of the leaf directories and the assignment index matches the
    owning leaf's table."""
    testbed = GNFTestbed(
        TestbedConfig(station_count=4, region_count=2, shard_count=2,
                      migration_strategy="cold")
    )
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    ips = [f"10.10.99.{i}" for i in (1, 2, 3)]
    # Each client shuttles between the last region-0 station and the first
    # region-1 station, so every roam crosses the boundary.
    east, west = "station-2", "station-3"
    testbed.start()
    testbed.run(0.5)
    for ip in ips:
        manager.receive_client_event(_event(testbed, east, "connected", ip))
    testbed.run(0.1)
    assignments = [
        manager.attach_chain(ip, ServiceChain.of("firewall"), station_name=east)
        for ip in ips
    ]
    testbed.run(5.0)
    for assignment in assignments:
        assert assignment.state is AssignmentState.ACTIVE
    _assert_directory_consistent(manager)

    here, there = east, west
    for wave in range(8):
        # All three disconnect in the same tick...
        for ip in ips:
            manager.receive_client_event(_event(testbed, here, "disconnected", ip))
        testbed.run(0.3)
        # ...mid-flight the departed clients are in no directory at all...
        _assert_directory_consistent(manager)
        assert not any(ip in manager.client_locations for ip in ips)
        # ...then all three reconnect across the boundary in the same tick.
        for ip in ips:
            manager.receive_client_event(_event(testbed, there, "connected", ip))
        testbed.run(2.2)
        for assignment in assignments:
            _wait_active(testbed, assignment)
        _assert_directory_consistent(manager)
        owning = manager.shard_map.shard_for(there)
        for ip, assignment in zip(ips, assignments):
            assert manager.client_locations[ip] == there
            assert assignment.station_name == there
            assert manager._assignment_shard[assignment.assignment_id] == owning
            assert assignment.assignment_id in manager.shards[owning].assignments
        here, there = there, here

    assert len(manager.handoffs) == 8 * len(ips)
    assert manager.overview()["cross_region_handoffs"] == 8 * len(ips)
    _assert_rollups_exact(manager)


# ---------------------------------------------------------------------------
# The 100-roam cross-region soak (migration-ledger + container census)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", ["stateful", "precopy"])
def test_soak_100_cross_region_roams_keeps_ledgers_bounded(strategy):
    """The cross-region twin of ``test_migration_engine``'s soak: every roam
    crosses the region boundary, and after 100 of them the engine's
    captured-state and speculative ledgers are empty and exactly one station
    hosts exactly one chain's worth of containers."""
    testbed = GNFTestbed(
        TestbedConfig(station_count=2, region_count=2, migration_strategy=strategy)
    )
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    testbed.start()
    testbed.run(0.5)
    manager.receive_client_event(_event(testbed, "station-1", "connected"))
    testbed.run(0.1)
    assignment = manager.attach_chain(
        CLIENT_IP, ServiceChain.of("firewall"), station_name="station-1"
    )
    testbed.run(5.0)
    assert assignment.state is AssignmentState.ACTIVE
    for _ in range(100):
        old = assignment.station_name
        new = "station-2" if old == "station-1" else "station-1"
        manager.receive_client_event(_event(testbed, old, "disconnected"))
        testbed.run(0.3)
        manager.receive_client_event(_event(testbed, new, "connected"))
        testbed.run(2.2)
        _wait_active(testbed, assignment)
    engine = testbed.roaming
    assert len(engine.records) == 100
    assert all(record.success for record in engine.records)
    assert assignment.migrations == 100
    assert len(manager.handoffs) == 100
    assert all(h.cross_region for h in manager.handoffs)
    # The ledgers are bounded: everything staged per-roam was consumed.
    assert engine._captured_state == {}
    assert engine._speculative == {}
    # Container census: exactly one station hosts the chain, with exactly
    # one chain's worth of running containers network-wide.
    hosts = [
        name for name, agent in testbed.agents.items() if agent.deployment_for_client(CLIENT_IP)
    ]
    assert hosts == [assignment.station_name]
    held = [
        container
        for agent in testbed.agents.values()
        for container in agent.runtime.containers.values()
        if container.labels.get("assignment") == assignment.assignment_id
    ]
    assert len(held) == len(assignment.chain)
    assert all(container.is_running for container in held)
    # The assignment table and directory ended on the owning leaf only.
    _assert_directory_consistent(manager)
    _assert_rollups_exact(manager)


# ---------------------------------------------------------------------------
# Digest invariance + rollup-vs-scan equivalence, every canned scenario
# ---------------------------------------------------------------------------

#: region_count x shard_count combinations the invariance matrix covers;
#: combos needing more regions than the scenario has stations are skipped
#: (the config layer rejects them by design).
_MATRIX = [(1, 4), (2, 1), (2, 4)]


@pytest.mark.parametrize("name", scenario_names())
def test_canned_digest_invariant_across_regions_and_shards(name):
    """Every canned scenario replays byte-identically across the
    region/shard matrix, and every multi-leaf replay's streaming overview
    equals the brute-force full scan (the rollup-equivalence gate)."""
    spec = build_scenario(name, seed=0)
    runner = ScenarioRunner(spec)
    base = runner.run(region_count=1, shard_count=1)
    assert base.drained
    for region_count, shard_count in _MATRIX:
        if region_count > spec.topology.station_count:
            continue
        result = runner.run(region_count=region_count, shard_count=shard_count)
        assert result.drained, (name, region_count, shard_count)
        assert result.digest == base.digest, (
            name, region_count, shard_count, base.digest.diff(result.digest),
        )
        manager = result.testbed.manager
        assert isinstance(manager, ShardedManager)
        assert manager.region_count == region_count
        assert manager.total_shard_count == region_count * shard_count
        _assert_rollups_exact(manager)
        _assert_directory_consistent(manager)


def test_federated_commuters_scenario_actually_federates():
    """The canned ``federated-commuters`` scenario exercises the tier it was
    built for: real cross-region handoffs on its own default settings."""
    spec = build_scenario("federated-commuters", seed=0)
    assert spec.topology.region_count == 2 and spec.topology.shard_count == 2
    result = ScenarioRunner(spec).run()
    assert result.drained
    manager = result.testbed.manager
    assert isinstance(manager, ShardedManager)
    assert manager.overview()["cross_region_handoffs"] >= 4
    assert result.migrations_completed >= 4
    _assert_rollups_exact(manager)
