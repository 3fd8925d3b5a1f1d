"""E14 -- Federated control plane at fleet scale: streaming rollups vs scans.

Paper claim: GNF targets "edge clouds ... handling millions of users".  E7
scales the heartbeat path with shards; an operator fleet also groups them
into regions.  This experiment measures the same ``ShardedManager`` at
region x shard shapes:

1. **Read path at population scale** -- a frontend of 4 regions x 8 shards
   carries a million-client directory; the streaming rollup ``overview()``
   is compared with the brute-force ``full_scan_overview()`` that
   recomputes the same summary from per-station / per-assignment state.
   The two must be *equal* (the equivalence gate), and the work each read
   does is counted on the instance: ``overview()`` asks no leaf health
   monitor and never walks the client directory, the scan asks about every
   station and walks the directory once.  The count covers those two
   primitives of the scan only; per-station or per-client work that
   ``overview()`` reached by another route would not show in it.
2. **Heartbeat transport across region counts** -- the E7b harness one
   tier up: a fixed station fleet fires pre-built heartbeat waves through
   the frontend's one bus at each region count (x8 shards each), against a
   single unsharded Manager baseline.  The baseline takes one simulator
   event per heartbeat, every federated shape one bus flush per wave.
3. **Hybrid-mode federated testbed** -- a real ``GNFTestbed`` at 4 regions x
   8 shards in ``simulation_mode="hybrid"``: full agents, radios and chain
   deployments, asserting the rollup stays byte-equal to the full scan with
   the whole stack live.

Read times and heartbeats/s are reported columns only.
"""

from __future__ import annotations

import collections
import gc
import time

from _bench_utils import run_once
from heartbeat_waves import heartbeat_waves

from repro.analysis.report import ExperimentResult
from repro.core.api import ClientEvent
from repro.core.chain import ServiceChain
from repro.core.sharding import ShardedManager
from repro.core.testbed import GNFTestbed, TestbedConfig

REGIONS = 4
SHARDS_PER_REGION = 8
CLIENTS = 1_000_000
STATIONS = 128
READS = 20
ROUNDS = 40
REGION_COUNTS = (1, 2, 4)
HYBRID_STATIONS = 32
HYBRID_DURATION_S = 20.0


# ---------------------------------------------------------------------------
# Part 1: overview() vs full_scan_overview() under a million-client directory
# ---------------------------------------------------------------------------


def _count_read_work(manager: ShardedManager, read) -> tuple:
    """Run one ``read()`` with every leaf's ``health.is_online`` and the
    frontend's ``connected_client_ips`` wrapped on the instance; return the
    per-station liveness queries and the directory walks it made."""
    is_online_calls = collections.Counter()
    directory_walks = 0
    # The leaves of one region share that region's liveness structure.
    healths = list({id(shard.health): shard.health for shard in manager.shards}.values())

    for health in healths:
        original = health.is_online

        def is_online(station_name, now, _original=original):
            is_online_calls[station_name] += 1
            return _original(station_name, now)

        health.is_online = is_online
    original_walk = manager.connected_client_ips

    def connected_client_ips():
        nonlocal directory_walks
        directory_walks += 1
        return original_walk()

    manager.connected_client_ips = connected_client_ips
    try:
        read()
    finally:
        for health in healths:
            del health.is_online
        del manager.connected_client_ips
    return is_online_calls, directory_walks


def _read_path_comparison(client_count: int, station_count: int, reads: int):
    # One heartbeat wave so every station is online in both views.
    waves = heartbeat_waves(
        station_count, 1, region_count=REGIONS, shard_count=SHARDS_PER_REGION
    )
    simulator, manager = waves.simulator, waves.manager
    station_names = list(waves.topology.stations)

    # Pour the client population into the directory through the real
    # delivery path (leaf + global directories and the rollup counters all
    # see every event, exactly as live Agents would report them).
    ingest_started = time.perf_counter()
    for index in range(client_count):
        station = station_names[index % station_count]
        manager.receive_client_event(
            ClientEvent(
                station_name=station,
                client_ip=f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}",
                client_name=f"client-{index}",
                event="connected",
                time=simulator.now,
            )
        )
    ingest_s = time.perf_counter() - ingest_started
    simulator.run()

    # A slice of real chain deployments so the active-assignment counters
    # have something to mirror (4 per station: comfortably within every
    # station profile's admission capacity).
    attach_count = min(4 * station_count, client_count)
    for index in range(attach_count):
        station = station_names[index % station_count]
        manager.attach_chain(
            f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}",
            ServiceChain.of("firewall"),
            station_name=station,
        )
    simulator.run()

    # The equivalence gate: the streaming summary IS the scanned summary.
    streamed, scanned = manager.overview(), manager.full_scan_overview()
    assert streamed == scanned, {
        key: (streamed[key], scanned[key])
        for key in streamed
        if streamed[key] != scanned[key]
    }
    assert streamed["connected_clients"] == client_count
    assert streamed["active_assignments"] == attach_count

    gc.collect()
    started = time.perf_counter()
    for _ in range(reads):
        manager.overview()
    rollup_s = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(reads):
        manager.full_scan_overview()
    scan_s = time.perf_counter() - started
    rollup_calls, rollup_walks = _count_read_work(manager, manager.overview)
    scan_calls, scan_walks = _count_read_work(manager, manager.full_scan_overview)
    return {
        "clients": client_count,
        "stations": station_count,
        "assignments": attach_count,
        "reads": reads,
        "ingest_s": ingest_s,
        "ingest_rate_per_s": client_count / ingest_s if ingest_s > 0 else 0.0,
        "rollup_read_ms": rollup_s * 1000.0 / reads,
        "scan_read_ms": scan_s * 1000.0 / reads,
        "speedup": (scan_s / rollup_s) if rollup_s > 0 else float("inf"),
        "station_names": station_names,
        "rollup_is_online": rollup_calls,
        "rollup_walks": rollup_walks,
        "scan_is_online": scan_calls,
        "scan_walks": scan_walks,
    }


# ---------------------------------------------------------------------------
# Part 3: the full stack, hybrid mode, 4 regions x 8 shards
# ---------------------------------------------------------------------------


def _hybrid_leg(station_count: int, duration_s: float):
    testbed = GNFTestbed(
        TestbedConfig(
            station_count=station_count,
            region_count=min(REGIONS, station_count),
            shard_count=SHARDS_PER_REGION,
            simulation_mode="hybrid",
            heartbeat_interval_s=2.0,
        )
    )
    clients = [
        testbed.add_client(
            f"client-{index}",
            position=((index % station_count) * testbed.config.station_spacing_m, 0.0),
        )
        for index in range(station_count)
    ]
    testbed.start()
    testbed.run(1.0)
    assignments = [testbed.manager.attach_nf(client.ip, "firewall") for client in clients]
    testbed.run(duration_s)
    manager = testbed.manager
    assert isinstance(manager, ShardedManager)
    streamed, scanned = manager.overview(), manager.full_scan_overview()
    assert streamed == scanned
    return {
        "stations": station_count,
        "regions": manager.region_count,
        "shards": manager.total_shard_count,
        "clients": len(clients),
        "active": sum(1 for a in assignments if a.state.value == "active"),
        "heartbeats": manager.heartbeats_processed,
        "online": len(streamed["online_stations"]),
    }


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


def test_e14_federated_rollups(benchmark, record_experiment):
    def _run_experiment():
        # The heartbeat sweep first: the million-client directory built by
        # the read-path part would otherwise stretch GC pauses into the
        # reported heartbeat wall clocks.
        throughput_rows = [(0, heartbeat_waves(STATIONS, ROUNDS))]
        for regions in REGION_COUNTS:
            gc.collect()
            throughput_rows.append(
                (
                    regions,
                    heartbeat_waves(
                        STATIONS, ROUNDS, region_count=regions, shard_count=SHARDS_PER_REGION
                    ),
                )
            )
        read_row = _read_path_comparison(CLIENTS, STATIONS, READS)
        hybrid_row = _hybrid_leg(HYBRID_STATIONS, HYBRID_DURATION_S)
        return read_row, throughput_rows, hybrid_row

    read_row, throughput_rows, hybrid_row = run_once(benchmark, _run_experiment)

    result = ExperimentResult(
        experiment_id="E14",
        title=(
            f"Federated rollup reads at {read_row['clients']} clients "
            f"({REGIONS} regions x {SHARDS_PER_REGION} shards)"
        ),
        headers=[
            "read", "liveness queries", "directory walks", "clients", "stations",
            "reads", "read (ms, reported)", "directory ingest/s (reported)",
        ],
        paper_claim=(
            "GNF targets edge clouds handling millions of users; fleet-wide "
            "monitoring must not rescan every station and assignment per read"
        ),
        notes=f"full scan / rollup read time {read_row['speedup']:.1f}x (reported)",
    )
    for read, calls, walks, read_ms in (
        ("overview()", read_row["rollup_is_online"], read_row["rollup_walks"],
         read_row["rollup_read_ms"]),
        ("full_scan_overview()", read_row["scan_is_online"], read_row["scan_walks"],
         read_row["scan_read_ms"]),
    ):
        result.add_row(
            read, sum(calls.values()), walks, read_row["clients"], read_row["stations"],
            read_row["reads"], f"{read_ms:.4f}", f"{read_row['ingest_rate_per_s']:.0f}",
        )
    record_experiment(result)

    comparison = ExperimentResult(
        experiment_id="E14b",
        title=(
            f"Heartbeat transport at {STATIONS} stations x {ROUNDS} waves: "
            f"region sweep (x{SHARDS_PER_REGION} shards) vs single Manager"
        ),
        headers=[
            "regions", "total shards", "heartbeats", "sim events", "wall (s)",
            "heartbeats/s (reported)",
        ],
        paper_claim=(
            "Continuous fleet-wide monitoring has to scale out across regions, "
            "not serialise through one control object"
        ),
    )
    for regions, run in throughput_rows:
        comparison.add_row(
            regions or "0 (single)", regions * SHARDS_PER_REGION, run.heartbeats,
            run.events, f"{run.wall_s:.3f}", f"{run.rate_per_s:.0f}",
        )
    record_experiment(comparison)

    hybrid = ExperimentResult(
        experiment_id="E14c",
        title="Hybrid-mode federated testbed: full stack, rollups == scans",
        headers=["stations", "regions", "shards", "clients", "active NFs", "heartbeats", "online"],
        paper_claim="The federation tier composes with the hybrid simulation core",
    )
    hybrid.add_row(
        hybrid_row["stations"], hybrid_row["regions"], hybrid_row["shards"],
        hybrid_row["clients"], hybrid_row["active"], hybrid_row["heartbeats"],
        hybrid_row["online"],
    )
    record_experiment(hybrid)

    # Headline criterion 1, in counted work: a rollup read asks no leaf
    # about liveness and never walks the client directory; the scan asks
    # about every station and walks the directory exactly once.
    assert not read_row["rollup_is_online"], read_row["rollup_is_online"]
    assert read_row["rollup_walks"] == 0
    scan_calls = read_row["scan_is_online"]
    assert set(scan_calls) == set(read_row["station_names"]), sorted(scan_calls)
    assert min(scan_calls.values()) >= 1
    assert read_row["scan_walks"] == 1
    # Headline criterion 2, in simulated work: every heartbeat is processed;
    # the single Manager pays one delivery event per heartbeat, every
    # federated shape one bus flush per wave.
    heartbeats = ROUNDS * STATIONS
    for regions, run in throughput_rows:
        assert run.heartbeats == heartbeats, (regions, run.heartbeats)
        expected = heartbeats if regions == 0 else ROUNDS
        assert run.events == expected, (regions, run.events, expected)
    # The hybrid leg really ran federated with everything alive.
    assert hybrid_row["active"] == hybrid_row["clients"]
    assert hybrid_row["online"] == hybrid_row["stations"]
