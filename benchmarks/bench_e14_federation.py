"""E14 -- Federated control plane at fleet scale: streaming rollups vs scans.

Paper claim: GNF targets "edge clouds ... handling millions of users".  E7
scales the heartbeat path with shards; an operator fleet also groups them
into regions.  This experiment measures the same ``ShardedManager`` at
region x shard shapes:

1. **Read path at population scale** -- a frontend of 4 regions x 8 shards
   carries a million-client directory (``--e14-clients``); the streaming
   rollup ``overview()`` is timed against the brute-force
   ``full_scan_overview()`` that recomputes the same summary from
   per-station / per-assignment state.  The two must be *equal* (the
   equivalence gate) and the rollup must read >= 5x faster
   (``E14_MIN_SPEEDUP``).
2. **Heartbeat throughput scaling with regions** -- the E7b harness one tier
   up: a fixed station fleet fires pre-built heartbeat waves through the
   frontend's one bus at region counts ``--e14-regions`` (x8 shards each),
   against a single unsharded Manager baseline.  The best federated config
   must process heartbeats >= 2x the baseline rate (``E14_MIN_SCALING``).
3. **Hybrid-mode federated testbed** -- a real ``GNFTestbed`` at 4 regions x
   8 shards in ``simulation_mode="hybrid"``: full agents, radios and chain
   deployments, asserting the rollup stays byte-equal to the full scan with
   the whole stack live.

CLI knobs (see ``benchmarks/conftest.py``)::

    pytest benchmarks/bench_e14_federation.py \
        --e14-clients 1000000 --e14-stations 128 --e14-regions 1,2,4
"""

from __future__ import annotations

import gc
import os
import time

import pytest
from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.core.agent import GNFAgent
from repro.core.api import AgentHeartbeat, ClientEvent
from repro.core.chain import ServiceChain
from repro.core.manager import GNFManager
from repro.core.repository import NFRepository
from repro.core.sharding import ShardedManager
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.simulator import Simulator
from repro.netem.topology import EdgeTopology, TopologyConfig

REGIONS = 4
SHARDS_PER_REGION = 8


@pytest.fixture
def e14_options(request):
    return {
        "clients": request.config.getoption("--e14-clients"),
        "stations": request.config.getoption("--e14-stations"),
        "reads": request.config.getoption("--e14-reads"),
        "rounds": request.config.getoption("--e14-rounds"),
        "regions": [
            int(part)
            for part in str(request.config.getoption("--e14-regions")).split(",")
            if part.strip()
        ],
        "hybrid_stations": request.config.getoption("--e14-hybrid-stations"),
        "hybrid_duration": request.config.getoption("--e14-hybrid-duration"),
    }


def _build_federation(station_count: int, region_count: int, shards_per_region: int):
    """A federation over real registered Agents (periodic tasks stopped, so
    heartbeats are driven manually and the timing loops stay pure)."""
    simulator = Simulator()
    topology = EdgeTopology(simulator, TopologyConfig(station_count=station_count))
    repository = NFRepository.with_default_catalog()
    if region_count > 1 or shards_per_region > 1:
        manager = ShardedManager(
            simulator,
            region_count=region_count,
            shard_count=shards_per_region,
            station_count=station_count,
            repository=repository,
            topology=topology,
        )
    else:
        manager = GNFManager(simulator, repository=repository, topology=topology)
    senders = []
    for station_name, station in topology.stations.items():
        agent = GNFAgent(simulator, station, repository)
        manager.register_agent(agent)
        agent.stop()
        heartbeat = AgentHeartbeat(
            station_name=station_name,
            time=0.0,
            resources=agent.runtime.utilization(),
            switch={},
            nf_stats={},
            connected_clients=[],
        )
        senders.append((agent._manager_heartbeat_sink, heartbeat))
    simulator.run()
    return simulator, topology, manager, senders


# ---------------------------------------------------------------------------
# Part 1: overview() vs full_scan_overview() under a million-client directory
# ---------------------------------------------------------------------------


def _read_path_comparison(client_count: int, station_count: int, reads: int):
    simulator, topology, manager, senders = _build_federation(
        station_count, REGIONS, SHARDS_PER_REGION
    )
    station_names = list(topology.stations)
    # One heartbeat wave so every station is online in both views.
    for sender, heartbeat in senders:
        sender(heartbeat)
    simulator.run()

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
                cell_name=f"{station}-cell1",
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
    }


# ---------------------------------------------------------------------------
# Part 2: heartbeat throughput scaling with region count
# ---------------------------------------------------------------------------


def _heartbeat_throughput(station_count: int, region_count: int, rounds: int):
    """Wall-clock heartbeats/second through the real transport.

    ``region_count == 0`` is the unsharded single-Manager baseline; every
    other config is a federation of ``region_count`` regions x 8 shards."""
    shards = 0 if region_count == 0 else SHARDS_PER_REGION
    simulator, _, manager, senders = _build_federation(
        station_count, max(region_count, 1), shards or 1
    )
    gc.collect()
    started = time.perf_counter()
    for _ in range(rounds):
        for sender, heartbeat in senders:
            sender(heartbeat)
        simulator.run()
    elapsed = time.perf_counter() - started
    processed = manager.heartbeats_processed
    assert processed == rounds * station_count
    return {
        "regions": region_count,
        "total_shards": 0 if region_count == 0 else region_count * SHARDS_PER_REGION,
        "stations": station_count,
        "heartbeats": processed,
        "wall_s": elapsed,
        "rate_per_s": processed / elapsed if elapsed > 0 else 0.0,
        "events": simulator.events_processed,
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


def test_e14_federated_rollups(benchmark, record_experiment, e14_options):
    def _run_experiment():
        # Timing-sensitive sweep first: the million-client directory built
        # by the read-path part would otherwise stretch GC pauses into the
        # heartbeat wall clocks.
        throughput_rows = [
            _heartbeat_throughput(e14_options["stations"], 0, e14_options["rounds"])
        ] + [
            _heartbeat_throughput(e14_options["stations"], regions, e14_options["rounds"])
            for regions in e14_options["regions"]
        ]
        read_row = _read_path_comparison(
            e14_options["clients"], e14_options["stations"], e14_options["reads"]
        )
        hybrid_row = _hybrid_leg(
            e14_options["hybrid_stations"], e14_options["hybrid_duration"]
        )
        return read_row, throughput_rows, hybrid_row

    read_row, throughput_rows, hybrid_row = run_once(benchmark, _run_experiment)

    result = ExperimentResult(
        experiment_id="E14",
        title=(
            f"Federated rollup reads at {read_row['clients']} clients "
            f"({REGIONS} regions x {SHARDS_PER_REGION} shards)"
        ),
        headers=[
            "clients", "stations", "reads", "directory ingest/s",
            "rollup read (ms)", "full scan (ms)", "speedup",
        ],
        paper_claim=(
            "GNF targets edge clouds handling millions of users; fleet-wide "
            "monitoring must not rescan every station and assignment per read"
        ),
    )
    result.add_row(
        read_row["clients"], read_row["stations"], read_row["reads"],
        f"{read_row['ingest_rate_per_s']:.0f}",
        f"{read_row['rollup_read_ms']:.4f}", f"{read_row['scan_read_ms']:.3f}",
        f"{read_row['speedup']:.1f}x",
    )
    record_experiment(result)

    comparison = ExperimentResult(
        experiment_id="E14b",
        title=(
            f"Heartbeat throughput at {e14_options['stations']} stations: "
            f"region sweep (x{SHARDS_PER_REGION} shards) vs single Manager"
        ),
        headers=["regions", "total shards", "heartbeats", "wall (s)", "heartbeats/s"],
        paper_claim=(
            "Continuous fleet-wide monitoring has to scale out across regions, "
            "not serialise through one control object"
        ),
    )
    for row in throughput_rows:
        comparison.add_row(
            row["regions"] or "0 (single)", row["total_shards"], row["heartbeats"],
            f"{row['wall_s']:.3f}", f"{row['rate_per_s']:.0f}",
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

    # Headline criterion 1: the streaming rollup reads >= 5x faster than the
    # brute-force scan at population scale (relax on tiny smoke fleets).
    min_speedup = float(os.environ.get("E14_MIN_SPEEDUP", "5.0"))
    assert read_row["speedup"] >= min_speedup, (
        f"rollup overview() is only {read_row['speedup']:.2f}x faster than "
        f"full_scan_overview() (floor {min_speedup}x)"
    )
    # Headline criterion 2: the federated control plane processes heartbeats
    # >= 2x the single-Manager rate (wall clock; relax on noisy runners).
    min_scaling = float(os.environ.get("E14_MIN_SCALING", "2.0"))
    baseline = throughput_rows[0]
    best = max(throughput_rows[1:], key=lambda row: row["rate_per_s"])
    scaling = best["rate_per_s"] / baseline["rate_per_s"]
    print(
        f"\nE14b scaling: {scaling:.2f}x "
        f"({best['regions']} regions {best['rate_per_s']:.0f}/s vs "
        f"single Manager {baseline['rate_per_s']:.0f}/s)"
    )
    assert scaling >= min_scaling, (
        f"federated heartbeat throughput {best['rate_per_s']:.0f}/s is only "
        f"{scaling:.2f}x the single-Manager {baseline['rate_per_s']:.0f}/s "
        f"(floor {min_scaling}x)"
    )
    # The hybrid leg really ran federated with everything alive.
    assert hybrid_row["active"] == hybrid_row["clients"]
    assert hybrid_row["online"] == hybrid_row["stations"]
