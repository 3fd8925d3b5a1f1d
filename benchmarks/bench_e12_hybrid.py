"""E12 -- Hybrid fluid/packet simulation core: bulk-transfer event collapse.

The hybrid core (``src/repro/netem/fluid.py``) moves long-lived bulk flows
as fluid rate processes -- one solver epoch per 0.25 s instead of
one event chain per packet -- while keeping packet-level fidelity islands at
chained NFs, migrating stations and fault windows.  This benchmark runs the
*same* large bulk-transfer scenario under ``--sim-mode packet`` and
``--sim-mode hybrid`` and asserts what the hybrid engine changes in
simulated work: every flow finishes within ``DURATION_S`` in both legs, so
both move exactly the same bytes, and packet mode takes at least
``MIN_EVENT_RATIO`` times the simulator events.  Wall time, sim/wall and
events/s are reported columns only.

The fleet size is set with ``--e12-clients`` (default 10,000, the headline
run; CI smoke passes 40).  Byte accounting must be exact in hybrid mode:
every fluid byte and every packet byte is accounted per flow, and their sum
equals each flow's transfer size.
"""

from __future__ import annotations

import time

import pytest
from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.scenarios.spec import ClientFleetSpec, TopologySpec, WorkloadSpec

MIN_EVENT_RATIO = 10
STATIONS = 8
BYTES_PER_CLIENT = 1_000_000.0
RATE_BPS = 800e3
CHUNK_BYTES = 4000
WORKLOAD_START_S = 6.0
# The byte-equality fact needs every flow finished: the last transfer starts
# at WORKLOAD_START_S and moves BYTES_PER_CLIENT at RATE_BPS (10 s), so it
# ends by ~16 s.  Mid-transfer the engines count bytes differently (4000-byte
# chunks vs rate x time).
DURATION_S = 30.0


def _bulk_spec(clients: int) -> ScenarioSpec:
    """A pure bulk-transfer storm: ``clients`` uploaders spread over 8 stations.

    The deployment is a fiber-backhauled metro testbed (10 Gb/s uplinks, the
    default 10 Gb/s core), sized so the aggregate demand stays *below* every
    link capacity: packet mode then runs uncongested and both engines move
    the identical byte totals.
    Scan/heartbeat intervals are stretched so the control plane does not
    dominate either engine -- the measurement targets the dataplane.
    Workloads start after the first handover scan (``scan_interval_s``) so
    every client is associated before its transfer begins.
    """
    spacing = 80.0
    per_station = max(1, clients // STATIONS)
    fleets = []
    remaining = clients
    for index in range(STATIONS):
        count = min(per_station, remaining) if index < STATIONS - 1 else remaining
        if count <= 0:
            break
        remaining -= count
        fleets.append(
            ClientFleetSpec(
                name=f"bulk-s{index + 1}",
                count=count,
                position=(index * spacing, 0.0),
                spread_m=10.0,
                appear_at_s=0.5,
                workloads=[
                    WorkloadSpec(
                        kind="bulk",
                        start_s=WORKLOAD_START_S,
                        params={
                            "total_bytes": BYTES_PER_CLIENT,
                            "rate_bps": RATE_BPS,
                            "chunk_bytes": CHUNK_BYTES,
                        },
                    )
                ],
            )
        )
    return ScenarioSpec(
        name="e12-bulk-storm",
        description="E12 bulk-transfer storm for the hybrid-core speedup headline",
        seed=0,
        duration_s=DURATION_S,
        topology=TopologySpec(
            station_count=STATIONS,
            station_spacing_m=spacing,
            uplink_bandwidth_bps=10e9,
            scan_interval_s=5.0,
            heartbeat_interval_s=5.0,
            simulation_mode="packet",
        ),
        fleets=fleets,
    )


def _run_mode(spec: ScenarioSpec, mode: str):
    started = time.perf_counter()
    result = ScenarioRunner(spec).run(simulation_mode=mode)
    wall_s = time.perf_counter() - started
    moved = sum(
        stats.get("bytes_moved", 0.0) for stats in result.workload_stats.values()
    )
    return {
        "mode": mode,
        "wall_s": wall_s,
        "sim_s": result.duration_s,
        "ratio": result.duration_s / wall_s if wall_s > 0 else 0.0,
        "events": result.events_processed,
        "events_per_s": result.events_processed / wall_s if wall_s > 0 else 0.0,
        "bytes_moved": moved,
        "drained": result.drained,
        "fluid": result.fluid_summary,
        "stats": result.workload_stats,
    }


@pytest.fixture
def e12_clients(request):
    return request.config.getoption("--e12-clients")


def test_e12_hybrid_core_speedup(benchmark, record_experiment, e12_clients):
    """Hybrid mode moves the packet leg's exact bytes in a tenth of its
    simulator events (or fewer); the wall-clock speedup is reported."""
    clients = e12_clients
    spec = _bulk_spec(clients)

    def run_both():
        packet = _run_mode(spec, "packet")
        hybrid = _run_mode(spec, "hybrid")
        return packet, hybrid

    packet, hybrid = run_once(benchmark, run_both)
    speedup = packet["wall_s"] / hybrid["wall_s"] if hybrid["wall_s"] > 0 else 0.0

    result = ExperimentResult(
        experiment_id="E12",
        title=f"Hybrid fluid core vs packet engine ({clients} bulk clients, {DURATION_S:.0f}s sim)",
        headers=[
            "engine", "events", "sim time (s)", "wall (s)", "sim/wall x",
            "events/s", "bytes moved",
        ],
        paper_claim=(
            "Edge-NFV evaluation at metro scale needs flow-level simulation "
            "speed without giving up packet fidelity where NFs act"
        ),
        notes=(
            f"hybrid wall-clock speedup {speedup:.2f}x over packet mode (reported); "
            f"fluid bytes {hybrid['fluid'].get('bytes_fluid', 0.0):,.0f}, "
            f"packet-island bytes {hybrid['fluid'].get('bytes_packet', 0.0):,.0f}"
        ),
    )
    for run in (packet, hybrid):
        result.add_row(
            run["mode"], run["events"], run["sim_s"], f"{run['wall_s']:.2f}",
            f"{run['ratio']:.1f}", f"{run['events_per_s']:.0f}", f"{run['bytes_moved']:,.0f}",
        )
    record_experiment(result)

    assert packet["drained"] and hybrid["drained"]
    # Exact byte continuity in hybrid mode: per flow, fluid + packet bytes
    # equal the bytes the generator reports moved.
    for name, stats in hybrid["stats"].items():
        if "total_bytes" not in stats:
            continue
        assert stats["bytes_fluid"] + stats["bytes_packet"] == pytest.approx(
            stats["bytes_moved"], rel=1e-9
        ), f"{name}: fluid/packet byte split does not add up"
    # Same workload, same bytes: every flow finished its transfer in both
    # engines, which differ in how they move bytes, not in what is moved.
    for run in (packet, hybrid):
        short = {
            name: stats["bytes_moved"]
            for name, stats in run["stats"].items()
            if stats["bytes_moved"] != BYTES_PER_CLIENT
        }
        assert not short, f"{run['mode']}: flows unfinished by {DURATION_S} s: {short}"
    assert hybrid["bytes_moved"] == packet["bytes_moved"] == clients * BYTES_PER_CLIENT, (
        packet["bytes_moved"], hybrid["bytes_moved"]
    )
    # Hybrid mode collapses per-packet event chains into solver epochs.
    assert packet["events"] >= MIN_EVENT_RATIO * hybrid["events"], (
        packet["events"], hybrid["events"]
    )
    # The fluid engine carried the bulk of the bytes (no islands here).
    fluid_bytes = hybrid["fluid"].get("bytes_fluid", 0.0)
    assert fluid_bytes > 0.0
