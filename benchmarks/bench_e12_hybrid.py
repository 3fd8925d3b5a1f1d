"""E12 -- Hybrid fluid/packet simulation core: bulk-transfer speedup.

The hybrid core (``src/repro/netem/fluid.py``) moves long-lived bulk flows
as fluid rate processes -- one solver epoch per 0.25 s instead of
one event chain per packet -- while keeping packet-level fidelity islands at
chained NFs, migrating stations and fault windows.  This benchmark runs the
*same* large bulk-transfer scenario under ``--sim-mode packet`` and
``--sim-mode hybrid`` and reports the sim-time/wall-time ratio headline for
both, asserting the hybrid engine is at least ``E12_MIN_SPEEDUP`` (default
3x; CI smoke relaxes it) faster in wall-clock terms.

Fleet size and simulated duration scale via ``--e12-clients`` /
``--e12-duration`` (defaults: 10,000 clients for the full headline run;
CI smoke passes a tiny fleet).  Byte accounting must be exact in both
modes: every fluid byte and every packet byte is accounted per flow, and
their sum equals each flow's transfer size.
"""

from __future__ import annotations

import os
import time

import pytest
from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.scenarios.spec import ClientFleetSpec, TopologySpec, WorkloadSpec

DEFAULT_CLIENTS = 10_000
DEFAULT_DURATION_S = 60.0
STATIONS = 8
BYTES_PER_CLIENT = 1_000_000.0
RATE_BPS = 800e3
CHUNK_BYTES = 4000


def _bulk_spec(clients: int, duration_s: float) -> ScenarioSpec:
    """A pure bulk-transfer storm: ``clients`` uploaders spread over 8 stations.

    The deployment is a fiber-backhauled metro testbed (10 Gb/s uplinks, the
    default 10 Gb/s core), sized so the aggregate demand stays *below* every
    link capacity: packet mode then runs uncongested and both engines move
    the identical byte totals, which keeps the wall-clock comparison honest.
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
                        start_s=6.0,
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
        duration_s=duration_s,
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
def e12_shape(request):
    clients = int(request.config.getoption("--e12-clients")) or DEFAULT_CLIENTS
    duration = float(request.config.getoption("--e12-duration")) or DEFAULT_DURATION_S
    return clients, duration


def test_e12_hybrid_core_speedup(benchmark, record_experiment, e12_shape):
    """Hybrid engine must beat packet mode by >= E12_MIN_SPEEDUP wall-clock.

    ``E12_MIN_SPEEDUP`` relaxes the floor for tiny smoke fleets (CI sets
    1.0); the full 10k-client run targets >= 10x.  The byte-conservation
    assertions are exact and never relaxed.
    """
    min_speedup = float(os.environ.get("E12_MIN_SPEEDUP", "3.0"))
    clients, duration_s = e12_shape
    spec = _bulk_spec(clients, duration_s)

    def run_both():
        packet = _run_mode(spec, "packet")
        hybrid = _run_mode(spec, "hybrid")
        return packet, hybrid

    packet, hybrid = run_once(benchmark, run_both)
    speedup = packet["wall_s"] / hybrid["wall_s"] if hybrid["wall_s"] > 0 else 0.0

    result = ExperimentResult(
        experiment_id="E12",
        title=f"Hybrid fluid core vs packet engine ({clients} bulk clients, {duration_s:.0f}s sim)",
        headers=[
            "engine", "events", "sim time (s)", "wall (s)", "sim/wall x",
            "events/s", "bytes moved",
        ],
        paper_claim=(
            "Edge-NFV evaluation at metro scale needs flow-level simulation "
            "speed without giving up packet fidelity where NFs act"
        ),
        notes=(
            f"hybrid wall-clock speedup {speedup:.2f}x over packet mode; "
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
    # The fluid engine carried the bulk of the bytes (no islands here).
    fluid_bytes = hybrid["fluid"].get("bytes_fluid", 0.0)
    assert fluid_bytes > 0.0
    assert hybrid["events"] < packet["events"], (
        "hybrid mode must collapse per-packet event chains into solver epochs"
    )
    assert speedup >= min_speedup, (
        f"hybrid speedup {speedup:.2f}x below the {min_speedup}x floor "
        f"(packet {packet['wall_s']:.2f}s vs hybrid {hybrid['wall_s']:.2f}s)"
    )
