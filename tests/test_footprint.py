"""Memory footprint per simulated client.

A roaming population is bounded by what one client costs to emulate, so the
bytes each added bulk client leaves allocated are pinned here: the same
storm shape (uploaders over 8 stations, hybrid mode) is built at two sizes,
advanced past the point where every flow is running, and the difference in
``tracemalloc``-retained bytes is divided by the difference in clients.  The
same two runs are then finalized, and the peak ``finalize()`` reaches above
what the run retained is pinned the same way: the digest must stream the
per-client sections, never hold one whole.
"""

from __future__ import annotations

import functools
import gc
import tracemalloc
from typing import Tuple

from repro.scenarios import (
    ClientFleetSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

_STATIONS = 8
#: Upper bound on retained bytes per added bulk client (the hybrid storm
#: below measures ~3.3 kB; a link RNG per radio link alone adds ~2.9 kB).
MAX_BYTES_PER_CLIENT = 3_700
#: Upper bound on what ``finalize()`` allocates at its peak, above the bytes
#: the run retained, per added bulk client (~1.1 kB: the per-generator
#: ``workload_stats`` and the digest's per-entry hashes, both kept; building
#: the ``clients`` and ``workloads`` sections whole read ~1.6 kB).
MAX_FINALIZE_BYTES_PER_CLIENT = 1_200


def _bulk_storm(clients: int) -> ScenarioSpec:
    """``clients`` 1 MB uploaders at 800 kb/s, spread evenly over 8 stations."""
    per_station, remainder = divmod(clients, _STATIONS)
    fleets = [
        ClientFleetSpec(
            name=f"bulk-s{index + 1}",
            count=per_station + (1 if index < remainder else 0),
            position=(index * 80.0, 0.0),
            spread_m=10.0,
            appear_at_s=0.5,
            workloads=[
                WorkloadSpec(
                    kind="bulk",
                    start_s=6.0,
                    params={"total_bytes": 1_000_000.0, "rate_bps": 800e3, "chunk_bytes": 4000},
                )
            ],
        )
        for index in range(_STATIONS)
    ]
    return ScenarioSpec(
        name="bulk-storm",
        description="bulk-transfer storm for the footprint guard",
        seed=0,
        duration_s=60.0,
        topology=TopologySpec(
            station_count=_STATIONS,
            station_spacing_m=80.0,
            uplink_bandwidth_bps=10e9,
            scan_interval_s=5.0,
            heartbeat_interval_s=5.0,
        ),
        fleets=fleets,
    )


@functools.lru_cache(maxsize=None)
def _footprint(clients: int) -> Tuple[int, int]:
    """``(retained, finalize_peak)`` of a hybrid storm of ``clients``: the bytes
    still allocated after ``advance(8)``, and how far above them ``finalize()``
    peaks."""
    gc.collect()
    tracemalloc.start()
    try:
        run = ScenarioRunner(_bulk_storm(clients)).start(simulation_mode="hybrid")
        run.advance(8.0)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        run.finalize()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del run
    gc.collect()
    return retained, peak - retained


def _per_added_client(index: int) -> float:
    _footprint(_STATIONS)  # warm-up: lazy imports and one-time caches
    return (_footprint(600)[index] - _footprint(200)[index]) / 400


def test_retained_bytes_per_added_bulk_client_stay_bounded():
    per_client = _per_added_client(0)
    assert 0 < per_client <= MAX_BYTES_PER_CLIENT, per_client


def test_finalize_peak_per_added_bulk_client_stays_bounded():
    per_client = _per_added_client(1)
    assert 0 < per_client <= MAX_FINALIZE_BYTES_PER_CLIENT, per_client


def test_runner_keeps_only_pending_orchestration_handles():
    """Spawns and workload starts that fired are not kept after ``advance()``."""
    run = ScenarioRunner(_bulk_storm(40)).start(simulation_mode="hybrid")
    scheduled = len(run._control_events)
    run.advance(1.0)  # every client has appeared; no workload has started yet
    assert all(event.pending for event in run._control_events)
    assert len(run._control_events) == 40 < scheduled + 40  # one workload start per client
    run.advance(7.0)  # every workload has started
    assert run._control_events == []
    assert run.finalize().drained
