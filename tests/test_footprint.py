"""Memory footprint per simulated client.

A roaming population is bounded by what one client costs to emulate, so the
bytes each added bulk client leaves allocated are pinned here: the same
storm shape (uploaders over 8 stations, hybrid mode) is built at two sizes,
advanced past the point where every flow is running, and the difference in
``tracemalloc``-retained bytes is divided by the difference in clients.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.scenarios import (
    ClientFleetSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

_STATIONS = 8
#: Upper bound on retained bytes per added bulk client (the hybrid storm
#: below measures ~4.6 kB; a link RNG per radio link alone adds ~2.9 kB).
MAX_BYTES_PER_CLIENT = 5_500


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


def _retained_bytes(clients: int) -> int:
    """Bytes still allocated by a hybrid storm of ``clients`` advanced 8 s."""
    gc.collect()
    tracemalloc.start()
    try:
        run = ScenarioRunner(_bulk_storm(clients)).start(simulation_mode="hybrid")
        run.advance(8.0)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del run
    gc.collect()
    return retained


def test_retained_bytes_per_added_bulk_client_stay_bounded():
    _retained_bytes(_STATIONS)  # warm-up: lazy imports and one-time caches
    small, large = _retained_bytes(200), _retained_bytes(600)
    per_client = (large - small) / 400
    assert 0 < per_client <= MAX_BYTES_PER_CLIENT, per_client
