"""The five replay workloads, built only from the public ``repro.scenarios`` waist.

A workload is a fixed list of :class:`Replay` objects; one *pass* executes the
list once.  Canned specs come from ``build_scenario(name, seed)``, the
synthetic ones are assembled here from the public spec dataclasses.  The
compositions are fixed (later issues cite them by name); only the three size
constants in :data:`SIZES` were calibrated, so that one pass takes 4-7 s.
Why each workload exists is recorded once, in ``BENCHMARK.json`` (and at
length in ``README.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from repro.scenarios import (
    ChainAssignmentSpec,
    ClientFleetSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
)


@dataclass(frozen=True)
class Sizes:
    """The calibrated size constants of one ``--scale``."""

    stations: int  #: control-fleet station count
    hybrid_clients: int  #: bulk-hybrid uploaders
    packet_clients: int  #: bulk-packet uploaders
    passes: int  #: timed passes of an end-to-end run
    #: Seeds replayed per canned edge-dataplane scenario (S, S+1, ...).
    edge_seeds: int = 2
    #: Cap on the simulated seconds of every replay but the bulk storms, which
    #: must run to completion (``None`` = the spec's own duration).  Only the
    #: smoke scale caps.
    sim_cap_s: Optional[float] = None


SIZES: Dict[str, Sizes] = {
    "full": Sizes(stations=64, hybrid_clients=5000, packet_clients=240, passes=3),
    "tiny": Sizes(
        stations=8, hybrid_clients=50, packet_clients=20, passes=1, edge_seeds=1, sim_cap_s=4.0
    ),
}


@dataclass(frozen=True)
class Replay:
    """One scenario replay: build a spec, start it, advance it, finalize it."""

    label: str
    build: Callable[[], ScenarioSpec]
    #: Keyword overrides for ``ScenarioRunner.start`` (tier shape, engine ...).
    start: Dict[str, object] = field(default_factory=dict)
    #: Simulated seconds to advance (``None`` = the spec's ``duration_s``).
    sim_cap_s: Optional[float] = None
    #: Correctness gates: label of a replay whose digest / per-flow bulk bytes
    #: this one must equal, and whether every bulk flow must finish exactly.
    same_digest_as: Optional[str] = None
    same_bytes_as: Optional[str] = None
    bulk_complete: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    #: The timed replay list (one pass = this list once).
    replays: Tuple[Replay, ...]
    #: Untimed replays, run once after the passes, that only feed the gates.
    gates: Tuple[Replay, ...] = ()


def _canned(name: str, seed: int, cap_s: Optional[float] = None, **start: object) -> Replay:
    suffix = "".join(f",{key}={value}" for key, value in sorted(start.items()))
    return Replay(
        label=f"{name}@seed={seed}{suffix}",
        build=lambda: build_scenario(name, seed),
        start=start,
        sim_cap_s=cap_s,
    )


# ------------------------------------------------------------ edge-dataplane

EDGE_SCENARIOS = (
    "flash-crowd",
    "video-cell",
    "mixed-chain-density",
    "upf-edge-vs-core",
    "slice-embb-iot",
    "pandemic-surge",
    "cache-vs-backhaul",
    "hotspot-stadium",
    "firewall-churn",
)


def _edge_dataplane(seed: int, sizes: Sizes) -> Workload:
    replays = tuple(
        _canned(name, seed + offset, sizes.sim_cap_s, simulation_mode="packet")
        for name in EDGE_SCENARIOS
        for offset in range(sizes.edge_seeds)
    )
    return Workload(name="edge-dataplane", replays=replays)


# ------------------------------------------------------------- roaming-storm

ROAMING_SCENARIOS = (
    "precopy-commuters",
    "chaos-soak",
    "rolling-failure",
    "bundle-rolling-upgrade",
    "fig2-roaming",
)


def _roaming_storm(seed: int, sizes: Sizes) -> Workload:
    cap = sizes.sim_cap_s
    federated = _canned("federated-commuters", seed, cap, region_count=2, shard_count=4)
    replays = (
        _canned("commuter-rush", seed, cap),
        federated,
        *(_canned(name, seed, cap) for name in ROAMING_SCENARIOS),
        _canned("commuter-rush", seed, cap, migration_strategy="stateful"),
    )
    flat = _canned("federated-commuters", seed, cap, region_count=1, shard_count=1)
    return Workload(
        name="roaming-storm",
        replays=replays,
        gates=(replace(flat, same_digest_as=federated.label),),
    )


# ------------------------------------------------------------- control-fleet

#: (regions, shards per region) of the three control-tier shapes.
CONTROL_SHAPES = ((1, 1), (1, 8), (2, 4))
_CONTROL_ROUNDS = (["firewall"], ["firewall", "flow-monitor"], ["firewall"])


def control_fleet_spec(seed: int, stations: int) -> ScenarioSpec:
    """``stations`` x 2 static clients, a trickle of CBR, three attach/detach rounds."""
    spacing = 80.0
    fleets = []
    assignments = []
    for index in range(stations):
        name = f"cell{index + 1}"
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=2,
                position=(index * spacing, 0.0),
                spread_m=8.0,
                appear_at_s=0.5,
                workloads=[WorkloadSpec(kind="cbr", start_s=3.0, params={"rate_pps": 0.5})],
            )
        )
        # Rounds are staggered across fleets so attach/detach work is spread
        # over the run instead of landing in three bursts.
        stagger = (index % 8) * 0.5
        for round_index, nfs in enumerate(_CONTROL_ROUNDS):
            attach_at = 4.0 + 18.0 * round_index + stagger
            assignments.append(
                ChainAssignmentSpec(
                    fleet=name, nfs=list(nfs), attach_at_s=attach_at, detach_at_s=attach_at + 12.0
                )
            )
    return ScenarioSpec(
        name="control-fleet",
        description="Wide, quiet fleet: control plane, telemetry and radio scans dominate",
        seed=seed,
        duration_s=60.0,
        topology=TopologySpec(
            station_count=stations,
            station_spacing_m=spacing,
            heartbeat_interval_s=1.0,
            scan_interval_s=2.0,
        ),
        fleets=fleets,
        assignments=assignments,
    )


def _control_fleet(seed: int, sizes: Sizes) -> Workload:
    flat_label = "control-fleet@1x1"
    replays = []
    for regions, shards in CONTROL_SHAPES:
        # At the smoke scale the tier shape is clamped to the station count.
        regions = min(regions, sizes.stations)
        shards = min(shards, max(1, sizes.stations // regions))
        label = f"control-fleet@{regions}x{shards}"
        replays.append(
            Replay(
                label=label,
                build=lambda: control_fleet_spec(seed, sizes.stations),
                start={"region_count": regions, "shard_count": shards},
                sim_cap_s=sizes.sim_cap_s,
                same_digest_as=None if label == flat_label else flat_label,
            )
        )
    return Workload(name="control-fleet", replays=tuple(replays))


# ------------------------------------------------------ bulk-hybrid / -packet

_BULK_STATIONS = 8


def bulk_storm_spec(seed: int, clients: int) -> ScenarioSpec:
    """E12-shaped storm: ``clients`` uploaders x 1 MB at 800 kb/s over 8 stations.

    Aggregate demand stays below every link capacity (10 Gb/s uplinks), so
    the packet and the hybrid engine move identical per-flow byte totals.
    """
    spacing = 80.0
    per_station, remainder = divmod(clients, _BULK_STATIONS)
    fleets = []
    for index in range(_BULK_STATIONS):
        count = per_station + (1 if index < remainder else 0)
        if count == 0:
            continue
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
                        params={"total_bytes": 1_000_000.0, "rate_bps": 800e3, "chunk_bytes": 4000},
                    )
                ],
            )
        )
    return ScenarioSpec(
        name="bulk-storm",
        description="E12-shaped bulk-transfer storm",
        seed=seed,
        duration_s=60.0,
        topology=TopologySpec(
            station_count=_BULK_STATIONS,
            station_spacing_m=spacing,
            uplink_bandwidth_bps=10e9,
            scan_interval_s=5.0,
            heartbeat_interval_s=5.0,
        ),
        fleets=fleets,
    )


def _bulk_replay(seed: int, clients: int, mode: str, same_bytes_as: Optional[str] = None) -> Replay:
    return Replay(
        label=f"bulk-storm@seed={seed},clients={clients},{mode}",
        build=lambda: bulk_storm_spec(seed, clients),
        start={"simulation_mode": mode},
        bulk_complete=True,
        same_bytes_as=same_bytes_as,
    )


def _bulk_hybrid(seed: int, sizes: Sizes) -> Workload:
    backhaul = _canned("bulk-backhaul", seed, sizes.sim_cap_s, simulation_mode="hybrid")
    return Workload(
        name="bulk-hybrid",
        replays=(
            _bulk_replay(seed, sizes.hybrid_clients, "hybrid"),
            replace(backhaul, bulk_complete=sizes.sim_cap_s is None),
        ),
    )


def _bulk_packet(seed: int, sizes: Sizes) -> Workload:
    packet = _bulk_replay(seed, sizes.packet_clients, "packet")
    return Workload(
        name="bulk-packet",
        replays=(packet,),
        gates=(_bulk_replay(seed, sizes.packet_clients, "hybrid", same_bytes_as=packet.label),),
    )


_BUILDERS: Dict[str, Callable[[int, Sizes], Workload]] = {
    "edge-dataplane": _edge_dataplane,
    "roaming-storm": _roaming_storm,
    "control-fleet": _control_fleet,
    "bulk-hybrid": _bulk_hybrid,
    "bulk-packet": _bulk_packet,
}

WORKLOAD_NAMES: Tuple[str, ...] = tuple(_BUILDERS)


def build_workload(name: str, seed: int, scale: str = "full") -> Workload:
    return _BUILDERS[name](seed, SIZES[scale])
