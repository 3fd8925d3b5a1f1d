"""The canned scenario library.

Each canned scenario is a *builder*: a function taking the master ``seed``
and returning a fully validated :class:`~repro.scenarios.spec.ScenarioSpec`.
Builders draw any structural randomness (fleet speeds, fault times...) from
RNGs derived from that seed, so ``build_scenario(name, seed)`` is itself
deterministic and the whole run replays byte-for-byte.

Register new scenarios with the :func:`register_scenario` decorator::

    @register_scenario("my-scenario")
    def _my_scenario(seed: int) -> ScenarioSpec:
        return ScenarioSpec(name="my-scenario", seed=seed, ...)

and they become available to ``scenario_names()`` / ``run_scenario()`` /
``examples/run_scenario.py`` and the CI smoke matrix automatically.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.core.seeds import derive_seed
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import (
    BundleAssignmentSpec,
    BundleUpgradeSpec,
    ChainAssignmentSpec,
    ClientFleetSpec,
    FaultSpec,
    MobilitySpec,
    ScenarioSpec,
    TopologySpec,
    TrafficEraSpec,
    WorkloadSpec,
)

ScenarioBuilder = Callable[[int], ScenarioSpec]

_REGISTRY: Dict[str, ScenarioBuilder] = {}


def register_scenario(name: str) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Register the decorated builder under ``name`` in the scenario registry."""

    def decorator(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = builder
        return builder

    return decorator


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def build_scenario(name: str, seed: int = 0) -> ScenarioSpec:
    """Build (and validate) a canned scenario's spec for ``seed``."""
    try:
        builder = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(f"unknown scenario {name!r}; available: {scenario_names()}") from exc
    return builder(seed).validate()


def run_scenario(name: str, seed: int = 0, **overrides) -> ScenarioResult:
    """Build and run a canned scenario in one call.

    ``overrides`` replace fields of the scenario's deployment config for this
    run (``shard_count=4``, ``placement_strategy="least-loaded"`` ...; see
    :meth:`ScenarioRunner.start`), which is how the benchmarks ablate
    migration and placement strategies and how the digest-invariance
    matrices vary shard count, region count and simulation mode.
    """
    return ScenarioRunner(build_scenario(name, seed)).run(**overrides)


def scenario_has_bulk(spec: ScenarioSpec) -> bool:
    """True when any fleet carries a ``bulk`` workload.

    Bulk transfers are the only traffic the hybrid core may lift into the
    fluid regime, so scenarios *without* them are digest-identical across
    ``simulation_mode`` -- the cross-mode equivalence tests use this to
    decide which canned scenarios to compare.
    """
    return any(
        workload.kind == "bulk" for fleet in spec.fleets for workload in fleet.workloads
    )


def _builder_rng(seed: int, name: str) -> random.Random:
    """RNG for a builder's structural choices, derived from the master seed."""
    return random.Random(derive_seed(seed, "builder", name))


# ---------------------------------------------------------------------------
# The canned scenarios
# ---------------------------------------------------------------------------


@register_scenario("fig2-roaming")
def _fig2_roaming(seed: int) -> ScenarioSpec:
    """The paper's Fig. 2 demo: one smartphone walks to the other network."""
    return ScenarioSpec(
        name="fig2-roaming",
        description=(
            "A smartphone browsing the web behind a firewall + HTTP filter + "
            "DNS load balancer walks from station-1's cell to station-2's; "
            "its NFs migrate with it and keep enforcing policy."
        ),
        seed=seed,
        duration_s=75.0,
        topology=TopologySpec(station_count=2, station_spacing_m=80.0, migration_strategy="cold"),
        fleets=[
            ClientFleetSpec(
                name="smartphone",
                count=1,
                position=(0.0, 0.0),
                mobility=MobilitySpec(
                    model="linear",
                    start_s=19.0,
                    params={"velocity_mps": (8.0, 0.0), "destination": (80.0, 0.0)},
                ),
                workloads=[
                    WorkloadSpec(
                        kind="http",
                        start_s=9.0,
                        params={
                            "sites": ["blocked.example.com", "news.example.org"],
                            "mean_think_time_s": 0.5,
                        },
                    ),
                    WorkloadSpec(
                        kind="dns",
                        start_s=9.0,
                        params={"names": ["cdn.example.com"], "query_interval_s": 1.0},
                    ),
                ],
            )
        ],
        assignments=[
            ChainAssignmentSpec(
                fleet="smartphone",
                nfs=[
                    "firewall",
                    {"nf_type": "http-filter", "config": {"blocked_hosts": ["blocked.example.com"]}},
                    {
                        "nf_type": "dns-loadbalancer",
                        "config": {"pools": {"cdn.example.com": ["198.18.0.1", "198.18.0.2"]}},
                    },
                ],
                attach_at_s=1.0,
            )
        ],
    )


@register_scenario("commuter-rush")
def _commuter_rush(seed: int) -> ScenarioSpec:
    """Roaming storm: four commuters shuttle between the two networks."""
    rng = _builder_rng(seed, "commuter-rush")
    fleets = []
    assignments = []
    for index in range(4):
        name = f"commuter{index + 1}"
        speed = rng.uniform(6.0, 10.0)
        dwell = rng.uniform(4.0, 8.0)
        start = rng.uniform(2.0, 6.0)
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=1,
                position=(0.0, float(index) * 2.0),
                mobility=MobilitySpec(
                    model="commuter",
                    start_s=start,
                    params={
                        "anchor_a": (0.0, float(index) * 2.0),
                        "anchor_b": (80.0, float(index) * 2.0),
                        "speed_mps": speed,
                        "dwell_s": dwell,
                    },
                ),
                workloads=[
                    WorkloadSpec(kind="http", start_s=2.0, params={"mean_think_time_s": 1.0}),
                    WorkloadSpec(kind="dns", start_s=2.5, params={"query_interval_s": 2.0}),
                ],
            )
        )
        assignments.append(
            ChainAssignmentSpec(fleet=name, nfs=["firewall"], attach_at_s=1.0 + 0.2 * index)
        )
    return ScenarioSpec(
        name="commuter-rush",
        description=(
            "Four commuters shuttle between the two wireless networks with "
            "web+DNS traffic and a firewall each: a sustained storm of "
            "handovers and cold migrations."
        ),
        seed=seed,
        duration_s=90.0,
        topology=TopologySpec(
            station_count=2,
            station_spacing_m=80.0,
            migration_strategy="cold",
            handover_scan_jitter_s=0.05,
        ),
        fleets=fleets,
        assignments=assignments,
    )


@register_scenario("federated-commuters")
def _federated_commuters(seed: int) -> ScenarioSpec:
    """Cross-region roaming storm: commuters shuttle over a region boundary.

    Four stations split into two federation regions of two local shards
    each (stations 1-2 = region 0, stations 3-4 = region 1).  The commuters
    anchor on the stations either side of the boundary, so every shuttle is
    a cross-*region* handoff: head-segment migration plus release/adopt
    between the regions' shard sets, with the streaming rollups tracking
    the move.  The federation test suite replays this spec across region
    counts to assert digest invariance.
    """
    rng = _builder_rng(seed, "federated-commuters")
    fleets = []
    assignments = []
    for index in range(4):
        name = f"fedcommuter{index + 1}"
        speed = rng.uniform(6.0, 10.0)
        dwell = rng.uniform(4.0, 8.0)
        start = rng.uniform(2.0, 6.0)
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=1,
                position=(80.0, float(index) * 2.0),
                mobility=MobilitySpec(
                    model="commuter",
                    start_s=start,
                    params={
                        # station-2 (region 0) <-> station-3 (region 1).
                        "anchor_a": (80.0, float(index) * 2.0),
                        "anchor_b": (160.0, float(index) * 2.0),
                        "speed_mps": speed,
                        "dwell_s": dwell,
                    },
                ),
                workloads=[
                    WorkloadSpec(kind="http", start_s=2.0, params={"mean_think_time_s": 1.0}),
                    WorkloadSpec(kind="dns", start_s=2.5, params={"query_interval_s": 2.0}),
                ],
            )
        )
        assignments.append(
            ChainAssignmentSpec(fleet=name, nfs=["firewall"], attach_at_s=1.0 + 0.2 * index)
        )
    return ScenarioSpec(
        name="federated-commuters",
        description=(
            "Four commuters shuttle across the boundary between two "
            "federation regions (two local shards each) with web+DNS "
            "traffic and a firewall each: every roam is a cross-region "
            "handoff through the release/adopt machinery."
        ),
        seed=seed,
        duration_s=90.0,
        topology=TopologySpec(
            station_count=4,
            station_spacing_m=80.0,
            migration_strategy="cold",
            handover_scan_jitter_s=0.05,
            region_count=2,
            shard_count=2,
        ),
        fleets=fleets,
        assignments=assignments,
    )


@register_scenario("flash-crowd")
def _flash_crowd(seed: int) -> ScenarioSpec:
    """Attach burst: eight clients join within seconds and all want NFs."""
    return ScenarioSpec(
        name="flash-crowd",
        description=(
            "Eight clients appear within ~2.5 s between two stations and all "
            "attach a firewall at once -- the control-plane and container- "
            "instantiation burst case."
        ),
        seed=seed,
        duration_s=35.0,
        topology=TopologySpec(station_count=2, station_spacing_m=80.0, station_profile="server"),
        fleets=[
            ClientFleetSpec(
                name="crowd",
                count=8,
                position=(40.0, 0.0),
                spread_m=30.0,
                appear_at_s=1.0,
                appear_stagger_s=0.3,
                workloads=[
                    WorkloadSpec(kind="cbr", start_s=6.0, params={"rate_pps": 20.0}),
                ],
            )
        ],
        assignments=[
            ChainAssignmentSpec(fleet="crowd", nfs=["firewall"], attach_at_s=2.0),
        ],
    )


@register_scenario("rolling-failure")
def _rolling_failure(seed: int) -> ScenarioSpec:
    """Rolling station crashes; chains follow the displaced clients."""
    fleets = []
    assignments = []
    for index, x in enumerate((0.0, 70.0, 140.0)):
        name = f"user{index + 1}"
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=1,
                position=(x, 0.0),
                workloads=[WorkloadSpec(kind="cbr", start_s=4.0, params={"rate_pps": 25.0})],
            )
        )
        assignments.append(
            ChainAssignmentSpec(
                fleet=name, nfs=["firewall", "flow-monitor"], attach_at_s=1.5 + 0.3 * index
            )
        )
    return ScenarioSpec(
        name="rolling-failure",
        description=(
            "Three stations, one pinned user each, all chained.  Station-1 "
            "then station-2 crash and recover in sequence; displaced clients "
            "roam to the neighbouring cell and their chains migrate live."
        ),
        seed=seed,
        duration_s=90.0,
        topology=TopologySpec(station_count=3, station_spacing_m=70.0, migration_strategy="cold"),
        fleets=fleets,
        assignments=assignments,
        faults=[
            FaultSpec(kind="station-crash", station=1, at_s=15.0, duration_s=30.0),
            FaultSpec(kind="station-crash", station=2, at_s=55.0, duration_s=25.0),
        ],
    )


@register_scenario("video-cell")
def _video_cell(seed: int) -> ScenarioSpec:
    """A video-heavy cell: segment bursts through rate-limiter + cache chains."""
    return ScenarioSpec(
        name="video-cell",
        description=(
            "Three viewers stream segment bursts in one cell behind "
            "rate-limiter + cache chains -- the sustained-throughput and "
            "queueing case."
        ),
        seed=seed,
        duration_s=40.0,
        topology=TopologySpec(station_count=1),
        fleets=[
            ClientFleetSpec(
                name="viewer",
                count=3,
                position=(0.0, 0.0),
                spread_m=10.0,
                workloads=[
                    WorkloadSpec(
                        kind="video",
                        start_s=3.0,
                        params={
                            "segment_interval_s": 1.0,
                            "packets_per_segment": 15,
                            "payload_bytes": 1200,
                        },
                    ),
                ],
            )
        ],
        assignments=[
            ChainAssignmentSpec(
                fleet="viewer",
                nfs=[
                    {"nf_type": "rate-limiter", "config": {"rate_bps": 8e6}},
                    "cache",
                ],
                attach_at_s=1.0,
            ),
        ],
    )


@register_scenario("firewall-churn")
def _firewall_churn(seed: int) -> ScenarioSpec:
    """Attach/detach churn: the same fleet gains and loses its firewall."""
    return ScenarioSpec(
        name="firewall-churn",
        description=(
            "Three clients repeatedly attach and detach firewalls while "
            "browsing -- exercises deployment teardown, flow-rule removal "
            "and fast-path invalidation under churn."
        ),
        seed=seed,
        duration_s=60.0,
        topology=TopologySpec(station_count=2),
        fleets=[
            ClientFleetSpec(
                name="churner",
                count=3,
                position=(10.0, 0.0),
                spread_m=8.0,
                workloads=[
                    WorkloadSpec(kind="http", start_s=2.0, params={"mean_think_time_s": 0.8}),
                ],
            )
        ],
        assignments=[
            ChainAssignmentSpec(fleet="churner", nfs=["firewall"], attach_at_s=2.0, detach_at_s=18.0),
            ChainAssignmentSpec(fleet="churner", nfs=["firewall"], attach_at_s=25.0, detach_at_s=40.0),
            ChainAssignmentSpec(fleet="churner", nfs=["firewall"], attach_at_s=47.0),
        ],
    )


@register_scenario("scheduler-day-cycle")
def _scheduler_day_cycle(seed: int) -> ScenarioSpec:
    """Compressed days: daytime and (wrapping) night-time NF windows."""
    day = 40.0
    return ScenarioSpec(
        name="scheduler-day-cycle",
        description=(
            "A 40 s compressed day, repeated three times: a daytime firewall "
            "window (10-25) and a night-time HTTP filter whose window wraps "
            "the day boundary (35 -> 8)."
        ),
        seed=seed,
        duration_s=120.0,
        topology=TopologySpec(station_count=1),
        fleets=[
            ClientFleetSpec(
                name="worker",
                count=2,
                position=(5.0, 0.0),
                spread_m=5.0,
                workloads=[
                    WorkloadSpec(kind="http", start_s=1.0, params={"mean_think_time_s": 1.5}),
                ],
            )
        ],
        assignments=[
            ChainAssignmentSpec(
                fleet="worker",
                nfs=["firewall"],
                attach_at_s=1.0,
                daily_window=(10.0, 25.0),
                day_length_s=day,
            ),
            ChainAssignmentSpec(
                fleet="worker",
                nfs=[{"nf_type": "http-filter", "config": {"blocked_hosts": ["blocked.example.com"]}}],
                attach_at_s=1.5,
                daily_window=(35.0, 8.0),  # wraps the day boundary
                day_length_s=day,
            ),
        ],
    )


@register_scenario("mixed-chain-density")
def _mixed_chain_density(seed: int) -> ScenarioSpec:
    """Many heterogeneous chains packed onto two server-class stations."""
    fleet_chains = [
        ("natfw", ["nat", "firewall"]),
        ("sec", ["ids", {"nf_type": "rate-limiter", "config": {"rate_bps": 10e6}}]),
        ("web", ["cache", "http-filter", "flow-monitor"]),
    ]
    fleets = []
    assignments = []
    for index, (name, nfs) in enumerate(fleet_chains):
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=2,
                position=(20.0 + 20.0 * index, 0.0),
                spread_m=15.0,
                workloads=[
                    WorkloadSpec(kind="cbr", start_s=4.0, params={"rate_pps": 10.0}),
                    WorkloadSpec(kind="http", start_s=5.0, params={"mean_think_time_s": 2.0}),
                ],
            )
        )
        assignments.append(
            ChainAssignmentSpec(fleet=name, nfs=list(nfs), attach_at_s=1.0 + 0.4 * index)
        )
    return ScenarioSpec(
        name="mixed-chain-density",
        description=(
            "Six clients with heterogeneous 2-3 NF chains (NAT, IDS, cache, "
            "filters) packed onto two server-class stations -- the NF-density "
            "and chain-diversity case."
        ),
        seed=seed,
        duration_s=35.0,
        topology=TopologySpec(
            station_count=2, station_spacing_m=80.0, station_profile="server"
        ),
        fleets=fleets,
        assignments=assignments,
    )


@register_scenario("precopy-commuters")
def _precopy_commuters(seed: int) -> ScenarioSpec:
    """Make-before-break storm: commuters served by iterative pre-copy."""
    rng = _builder_rng(seed, "precopy-commuters")
    fleets = []
    assignments = []
    for index in range(2):
        name = f"rider{index + 1}"
        speed = rng.uniform(6.0, 9.0)
        dwell = rng.uniform(5.0, 9.0)
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=1,
                position=(0.0, float(index) * 3.0),
                mobility=MobilitySpec(
                    model="commuter",
                    start_s=rng.uniform(3.0, 6.0),
                    params={
                        "anchor_a": (0.0, float(index) * 3.0),
                        "anchor_b": (140.0, float(index) * 3.0),
                        "speed_mps": speed,
                        "dwell_s": dwell,
                    },
                ),
                workloads=[
                    WorkloadSpec(kind="http", start_s=2.0, params={"mean_think_time_s": 0.8}),
                    WorkloadSpec(kind="cbr", start_s=2.5, params={"rate_pps": 15.0}),
                ],
            )
        )
        assignments.append(
            ChainAssignmentSpec(
                fleet=name, nfs=["firewall", "flow-monitor"], attach_at_s=1.0 + 0.3 * index
            )
        )
    return ScenarioSpec(
        name="precopy-commuters",
        description=(
            "Two commuters shuttle across three stations while their "
            "firewall + flow-monitor chains follow via iterative pre-copy: "
            "speculative replicas, shrinking dirty-delta rounds and "
            "millisecond switchovers under a sustained handover storm."
        ),
        seed=seed,
        duration_s=85.0,
        topology=TopologySpec(
            station_count=3,
            station_spacing_m=70.0,
            migration_strategy="precopy",
            precopy_max_rounds=3,
            handover_scan_jitter_s=0.05,
        ),
        fleets=fleets,
        assignments=assignments,
    )


@register_scenario("stateful-backhaul")
def _stateful_backhaul(seed: int) -> ScenarioSpec:
    """Checkpoint bytes fight client traffic for a narrow backhaul."""
    return ScenarioSpec(
        name="stateful-backhaul",
        description=(
            "One roamer's firewall chain migrates statefully over a 20 Mbit/s "
            "backhaul that two CBR-heavy fleets keep loaded: the checkpoint "
            "chunks queue behind (and delay) client traffic on the shared "
            "uplinks, making the transfer-time cost of state visible."
        ),
        seed=seed,
        duration_s=75.0,
        topology=TopologySpec(
            station_count=2,
            station_spacing_m=80.0,
            migration_strategy="stateful",
            uplink_bandwidth_bps=20e6,
        ),
        fleets=[
            ClientFleetSpec(
                name="roamer",
                count=1,
                position=(0.0, 0.0),
                mobility=MobilitySpec(
                    model="linear",
                    start_s=22.0,
                    params={"velocity_mps": (8.0, 0.0), "destination": (80.0, 0.0)},
                ),
                workloads=[
                    WorkloadSpec(kind="http", start_s=3.0, params={"mean_think_time_s": 0.5}),
                ],
            ),
            ClientFleetSpec(
                name="load-west",
                count=2,
                position=(5.0, 4.0),
                spread_m=6.0,
                workloads=[
                    WorkloadSpec(
                        kind="cbr", start_s=5.0, params={"rate_pps": 150.0, "payload_bytes": 1300}
                    ),
                ],
            ),
            ClientFleetSpec(
                name="load-east",
                count=2,
                position=(75.0, 4.0),
                spread_m=6.0,
                workloads=[
                    WorkloadSpec(
                        kind="cbr", start_s=5.0, params={"rate_pps": 150.0, "payload_bytes": 1300}
                    ),
                ],
            ),
        ],
        assignments=[
            ChainAssignmentSpec(fleet="roamer", nfs=["firewall"], attach_at_s=1.0),
        ],
    )


@register_scenario("hotspot-stadium")
def _hotspot_stadium(seed: int) -> ScenarioSpec:
    """A flash crowd saturates one router-class station (the E11 workload)."""
    fleets = [
        ClientFleetSpec(
            name="crowd",
            count=20,
            position=(0.0, 0.0),
            spread_m=12.0,
            appear_at_s=1.0,
            appear_stagger_s=0.1,
            workloads=[
                WorkloadSpec(kind="cbr", start_s=10.0, stop_s=30.0, params={"rate_pps": 5.0}),
            ],
        )
    ]
    assignments = [
        ChainAssignmentSpec(fleet="crowd", nfs=["firewall", "flow-monitor"], attach_at_s=2.0),
    ]
    # One light local per remaining station, so load-aware strategies have
    # realistic (lightly loaded, not empty) spill-over targets.
    for index, x in enumerate((80.0, 160.0, 240.0)):
        name = f"local{index + 2}"
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=1,
                position=(x, 0.0),
                workloads=[
                    WorkloadSpec(kind="http", start_s=5.0, params={"mean_think_time_s": 2.0}),
                ],
            )
        )
        assignments.append(ChainAssignmentSpec(fleet=name, nfs=["firewall"], attach_at_s=1.0))
    return ScenarioSpec(
        name="hotspot-stadium",
        description=(
            "Twenty clients mob station-1 of a four-station deployment and "
            "all want firewall + flow-monitor chains: far more than one "
            "router-class station can host.  Closest-agent placement piles "
            "every chain onto the hotspot and fails most of them; the "
            "load-aware strategies spill to the three lightly loaded "
            "neighbours (benchmark E11's ablation workload)."
        ),
        seed=seed,
        duration_s=45.0,
        topology=TopologySpec(station_count=4, station_spacing_m=80.0),
        fleets=fleets,
        assignments=assignments,
    )


@register_scenario("slo-tight-embedding")
def _slo_tight_embedding(seed: int) -> ScenarioSpec:
    """Chain embedding under SLO pressure (the E13 workload shape)."""
    # Locals consume a slice of every station first, so no station retains
    # enough contiguous memory for a whole crowd chain -- the fragmentation
    # that whole-chain placement cannot use but per-NF embedding can.
    fleets = [
        ClientFleetSpec(
            name=f"local{index + 1}",
            count=1,
            position=(x, 0.0),
            workloads=[
                WorkloadSpec(kind="http", start_s=6.0, params={"mean_think_time_s": 2.5}),
            ],
        )
        for index, x in enumerate((0.0, 80.0, 160.0, 240.0))
    ]
    assignments = [
        ChainAssignmentSpec(fleet=f"local{index + 1}", nfs=["firewall"], attach_at_s=1.0)
        for index in range(4)
    ]
    # The crowd's chains carry explicit per-NF demands (20 MB each, 80 MB per
    # chain -- more than any station has free once its local firewall is up)
    # plus an end-to-end SLO loose enough to afford the inter-station detour,
    # so the embedding strategy must split them across neighbours.
    crowd_nfs = [
        {"nf_type": "ids", "requirements": {"memory_mb": 20.0}},
        {"nf_type": "cache", "requirements": {"memory_mb": 20.0}},
        {"nf_type": "http-filter", "requirements": {"memory_mb": 20.0}},
        {"nf_type": "flow-monitor", "requirements": {"memory_mb": 20.0}},
    ]
    fleets.append(
        ClientFleetSpec(
            name="crowd",
            count=8,
            position=(0.0, 0.0),
            spread_m=10.0,
            appear_at_s=1.0,
            appear_stagger_s=0.2,
            workloads=[
                WorkloadSpec(kind="cbr", start_s=12.0, stop_s=30.0, params={"rate_pps": 4.0}),
            ],
        )
    )
    assignments.append(
        ChainAssignmentSpec(
            fleet="crowd",
            nfs=crowd_nfs,
            attach_at_s=4.0,
            slo_max_latency_s=0.25,
            slo_min_bandwidth_mbps=1.0,
        )
    )
    # Latecomers whose SLO forbids any detour: by the time they attach the
    # hotspot is full, so their (tiny) chains would have to land on a
    # neighbour -- and the embedding strategy must reject them outright
    # (SLO-infeasible is terminal, never queued).
    fleets.append(
        ClientFleetSpec(
            name="strict",
            count=2,
            position=(5.0, 5.0),
            workloads=[
                WorkloadSpec(kind="dns", start_s=15.0, params={"query_interval_s": 4.0}),
            ],
        )
    )
    assignments.append(
        ChainAssignmentSpec(
            fleet="strict",
            nfs=["firewall"],
            attach_at_s=6.0,
            slo_max_latency_s=0.001,
        )
    )
    return ScenarioSpec(
        name="slo-tight-embedding",
        description=(
            "Four router-class stations, each nibbled by a local firewall "
            "chain, then eight clients mob station-1 wanting 80 MB four-NF "
            "chains with an end-to-end SLO.  No station has room for a "
            "whole crowd chain, so the embedding strategy splits them "
            "across neighbours where the SLO affords the detour, and "
            "rejects the strict latecomers whose SLO does not (benchmark "
            "E13's workload shape)."
        ),
        seed=seed,
        duration_s=40.0,
        topology=TopologySpec(
            station_count=4,
            station_spacing_m=80.0,
            placement_strategy="embedding",
        ),
        fleets=fleets,
        assignments=assignments,
    )


@register_scenario("autoscale-daily-wave")
def _autoscale_daily_wave(seed: int) -> ScenarioSpec:
    """A compressed daily load wave driving scale-up, then drain-down."""
    return ScenarioSpec(
        name="autoscale-daily-wave",
        description=(
            "Five office clients at station-2 attach firewall + HTTP-filter "
            "chains for a compressed 'working day' (t=5..45) and detach "
            "afterwards.  The autoscaler sees the station run hot, boots "
            "load-balancer-fronted replica chains on the neighbouring "
            "stations, rebalances when the replica budget is spent, and "
            "drains everything again once the wave passes."
        ),
        seed=seed,
        duration_s=70.0,
        topology=TopologySpec(
            station_count=3,
            station_spacing_m=80.0,
            autoscale_enabled=True,
            autoscale_interval_s=2.0,
            autoscale_up_threshold=0.8,
            autoscale_down_threshold=0.4,
            autoscale_max_replicas=1,
        ),
        fleets=[
            ClientFleetSpec(
                name="office",
                count=5,
                position=(80.0, 0.0),
                spread_m=10.0,
                workloads=[
                    WorkloadSpec(
                        kind="http", start_s=8.0, stop_s=40.0, params={"mean_think_time_s": 1.5}
                    ),
                ],
            ),
            ClientFleetSpec(
                name="steady",
                count=1,
                position=(0.0, 0.0),
                workloads=[
                    WorkloadSpec(kind="dns", start_s=4.0, params={"query_interval_s": 3.0}),
                ],
            ),
        ],
        assignments=[
            ChainAssignmentSpec(
                fleet="office", nfs=["firewall", "http-filter"], attach_at_s=5.0, detach_at_s=45.0
            ),
            ChainAssignmentSpec(fleet="steady", nfs=["firewall"], attach_at_s=1.0),
        ],
    )


@register_scenario("bulk-backhaul")
def _bulk_backhaul(seed: int) -> ScenarioSpec:
    """Bulk uploads saturate the backhaul: the hybrid core's home turf."""
    return ScenarioSpec(
        name="bulk-backhaul",
        description=(
            "Six uploaders push fixed-size bulk transfers through station-1's "
            "uplink while CBR probes measure the latency inflation; two more "
            "uploaders at station-2 sit behind a firewall chain (a packet- "
            "fidelity island) until it detaches, and a mid-run link-degrade "
            "fault demotes station-1's flows back to packets.  Runs under the "
            "hybrid fluid core by default; replay with --sim-mode packet to "
            "compare engines."
        ),
        seed=seed,
        duration_s=60.0,
        topology=TopologySpec(
            station_count=4,
            station_spacing_m=80.0,
            simulation_mode="hybrid",
        ),
        fleets=[
            ClientFleetSpec(
                name="uploader",
                count=6,
                position=(0.0, 0.0),
                spread_m=10.0,
                workloads=[
                    WorkloadSpec(
                        kind="bulk",
                        start_s=3.0,
                        params={
                            "total_bytes": 64_000_000.0,
                            "rate_bps": 30e6,
                        },
                    ),
                ],
            ),
            ClientFleetSpec(
                name="probe",
                count=2,
                position=(0.0, 6.0),
                spread_m=4.0,
                workloads=[
                    WorkloadSpec(kind="cbr", start_s=2.0, params={"rate_pps": 10.0}),
                ],
            ),
            ClientFleetSpec(
                name="chained-uploader",
                count=2,
                position=(80.0, 0.0),
                spread_m=8.0,
                workloads=[
                    WorkloadSpec(
                        kind="bulk",
                        start_s=4.0,
                        params={
                            "total_bytes": 80_000_000.0,
                            "rate_bps": 20e6,
                        },
                    ),
                ],
            ),
        ],
        assignments=[
            # The chain is a fidelity island: while it is attached the
            # chained uploaders stay packet-level; after the detach they
            # promote to fluid with their byte accounting intact.
            ChainAssignmentSpec(
                fleet="chained-uploader",
                nfs=["firewall"],
                attach_at_s=2.0,
                detach_at_s=30.0,
            ),
        ],
        faults=[
            FaultSpec(
                kind="link-degrade",
                station=1,
                at_s=10.0,
                duration_s=8.0,
                params={"bandwidth_factor": 0.3, "loss_rate": 0.02},
            ),
        ],
    )


@register_scenario("chaos-soak")
def _chaos_soak(seed: int) -> ScenarioSpec:
    """Soak test: roaming fleet plus a randomized fault barrage."""
    rng = _builder_rng(seed, "chaos-soak")
    fault_kinds = ["link-degrade", "container-oom", "link-down", "station-crash"]
    faults: List[FaultSpec] = []
    time_s = 10.0
    while time_s < 95.0:
        kind = rng.choice(fault_kinds)
        station = rng.randint(1, 3)
        duration: Optional[float] = None
        params: Dict[str, object] = {}
        if kind in ("link-degrade", "link-down", "station-crash"):
            duration = rng.uniform(6.0, 14.0)
        if kind == "link-degrade":
            params = {
                "bandwidth_factor": rng.uniform(0.05, 0.5),
                "loss_rate": rng.uniform(0.01, 0.15),
            }
        faults.append(
            FaultSpec(kind=kind, station=station, at_s=round(time_s, 3), duration_s=duration, params=params)
        )
        time_s += rng.uniform(8.0, 14.0)
    return ScenarioSpec(
        name="chaos-soak",
        description=(
            "Four random-waypoint roamers with chains and mixed traffic "
            "while crashes, OOM-kills, link loss and outages hit random "
            "stations for ~100 s -- the everything-at-once soak."
        ),
        seed=seed,
        duration_s=110.0,
        topology=TopologySpec(
            station_count=3,
            station_spacing_m=70.0,
            migration_strategy="cold",
            handover_scan_jitter_s=0.05,
        ),
        fleets=[
            ClientFleetSpec(
                name="roamer",
                count=4,
                position=(70.0, 0.0),
                spread_m=50.0,
                mobility=MobilitySpec(
                    model="waypoint",
                    start_s=2.0,
                    params={
                        "area": (0.0, -30.0, 140.0, 30.0),
                        "speed_mps": (2.0, 8.0),
                        "pause_s": (0.0, 4.0),
                    },
                ),
                workloads=[
                    WorkloadSpec(kind="http", start_s=3.0, params={"mean_think_time_s": 1.2}),
                    WorkloadSpec(kind="cbr", start_s=4.0, params={"rate_pps": 10.0}),
                ],
            )
        ],
        assignments=[
            ChainAssignmentSpec(fleet="roamer", nfs=["firewall"], attach_at_s=2.0),
        ],
        faults=faults,
    )

@register_scenario("slice-embb-iot")
def _slice_embb_iot(seed: int) -> ScenarioSpec:
    """Two slices of one mobile-core bundle, each priced against its own SLO."""
    return ScenarioSpec(
        name="slice-embb-iot",
        description=(
            "One mobile-core bundle instantiated twice from the catalogue: "
            "an eMBB slice (amf->smf->upf, tight latency + bandwidth SLO) "
            "for two video viewers and an IoT slice (amf->upf, relaxed "
            "latency, trickle bandwidth) for three sensors, embedded by the "
            "SLO-pricing placement strategy."
        ),
        seed=seed,
        duration_s=45.0,
        topology=TopologySpec(
            station_count=2,
            station_spacing_m=80.0,
            placement_strategy="embedding",
        ),
        fleets=[
            ClientFleetSpec(
                name="embb",
                count=2,
                position=(10.0, 0.0),
                spread_m=10.0,
                workloads=[
                    WorkloadSpec(
                        kind="video",
                        start_s=4.0,
                        params={
                            "segment_interval_s": 1.0,
                            "packets_per_segment": 12,
                            "payload_bytes": 1200,
                        },
                    ),
                ],
            ),
            ClientFleetSpec(
                name="iot",
                count=3,
                position=(90.0, 0.0),
                spread_m=10.0,
                workloads=[
                    WorkloadSpec(
                        kind="cbr",
                        start_s=5.0,
                        params={"rate_pps": 5.0, "payload_bytes": 200},
                    ),
                ],
            ),
        ],
        bundles=[
            BundleAssignmentSpec(fleet="embb", bundle="mobile-core", version=1, slice="embb", attach_at_s=1.5),
            BundleAssignmentSpec(fleet="iot", bundle="mobile-core", version=1, slice="iot", attach_at_s=2.0),
        ],
    )


@register_scenario("upf-edge-vs-core")
def _upf_edge_vs_core(seed: int) -> ScenarioSpec:
    """UPF-at-edge ablation: breakout traffic terminates locally vs backhauled."""
    fleets = []
    assignments = []
    for name, x, breakout in (("edge", 0.0, True), ("core", 80.0, False)):
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=2,
                position=(x, 0.0),
                spread_m=8.0,
                workloads=[
                    # CBR aimed at the breakout port, so the edge UPF absorbs
                    # it at the station while the core UPF tunnels it upstream.
                    WorkloadSpec(
                        kind="cbr",
                        start_s=4.0,
                        params={"rate_pps": 40.0, "payload_bytes": 800, "dst_port": 8080},
                    ),
                ],
            )
        )
        assignments.append(
            ChainAssignmentSpec(
                fleet=name,
                nfs=[
                    {
                        "nf_type": "upf",
                        "config": {"edge_breakout": breakout, "breakout_ports": [8080]},
                    }
                ],
                attach_at_s=1.0,
            )
        )
    return ScenarioSpec(
        name="upf-edge-vs-core",
        description=(
            "Two identical CBR fleets aimed at port 8080 behind UPF chains: "
            "station-1's UPF runs edge breakout and terminates the flows at "
            "the station, station-2's tunnels everything upstream -- the "
            "backhaul saving shows up as breakout vs tunneled byte counters."
        ),
        seed=seed,
        duration_s=40.0,
        topology=TopologySpec(station_count=2, station_spacing_m=80.0),
        fleets=fleets,
        assignments=assignments,
    )


@register_scenario("pandemic-surge")
def _pandemic_surge(seed: int) -> ScenarioSpec:
    """Residential-shift soak: the traffic mix migrates from office to home.

    Two cells -- an office cell and a residential cell -- run the same four
    protocols (web, DNS, QUIC apps, ABR streaming) behind firewall + edge-
    cache chains.  Three :class:`TrafficEraSpec` boundaries then replay a
    compressed lockdown: office-hours web traffic collapses while QUIC app
    sessions and ABR streaming surge, and the edge caches' hit mix shifts
    with it.  No bulk workloads, so the digest is invariant across
    ``simulation_mode`` as well as shard/region counts.
    """
    fleets = []
    assignments = []
    for name, x, count in (("office", 0.0, 2), ("residential", 80.0, 3)):
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=count,
                position=(x, 0.0),
                spread_m=10.0,
                workloads=[
                    WorkloadSpec(
                        kind="http",
                        start_s=3.0,
                        params={
                            "sites": ["portal.example.com", "news.example.org"],
                            "mean_think_time_s": 1.0,
                        },
                    ),
                    WorkloadSpec(kind="dns", start_s=3.5, params={"query_interval_s": 2.0}),
                    WorkloadSpec(
                        kind="quic",
                        start_s=4.0,
                        params={"mean_gap_s": 1.5, "max_burst": 3},
                    ),
                    WorkloadSpec(
                        kind="abr",
                        start_s=5.0,
                        params={
                            "content": f"{name}-clip",
                            "segment_duration_s": 2.0,
                            "loop_segments": 5,
                        },
                    ),
                ],
            )
        )
        assignments.append(
            ChainAssignmentSpec(fleet=name, nfs=["firewall", "cache"], attach_at_s=1.0)
        )
    return ScenarioSpec(
        name="pandemic-surge",
        description=(
            "An office cell and a residential cell run web+DNS+QUIC+ABR "
            "behind firewall + edge-cache chains while three era boundaries "
            "replay a compressed lockdown: office web traffic collapses and "
            "home QUIC/ABR streaming surges, shifting what the edge caches "
            "absorb."
        ),
        seed=seed,
        duration_s=90.0,
        topology=TopologySpec(station_count=2, station_spacing_m=80.0),
        fleets=fleets,
        assignments=assignments,
        eras=[
            TrafficEraSpec(
                at_s=0.0,
                name="office-hours",
                shares={"abr": 0.10, "dns": 0.25, "http": 0.40, "quic": 0.25},
            ),
            TrafficEraSpec(
                at_s=30.0,
                name="lockdown-shift",
                shares={"abr": 0.45, "dns": 0.10, "http": 0.15, "quic": 0.30},
            ),
            TrafficEraSpec(
                at_s=60.0,
                name="evening-streaming",
                shares={"abr": 0.60, "dns": 0.05, "http": 0.10, "quic": 0.25},
            ),
        ],
    )


@register_scenario("cache-vs-backhaul")
def _cache_vs_backhaul(seed: int) -> ScenarioSpec:
    """Cache-placement ablation: edge-served hits vs core-forwarded hits.

    Mirrors ``upf-edge-vs-core``: two identical fleets behind identical
    caches, except station-1's cache is ``placement="edge"`` (hits are
    served at the station and never touch the uplink) and station-2's is
    ``placement="core"`` (hits are *recorded* but every request is still
    forwarded upstream).  The looping ABR playlists and small web URL set
    make the caches actually hit, so the backhaul saving is physically
    visible as the difference between the two stations' uplink byte
    counters -- benchmark E16's workload.
    """
    fleets = []
    assignments = []
    for name, x, placement in (("edge", 0.0, "edge"), ("core", 80.0, "core")):
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=2,
                position=(x, 0.0),
                spread_m=8.0,
                workloads=[
                    WorkloadSpec(
                        kind="abr",
                        start_s=3.0,
                        params={
                            "content": "popular-clip",
                            "segment_duration_s": 1.0,
                            "loop_segments": 4,
                        },
                    ),
                    WorkloadSpec(
                        kind="http",
                        start_s=4.0,
                        params={
                            "sites": ["portal.example.com"],
                            "mean_think_time_s": 0.8,
                        },
                    ),
                    WorkloadSpec(
                        kind="quic",
                        start_s=5.0,
                        params={"mean_gap_s": 2.0, "max_burst": 2},
                    ),
                ],
            )
        )
        assignments.append(
            ChainAssignmentSpec(
                fleet=name,
                nfs=[
                    {
                        "nf_type": "cache",
                        "config": {"placement": placement, "capacity_mb": 8.0},
                    }
                ],
                attach_at_s=1.0,
            )
        )
    return ScenarioSpec(
        name="cache-vs-backhaul",
        description=(
            "Two identical ABR+web+QUIC fleets behind identical edge caches, "
            "except station-1's cache serves hits locally and station-2's "
            "forwards everything upstream (placement ablation): the backhaul "
            "saving shows up as the gap between the stations' uplink byte "
            "counters under an ABR-heavy era."
        ),
        seed=seed,
        duration_s=45.0,
        topology=TopologySpec(station_count=2, station_spacing_m=80.0),
        fleets=fleets,
        assignments=assignments,
        eras=[
            TrafficEraSpec(
                at_s=8.0,
                name="abr-heavy",
                shares={"abr": 0.60, "http": 0.25, "quic": 0.15},
            ),
        ],
    )


@register_scenario("bundle-rolling-upgrade")
def _bundle_rolling_upgrade(seed: int) -> ScenarioSpec:
    """Roll mobile-core v1 -> v2 across four live instances under chaos."""
    fleets = []
    bundles = []
    placements = (
        ("embb-a", 0.0, "embb", 1.5),
        ("iot-a", 80.0, "iot", 2.0),
        ("embb-b", 160.0, "embb", 2.5),
        ("iot-b", 240.0, "iot", 3.0),
    )
    for name, x, slice_name, attach_at in placements:
        rate = 25.0 if slice_name == "embb" else 8.0
        fleets.append(
            ClientFleetSpec(
                name=name,
                count=1,
                position=(x, 0.0),
                workloads=[
                    WorkloadSpec(kind="cbr", start_s=4.0, params={"rate_pps": rate}),
                ],
            )
        )
        bundles.append(
            BundleAssignmentSpec(
                fleet=name,
                bundle="mobile-core",
                version=1,
                slice=slice_name,
                attach_at_s=attach_at,
            )
        )
    return ScenarioSpec(
        name="bundle-rolling-upgrade",
        description=(
            "Four mobile-core@v1 instances (two eMBB, two IoT slices) on "
            "four stations; at t=20 the orchestrator walks them to v2 with "
            "pre-copy cutovers while station-2 crashes and recovers mid-"
            "roll -- the upgrade retries around the outage and every "
            "instance ends the run on v2 with zero coverage gap."
        ),
        seed=seed,
        duration_s=60.0,
        topology=TopologySpec(station_count=4, station_spacing_m=80.0, migration_strategy="cold"),
        fleets=fleets,
        bundles=bundles,
        upgrades=[
            BundleUpgradeSpec(bundle="mobile-core", to_version=2, at_s=20.0, mode="precopy"),
        ],
        faults=[
            FaultSpec(kind="station-crash", station=2, at_s=18.0, duration_s=10.0),
        ],
    )
