"""E13 -- SLO-satisfaction under load: chain embedding vs whole-chain.

A crowd mobs station-1 of a ten-station deployment, each client wanting a
five-NF, 60 MB chain with an end-to-end latency/bandwidth SLO.  Whole-chain
placement (least-loaded) can admit at most one chain per station: once every
station holds one, the ~30 MB of scraps left on each are individually too
small for another whole chain even though they sum to several chains' worth
of memory.  The embedding strategy splits chains into per-NF segments, packs
those scraps, and prices every inter-station detour against the chain's SLO
before admitting.

Reported per (offered load, strategy): chains attached, admitted (reached
ACTIVE), admitted *within SLO* (detour latency audited post-hoc against the
chain's declared budget), split placements, SLO rejections.  Asserts that at
the saturating load embedding admits at least ``MIN_RATIO`` (1.3) times as
many within-SLO chains as least-loaded.
"""

from __future__ import annotations

from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.core.manager import AssignmentState
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import (
    ChainAssignmentSpec,
    ClientFleetSpec,
    ScenarioSpec,
    TopologySpec,
)

SEED = 0
STRATEGIES = ("least-loaded", "embedding")
MIN_RATIO = 1.3
LOADS = (4, 10, 18)
STATIONS = 10

#: The crowd chain: five NFs of 9 MB each.  One chain fits a station whole,
#: and the leftover scraps hold a few more NFs -- but only for a placement
#: that can split below chain granularity.
CROWD_NFS = [
    {"nf_type": "ids", "requirements": {"memory_mb": 9.0}},
    {"nf_type": "cache", "requirements": {"memory_mb": 9.0}},
    {"nf_type": "http-filter", "requirements": {"memory_mb": 9.0}},
    {"nf_type": "flow-monitor", "requirements": {"memory_mb": 9.0}},
    {"nf_type": "nat", "requirements": {"memory_mb": 9.0}},
]
SLO_MAX_LATENCY_S = 0.25
SLO_MIN_BANDWIDTH_MBPS = 1.0


def _spec(crowd: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="e13-embedding",
        description="offered-load point for the E13 embedding comparison",
        seed=SEED,
        duration_s=20.0,
        # Admission control gates both strategies identically: a chain whose
        # chosen station lacks capacity queues instead of boot-failing
        # halfway, so the comparison measures placement quality, not
        # interleaved-boot crashes.
        topology=TopologySpec(
            station_count=STATIONS,
            station_spacing_m=80.0,
            admission_control=True,
        ),
        fleets=[
            ClientFleetSpec(
                name="crowd",
                count=crowd,
                position=(0.0, 0.0),
                spread_m=8.0,
                appear_at_s=1.0,
                appear_stagger_s=0.1,
            )
        ],
        assignments=[
            ChainAssignmentSpec(
                fleet="crowd",
                nfs=CROWD_NFS,
                attach_at_s=4.0,
                slo_max_latency_s=SLO_MAX_LATENCY_S,
                slo_min_bandwidth_mbps=SLO_MIN_BANDWIDTH_MBPS,
            )
        ],
    )


def _within_slo(result, assignment) -> bool:
    """Audit one ACTIVE assignment's detour latency against its SLO.

    The same pricing rule the embedding strategy applies a priori: every
    distinct station other than the client's adds a there-and-back
    inter-station hop.  Whole-chain strategies never price this, so the
    audit is what makes the comparison fair to both.
    """
    testbed = result.testbed
    client_station = None
    for client in testbed.clients.values():
        if client.ip == assignment.client_ip:
            client_station = client.current_station_name
            break
    if client_station is None:
        client_station = assignment.station_name
    if assignment.segments:
        hosts = {segment.station_name for segment in assignment.segments}
    else:
        hosts = {assignment.station_name}
    detour = sum(
        2.0 * testbed.topology.station_to_station_latency(client_station, host)
        for host in hosts
        if host != client_station
    )
    return detour <= SLO_MAX_LATENCY_S


def _run_point(strategy: str, crowd: int):
    result = ScenarioRunner(_spec(crowd)).run(placement_strategy=strategy)
    assignments = list(result.testbed.manager.assignments.values())
    active = [a for a in assignments if a.state is AssignmentState.ACTIVE]
    within = [a for a in active if _within_slo(result, a)]
    stats = result.placement_stats
    return {
        "strategy": strategy,
        "offered": crowd,
        "attached": len(assignments),
        "admitted": len(active),
        "within_slo": len(within),
        "splits": int(stats["split_placements"]),
        "segments": int(stats["segments_placed"]),
        "slo_rejections": int(stats["slo_rejections"]),
        "rejections": int(stats["rejections"]),
        "drained": result.drained,
    }


def test_e13_embedding_slo_satisfaction_vs_load(benchmark, record_experiment):
    rows = run_once(
        benchmark,
        lambda: [_run_point(strategy, crowd) for crowd in LOADS for strategy in STRATEGIES],
    )
    result = ExperimentResult(
        experiment_id="E13",
        title="SLO-satisfaction under load: embedding vs whole-chain placement",
        headers=[
            "offered", "strategy", "admitted", "within SLO",
            "splits", "segments", "SLO-rejected", "rejected",
        ],
        paper_claim=(
            "GNF places container NFs on the edge station closest to the "
            "client; embedding generalizes this to chains that no single "
            "station can host while keeping latency bounded"
        ),
        notes=(
            "within SLO = ACTIVE chains whose audited detour latency meets "
            "the declared budget; whole-chain placement strands each "
            "station's memory scraps, per-NF embedding packs them"
        ),
    )
    for row in rows:
        result.add_row(
            row["offered"], row["strategy"], row["admitted"], row["within_slo"],
            row["splits"], row["segments"], row["slo_rejections"], row["rejections"],
        )
    record_experiment(result)

    for row in rows:
        assert row["drained"], f"{row['strategy']}@{row['offered']} left live events"
    by_point = {(row["offered"], row["strategy"]): row for row in rows}
    for crowd in LOADS:
        embedding = by_point[(crowd, "embedding")]
        baseline = by_point[(crowd, "least-loaded")]
        # Embedding must never do worse than whole-chain placement.
        assert embedding["within_slo"] >= baseline["within_slo"], (crowd, embedding, baseline)
    saturated = max(LOADS)
    embedding = by_point[(saturated, "embedding")]
    baseline = by_point[(saturated, "least-loaded")]
    assert baseline["within_slo"] > 0
    assert embedding["within_slo"] >= MIN_RATIO * baseline["within_slo"], (
        embedding["within_slo"],
        baseline["within_slo"],
        MIN_RATIO,
    )
    # The capacity win must come from actual splits, not luck.
    assert embedding["splits"] > 0
