"""Tests for the PlacementEngine subsystem: strategies, admission, autoscaling.

Covers the PR's guarantees:

* the load-aware strategies prefer the client's station until it is loaded,
  so an unloaded deployment is behaviour-identical to closest-agent -- and
  they spread chains once a station saturates;
* the engine's pending-commitment ledger stops a same-tick attach burst from
  piling onto one stale-looking station;
* admission control queues deployments aimed at saturated stations, drains
  the queue when capacity frees and times entries out;
* the autoscaler scales hot chains out with load-balancer-fronted replicas,
  drains them on cool-down and rebalances through the migration engine
  without leaking a single replica container (the PR-4 soak-ledger pattern);
* the new scenarios replay to identical digests for shard_count 1 and 4.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.manager as manager_module

from repro.core.chain import ChainSLO, NFRequirements, NFSpec, ServiceChain
from repro.core.errors import DeploymentError
from repro.core.manager import AssignmentState
from repro.core.placement import (
    STRATEGY_FACTORIES,
    CandidateMap,
    BinPackingPlacement,
    EmbeddingPlacement,
    LatencyWeightedPlacement,
    LeastLoadedPlacement,
    LoadAwarePlacement,
    PlacementEngine,
    StationView,
    make_strategy,
)
from repro.core.repository import NFRepository
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.simulator import Simulator
from repro.scenarios import ScenarioSpecError, run_scenario

CLIENT_IP = "10.10.99.1"


def _view(name, free=80.0, util=0.1, latency=0.01, chains=0, allocatable=90.0, uplink=0.0):
    return StationView(
        name=name,
        free_memory_mb=free,
        memory_utilization=util,
        running_nfs=chains,
        control_latency_s=0.01,
        client_latency_s=latency,
        allocatable_memory_mb=allocatable,
        chains=chains,
        uplink_utilization=uplink,
    )


def _by_name(views):
    """Strategies take their candidates keyed by station name."""
    return {view.name: view for view in views}


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def test_strategy_factory_matches_spec_registry():
    # The registry is the only list of names: the config accepts exactly its keys.
    for name in STRATEGY_FACTORIES:
        assert make_strategy(name).name == name
        assert TestbedConfig(placement_strategy=name).validate().placement_strategy == name
    with pytest.raises(DeploymentError):
        make_strategy("teleport")
    with pytest.raises(ScenarioSpecError, match="closest-agent.*embedding"):
        TestbedConfig(placement_strategy="teleport").validate()


def test_least_loaded_prefers_local_until_loaded():
    views = [_view("station-1", latency=0.0, util=0.3), _view("station-2", util=0.0)]
    assert LeastLoadedPlacement().choose("station-1", _by_name(views), 10.0) == "station-1"
    views[0].memory_utilization = 0.9
    views[0].free_memory_mb = 9.0
    assert LeastLoadedPlacement().choose("station-1", _by_name(views), 10.0) == "station-2"


def test_latency_weighted_trades_latency_for_load():
    views = [_view("station-1", latency=0.0, util=0.2), _view("station-2", util=0.1)]
    assert LatencyWeightedPlacement().choose("station-1", _by_name(views), 10.0) == "station-1"
    views[0].memory_utilization = 0.95
    assert LatencyWeightedPlacement().choose("station-1", _by_name(views), 10.0) == "station-2"


def test_bin_packing_packs_fullest_fitting_station():
    views = [
        _view("station-1", latency=0.0, free=2.0, util=0.97),  # client's, full
        _view("station-2", free=30.0, util=0.66),  # most loaded that fits
        _view("station-3", free=80.0, util=0.1),
    ]
    strategy = BinPackingPlacement()
    assert strategy.choose("station-1", _by_name(views), 10.0) == "station-2"
    # While the local station still fits, it wins (closest-agent behaviour).
    assert strategy.choose("station-3", _by_name(views), 10.0) == "station-3"
    # Nothing fits a huge chain: fall back to the least-loaded station.
    assert strategy.choose("station-1", _by_name(views), 500.0) == "station-3"


def test_bin_packing_choose_requires_size():
    """Regression: a size-less ``choose`` assumed a zero-size chain, admitting
    chains the chosen station could not fit.  The size is now a required
    argument of every strategy's ``choose``."""
    with pytest.raises(TypeError):
        BinPackingPlacement().choose("station-1", _by_name([_view("station-1")]))


def test_load_aware_fallback_keeps_memory_floor():
    strategy = LoadAwarePlacement()  # latency budget 0.02 s, floor 8 MB
    views = [
        _view("station-1", latency=0.0, free=5.0),  # close but below the floor
        _view("station-2", latency=0.05, free=50.0),  # over budget, has memory
    ]
    # The latency budget relaxes before the memory floor does.
    assert strategy.choose("station-1", _by_name(views), 10.0) == "station-2"
    # Only when *nothing* clears the floor: raw fallback by free memory.
    views[1].free_memory_mb = 3.0
    assert strategy.choose("station-1", _by_name(views), 10.0) == "station-1"


# ---------------------------------------------------------------------------
# Embedding: split chains, SLO pricing, radio signal
# ---------------------------------------------------------------------------


def test_embedding_matches_least_loaded_while_unsaturated():
    views = [_view("station-1", latency=0.0, util=0.3), _view("station-2", util=0.0)]
    # Unsaturated, embed's single segment is least-loaded's choice: the
    # whole chain, on the local station.
    result = EmbeddingPlacement().embed("station-1", _by_name(views), [40.0, 40.0])
    assert result.feasible
    chosen = LeastLoadedPlacement().choose("station-1", _by_name(views), 80.0)
    assert chosen == "station-1"
    assert [(s.station_name, s.start, s.end) for s in result.segments] == [(chosen, 0, 2)]


def test_embedding_splits_prefix_local_remainder_spills():
    views = [
        _view("station-1", latency=0.0, free=26.0, util=0.7),  # fits two 10 MB NFs
        _view("station-2", free=80.0, util=0.1),
    ]
    result = EmbeddingPlacement().embed("station-1", _by_name(views), [10.0, 10.0, 10.0, 10.0])
    assert result.feasible and not result.slo_violation
    assert [(s.station_name, s.start, s.end) for s in result.segments] == [
        ("station-1", 0, 2),
        ("station-2", 2, 4),
    ]


def test_embedding_spill_deprioritizes_weak_radio_stations():
    views = [
        _view("station-1", latency=0.0, free=5.0, util=0.9),
        _view("station-2", free=80.0, util=0.2),
        _view("station-3", free=80.0, util=0.2),
    ]
    strategy = EmbeddingPlacement()
    # Equal load: the station the client hears best wins the spill.
    result = strategy.embed(
        "station-1", _by_name(views), [10.0, 10.0],
        radio_rates_bps={"station-2": 6e6, "station-3": 72e6},
    )
    assert [s.station_name for s in result.segments] == ["station-3"]
    # Without a radio signal the name tie-break favours station-2.
    result = strategy.embed("station-1", _by_name(views), [10.0, 10.0])
    assert [s.station_name for s in result.segments] == ["station-2"]


def test_embedding_rejects_on_latency_slo():
    views = [
        _view("station-1", latency=0.0, free=5.0, util=0.9),
        _view("station-2", latency=0.02, free=80.0, util=0.2),
    ]
    result = EmbeddingPlacement().embed("station-1", _by_name(views), [10.0], max_latency_s=0.03)
    assert not result.feasible and result.slo_violation
    assert "latency" in result.reason
    # A looser budget admits the same embedding, detour priced in.
    ok = EmbeddingPlacement().embed("station-1", _by_name(views), [10.0], max_latency_s=0.05)
    assert ok.feasible
    assert ok.latency_s == pytest.approx(0.04)


def test_embedding_rejects_on_bandwidth_slo():
    strategy = EmbeddingPlacement()
    views = [_view("station-1", latency=0.0, util=0.1)]
    # A weak radio link gates even an all-local chain.
    result = strategy.embed(
        "station-1", _by_name(views), [10.0],
        required_bandwidth_mbps=1.0, radio_rates_bps={"station-1": 0.5e6},
    )
    assert not result.feasible and result.slo_violation
    assert "bandwidth" in result.reason
    # So does a saturated backhaul: 100 Mbit/s uplink at 99.5 % leaves 0.5.
    views = [_view("station-1", latency=0.0, util=0.1, uplink=0.995)]
    result = strategy.embed(
        "station-1", _by_name(views), [10.0],
        required_bandwidth_mbps=1.0, uplink_bandwidth_mbps=100.0,
    )
    assert not result.feasible and result.slo_violation


def test_embedding_capacity_infeasible_is_not_slo_violation():
    views = [
        _view("station-1", latency=0.0, free=5.0, util=0.9),
        _view("station-2", free=6.0, util=0.88),
    ]
    result = EmbeddingPlacement().embed("station-1", _by_name(views), [10.0, 10.0])
    assert not result.feasible and not result.slo_violation
    assert "no embedding fits" in result.reason


def test_engine_split_decision_carries_segments_and_counters():
    engine = PlacementEngine(
        Simulator(),
        strategy=EmbeddingPlacement(),
        repository=NFRepository.with_default_catalog(),
    )
    chain = ServiceChain(
        [NFSpec("ids", requirements=NFRequirements(memory_mb=10.0)) for _ in range(4)]
    )
    views = [
        _view("station-1", latency=0.0, free=26.0, util=0.7),
        _view("station-2", free=80.0, util=0.1),
    ]
    decision = engine.place("station-1", views, chain)
    assert decision.admitted
    assert [(s.station_name, s.start, s.end) for s in decision.segments] == [
        ("station-1", 0, 2),
        ("station-2", 2, 4),
    ]
    stats = engine.stats()
    assert stats["split_placements"] == 1
    assert stats["segments_placed"] == 2


def test_engine_slo_rejection_is_terminal_not_queued():
    engine = PlacementEngine(
        Simulator(),
        strategy=EmbeddingPlacement(),
        repository=NFRepository.with_default_catalog(),
        admission_control=True,
    )
    views = [
        _view("station-1", latency=0.0, free=5.0, util=0.9),
        _view("station-2", latency=0.02, free=80.0, util=0.1),
    ]
    chain = ServiceChain(
        [NFSpec("firewall", requirements=NFRequirements(memory_mb=10.0))],
        slo=ChainSLO(max_latency_s=0.001),
    )
    decision = engine.place("station-1", views, chain)
    assert not decision.admitted and decision.slo_rejected and not decision.queued
    assert engine.stats()["slo_rejections"] == 1
    # Capacity-infeasible embeddings still queue like any other admission miss.
    big = ServiceChain([NFSpec("firewall", requirements=NFRequirements(memory_mb=500.0))])
    decision = engine.place("station-1", views, big)
    assert not decision.admitted and decision.queued and not decision.slo_rejected


def test_engine_admission_queue_has_no_depth_cap():
    """A refusal queues however deep the queue already is: the queue holds
    at most one entry per live assignment, so it needs no cap of its own."""
    engine = PlacementEngine(
        Simulator(), repository=NFRepository.with_default_catalog(), admission_control=True
    )
    big = ServiceChain([NFSpec("firewall", requirements=NFRequirements(memory_mb=500.0))])
    for index in range(1025):
        engine.enqueue(SimpleNamespace(assignment_id=f"queued-{index}"), "station-1", big)
    decision = engine.place("station-1", [_view("station-1", latency=0.0)], big)
    assert not decision.admitted and decision.queued
    assert len(engine.queued_assignment_ids()) == 1025


def test_engine_prices_runtime_overhead_into_sizes():
    engine = PlacementEngine(Simulator(), repository=NFRepository.with_default_catalog())
    chain = ServiceChain([NFSpec("firewall", requirements=NFRequirements(memory_mb=10.0))])
    assert engine.chain_memory_mb(chain) == pytest.approx(10.0)
    engine.nf_overhead_mb = 1.5
    assert engine.chain_memory_mb(chain) == pytest.approx(11.5)
    # Catalogue-sized NFs carry the overhead too.
    assert engine.chain_memory_mb(ServiceChain.of("firewall")) == pytest.approx(
        engine.nf_memory_mb("firewall") + 1.5
    )


def test_engine_pending_commitments_spread_same_tick_bursts():
    """Without the ledger, a burst placed off one stale view piles onto the
    least-loaded station; with it, each decision sees the previous ones."""
    simulator = Simulator()
    engine = PlacementEngine(
        simulator,
        strategy=LeastLoadedPlacement(prefer_local_below=0.0),  # never prefer local
        repository=NFRepository.with_default_catalog(),
    )
    views = [_view("station-1", latency=0.0), _view("station-2"), _view("station-3")]
    chain = ServiceChain.of("cache")  # 32 MB, big enough to move the needle
    chosen = [engine.place("station-1", views, chain).station_name for _ in range(3)]
    assert len(set(chosen)) == 3, chosen


@pytest.mark.parametrize(
    "admission_control, shard_count, built",
    [(False, 1, 0), (True, 1, 1), (True, 8, 1)],
)
def test_closest_agent_attach_builds_only_the_views_it_reads(
    monkeypatch, admission_control, shard_count, built
):
    """On 64 stations a closest-agent attach looks the client's station up by
    name and, with admission control on, reads that one station's fit: it
    builds at most one station view, where eager candidates built all 64."""
    made = []

    class CountedView(StationView):
        def __init__(self, *args, **kwargs):
            made.append(kwargs["name"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(manager_module, "StationView", CountedView)
    testbed = GNFTestbed(
        TestbedConfig(
            station_count=64, admission_control=admission_control, shard_count=shard_count
        )
    )
    testbed.start()
    testbed.run(1.5)
    made.clear()
    assignment = testbed.manager.attach_chain(
        CLIENT_IP, ServiceChain.of("firewall"), station_name="station-33"
    )
    assert made == ["station-33"] * built
    assert assignment.station_name == "station-33"
    assert assignment.state is not AssignmentState.FAILED


_STATIONS = [f"station-{index + 1}" for index in range(6)]


@st.composite
def _placement_case(draw):
    count = draw(st.integers(1, len(_STATIONS)))
    unit = st.floats(0.0, 1.0)
    views = [
        StationView(
            name=name,
            free_memory_mb=draw(st.floats(0.0, 100.0)),
            memory_utilization=draw(unit),
            running_nfs=draw(st.integers(0, 8)),
            control_latency_s=0.01,
            client_latency_s=draw(st.sampled_from([0.0, 0.01, 0.02, 0.04, 0.06])),
            allocatable_memory_mb=draw(st.sampled_from([0.0, 100.0])),
            chains=draw(st.integers(0, 8)),
            uplink_utilization=draw(unit),
        )
        for name in _STATIONS[:count]
    ]
    names = [view.name for view in views]
    pending = draw(
        st.lists(st.tuples(st.sampled_from(names), st.floats(0.5, 60.0)), max_size=4)
    )
    sizes = draw(st.lists(st.floats(1.0, 40.0), min_size=1, max_size=3))
    return views, draw(st.sampled_from(names)), pending, sizes


@settings(max_examples=80, deadline=None)
@given(case=_placement_case())
def test_strategies_choose_alike_from_lazy_and_eager_candidates(case):
    """Every registered strategy picks the same station (embedding: the same
    segments) from a lazy CandidateMap as from an eager dict of the same
    commitment-adjusted views, and the lazy map keeps the station order."""
    views, client_station, pending, sizes = case
    by_name = {view.name: view for view in views}
    engine = PlacementEngine(Simulator())
    for station, mb in pending:
        engine.commit(station, mb)
    eager = dict(engine.adjusted_views(by_name))
    for name, factory in STRATEGY_FACTORIES.items():
        strategy = factory()
        lazy = engine.adjusted_views(CandidateMap(by_name, by_name.__getitem__))
        assert list(lazy) == list(by_name)
        if name == "embedding":
            picked = [strategy.embed(client_station, m, sizes) for m in (lazy, eager)]
            assert picked[0] == picked[1], name
        else:
            picked = [strategy.choose(client_station, m, sum(sizes)) for m in (lazy, eager)]
            assert picked[0] == picked[1], name


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def _admission_testbed(**overrides) -> GNFTestbed:
    config = TestbedConfig(
        station_count=2,
        admission_control=True,
        admission_queue_timeout_s=overrides.pop("queue_timeout_s", 30.0),
        **overrides,
    )
    testbed = GNFTestbed(config)
    testbed.start()
    testbed.run(0.5)
    return testbed


def _fill_station(testbed: GNFTestbed, count: int, run_s: float = 2.1):
    """Attach ``count`` firewalls pinned to station-1, letting telemetry settle."""
    assignments = []
    for _ in range(count):
        assignments.append(
            testbed.manager.attach_chain(
                CLIENT_IP, ServiceChain.of("firewall"), station_name="station-1"
            )
        )
        testbed.run(run_s)
    # Let the admission retry task flush anything parked while heartbeats
    # caught up with the burst.
    testbed.run(8.0)
    return assignments


def test_admission_queues_on_saturated_station_and_drains_when_freed():
    testbed = _admission_testbed()
    assignments = _fill_station(testbed, 12)
    active = [a for a in assignments if a.state is AssignmentState.ACTIVE]
    assert len(active) >= 11  # the station really filled up
    overflow = testbed.manager.attach_chain(
        CLIENT_IP, ServiceChain.of("firewall"), station_name="station-1"
    )
    testbed.run(3.0)
    assert overflow.state is AssignmentState.PENDING
    assert overflow.assignment_id in testbed.placement_engine.queued_assignment_ids()
    assert testbed.placement_engine.stats()["rejections"] >= 1
    # Free capacity: the queued placement must dispatch and go active.
    for assignment in active[:3]:
        testbed.manager.detach(assignment.assignment_id)
    testbed.run(15.0)
    assert overflow.state is AssignmentState.ACTIVE
    assert testbed.placement_engine.stats()["dispatched_from_queue"] >= 1
    assert testbed.placement_engine.queued_assignment_ids() == []


def test_admission_queue_times_out_when_capacity_never_frees():
    testbed = _admission_testbed(queue_timeout_s=5.0)
    _fill_station(testbed, 12)
    overflow = testbed.manager.attach_chain(
        CLIENT_IP, ServiceChain.of("firewall"), station_name="station-1"
    )
    testbed.run(12.0)
    assert overflow.state is AssignmentState.FAILED
    assert "admission queue timeout" in overflow.failure_reason
    assert testbed.placement_engine.stats()["queue_timeouts"] >= 1
    # The retry task stopped with the queue empty: the run drains cleanly.
    testbed.stop()
    testbed.simulator.run(max_events=100_000)
    assert testbed.simulator.pending_events == 0


def test_detach_cancels_queued_placement():
    testbed = _admission_testbed()
    _fill_station(testbed, 12)
    overflow = testbed.manager.attach_chain(
        CLIENT_IP, ServiceChain.of("firewall"), station_name="station-1"
    )
    testbed.run(1.0)
    assert overflow.state is AssignmentState.PENDING
    testbed.manager.detach(overflow.assignment_id)
    assert overflow.state is AssignmentState.REMOVED
    assert overflow.assignment_id not in testbed.placement_engine.queued_assignment_ids()
    testbed.run(5.0)
    assert overflow.state is AssignmentState.REMOVED  # never resurrected


# ---------------------------------------------------------------------------
# Autoscaler
# ---------------------------------------------------------------------------


def _autoscale_testbed(**overrides) -> GNFTestbed:
    config = TestbedConfig(
        station_count=overrides.pop("station_count", 3),
        autoscale_enabled=True,
        autoscale_interval_s=1.0,
        autoscale_up_threshold=0.6,
        autoscale_down_threshold=0.3,
        autoscale_max_replicas=overrides.pop("max_replicas", 1),
        **overrides,
    )
    testbed = GNFTestbed(config)
    testbed.start()
    testbed.run(0.5)
    return testbed


def _replica_containers(testbed: GNFTestbed):
    """The running replica containers; the agents hold no stopped or failed one."""
    held = [
        (station_name, container)
        for station_name, agent in testbed.agents.items()
        for container in agent.runtime.containers.values()
        if "-scale-" in container.name
    ]
    assert not any(container.is_terminal for _, container in held), held
    return [(station_name, container.name) for station_name, container in held if container.is_running]


def test_autoscale_up_then_drain_down_leaves_no_replicas():
    testbed = _autoscale_testbed()
    assignments = []
    for _ in range(4):  # 4 x (firewall + http-filter) = 64 MB -> util 0.71
        assignments.append(
            testbed.manager.attach_chain(
                CLIENT_IP, ServiceChain.of("firewall", "http-filter"), station_name="station-1"
            )
        )
        testbed.run(2.1)
    testbed.run(6.0)
    autoscaler = testbed.autoscaler
    assert autoscaler.scale_ups >= 1
    assert autoscaler.active_replicas >= 1
    # The replica chain is the original fronted by a load-balancer NF.
    replica_deployments = [
        deployment
        for agent in testbed.agents.values()
        for assignment_id, deployment in agent.deployments.items()
        if "-scale-" in assignment_id
    ]
    assert replica_deployments
    assert replica_deployments[0].chain.nf_types[0] == "load-balancer"
    assert replica_deployments[0].chain.nf_types[1:] == ["firewall", "http-filter"]
    # Cool the station down: all but the replica's parent detach.
    parent_id = sorted(autoscaler._replicas)[0]
    for assignment in assignments:
        if assignment.assignment_id != parent_id:
            testbed.manager.detach(assignment.assignment_id)
    testbed.run(10.0)
    assert autoscaler.scale_downs >= 1
    assert autoscaler._replicas == {}
    assert _replica_containers(testbed) == []


def test_autoscaler_prunes_replicas_of_detached_parents():
    testbed = _autoscale_testbed()
    assignments = []
    for _ in range(4):
        assignments.append(
            testbed.manager.attach_chain(
                CLIENT_IP, ServiceChain.of("firewall", "http-filter"), station_name="station-1"
            )
        )
        testbed.run(2.1)
    testbed.run(6.0)
    assert testbed.autoscaler.active_replicas >= 1
    for assignment in assignments:
        testbed.manager.detach(assignment.assignment_id)
    testbed.run(5.0)
    assert testbed.autoscaler._replicas == {}
    assert _replica_containers(testbed) == []


def test_testbed_stop_tears_down_live_replicas():
    testbed = _autoscale_testbed()
    for _ in range(4):
        testbed.manager.attach_chain(
            CLIENT_IP, ServiceChain.of("firewall", "http-filter"), station_name="station-1"
        )
        testbed.run(2.1)
    testbed.run(6.0)
    assert testbed.autoscaler.active_replicas >= 1
    testbed.stop()
    testbed.simulator.run(max_events=200_000)
    assert testbed.simulator.pending_events == 0
    assert testbed.autoscaler._replicas == {}
    assert _replica_containers(testbed) == []


def test_autoscaler_rebalances_via_migration_engine_with_shard_handoff():
    """Replica budget 0 forces the rebalance path; on a sharded control
    plane the migration must hand the assignment off between shards."""
    testbed = _autoscale_testbed(station_count=2, max_replicas=0, shard_count=2)
    assignments = []
    for _ in range(4):
        assignments.append(
            testbed.manager.attach_chain(
                CLIENT_IP, ServiceChain.of("firewall", "http-filter"), station_name="station-1"
            )
        )
        testbed.run(2.1)
    testbed.run(12.0)
    autoscaler = testbed.autoscaler
    assert autoscaler.rebalances >= 1
    moved = [a for a in assignments if a.station_name == "station-2"]
    assert moved and moved[0].migrations >= 1
    assert testbed.roaming.completed_migrations()
    # Handoff-safe: the frontend moved the assignment between region shards.
    assert testbed.manager.handoffs
    handoff = testbed.manager.handoffs[0]
    assert handoff.to_station == "station-2"
    # Nothing staged by the synthetic roam leaks.
    assert testbed.roaming._captured_state == {}
    assert testbed.roaming._speculative == {}


# ---------------------------------------------------------------------------
# Scenario digests: the new canned pair, shard counts 1 and 4
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, placement",
    [
        ("hotspot-stadium", None),
        ("hotspot-stadium", "least-loaded"),
        ("autoscale-daily-wave", None),
        ("slo-tight-embedding", None),
    ],
)
def test_new_scenarios_shard_invariant_digests(name, placement):
    first = run_scenario(name, seed=0, placement_strategy=placement)
    second = run_scenario(name, seed=0, placement_strategy=placement, shard_count=4)
    assert first.drained and second.drained
    assert first.digest == second.digest, first.digest.diff(second.digest)


def test_slo_tight_embedding_exercises_splits_and_slo_rejections():
    """The canned scenario really drives both new code paths: chains split
    across stations AND SLO-infeasible chains are terminally rejected."""
    result = run_scenario("slo-tight-embedding", seed=0)
    assert result.drained
    assert result.placement_stats["split_placements"] >= 1
    assert result.placement_stats["slo_rejections"] >= 1


def test_embedding_digest_matches_least_loaded_when_unsaturated():
    """Embedding's local-preference rule mirrors least-loaded exactly, so an
    unsaturated scenario must replay digest-identically under either."""
    baseline = run_scenario("fig2-roaming", seed=0, placement_strategy="least-loaded")
    embedded = run_scenario("fig2-roaming", seed=0, placement_strategy="embedding")
    assert baseline.drained and embedded.drained
    assert embedded.placement_stats["split_placements"] == 0
    assert baseline.digest == embedded.digest, baseline.digest.diff(embedded.digest)


def test_hotspot_stadium_least_loaded_admits_more_chains():
    """The E11 headline, pinned as a tier-1 fact at scenario scale."""
    closest = run_scenario("hotspot-stadium", seed=0)
    spread = run_scenario("hotspot-stadium", seed=0, placement_strategy="least-loaded")

    def admitted(result):
        return sum(
            1
            for assignment in result.testbed.manager.assignments.values()
            if assignment.state is AssignmentState.ACTIVE
        )

    assert admitted(spread) >= 1.5 * admitted(closest)
    assert spread.placement_stats["remote_placements"] > 0
    assert closest.placement_stats["remote_placements"] == 0
