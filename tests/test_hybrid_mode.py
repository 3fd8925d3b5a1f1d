"""Hybrid fluid/packet simulation core (``src/repro/netem/fluid.py``).

Covers the tentpole's three contracts:

* solver math -- max-min fair shares against hand-computed fixtures,
* conversion continuity -- promote/demote keeps ``bytes_fluid +
  bytes_packet`` exact, and fluid occupancy inflates packet serialization,
* digest equivalence -- every canned scenario without bulk workloads
  replays to the *identical* MetricsDigest under ``packet`` and ``hybrid``
  modes (including across control-plane shard counts), mirroring the
  shard- and placement-invariance gates of earlier PRs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.fluid import FluidFlow, FluidPath, FluidSolver, HybridScheduler
from repro.netem.link import Link
from repro.netem.simulator import Simulator
from repro.scenarios import build_scenario, run_scenario, scenario_names
from repro.scenarios.library import scenario_has_bulk

# ---------------------------------------------------------------------------
# FluidSolver: max-min fair shares vs hand-computed fixtures
# ---------------------------------------------------------------------------


def _solve(capacities, membership, demands):
    return FluidSolver.max_min_rates(
        np.asarray(capacities, dtype=float),
        np.asarray(membership, dtype=bool),
        np.asarray(demands, dtype=float),
    )


def test_solver_equal_split_on_one_bottleneck():
    # Two greedy flows share a 100 Mb/s link: 50/50.
    rates = _solve([100.0], [[True, True]], [80.0, 80.0])
    assert rates == pytest.approx([50.0, 50.0])


def test_solver_demand_limited_flow_releases_headroom():
    # Flow A wants only 30: A is demand-fixed at 30, B soaks up the rest.
    rates = _solve([100.0], [[True, True]], [30.0, 80.0])
    assert rates == pytest.approx([30.0, 70.0])


def test_solver_multi_link_bottleneck():
    # B crosses both links and is capped by the 40 link; A then gets the
    # 100-link's residual 60.
    rates = _solve(
        [100.0, 40.0],
        [[True, True], [False, True]],
        [1e3, 1e3],
    )
    assert rates == pytest.approx([60.0, 40.0])


def test_solver_three_flows_one_small_demand():
    # Classic textbook case: demands (10, 100, 100) on a 90 link ->
    # (10, 40, 40): the small flow is satisfied, the rest split fairly.
    rates = _solve([90.0], [[True, True, True]], [10.0, 100.0, 100.0])
    assert rates == pytest.approx([10.0, 40.0, 40.0])


def test_solver_flows_without_links_are_demand_limited():
    # No registered link at all (L=0): rates equal demands.
    rates = _solve(np.zeros(0), np.zeros((0, 2)), [5e6, 1e6])
    assert rates == pytest.approx([5e6, 1e6])


def test_solver_empty_flow_set():
    assert _solve([90.0], np.zeros((1, 0)), np.zeros(0)) == []


def test_solver_is_deterministic():
    args = ([100.0, 40.0], [[True, True], [False, True]], [70.0, 90.0])
    assert np.array_equal(_solve(*args), _solve(*args))


# ---------------------------------------------------------------------------
# HybridScheduler: conversion continuity on a synthetic link
# ---------------------------------------------------------------------------


def _rig(epoch_s: float = 0.1, bandwidth_bps: float = 8e6):
    """A scheduler wired to one real Link, no testbed."""
    simulator = Simulator()
    scheduler = HybridScheduler(simulator, mode="hybrid", epoch_s=epoch_s)
    link = Link(simulator, bandwidth_bps=bandwidth_bps, delay_s=0.0, name="uplink")
    scheduler.path_resolver = lambda flow: FluidPath("station-1", [(link, "a_to_b")])
    scheduler.start()
    return simulator, scheduler, link


def test_demote_promote_keeps_byte_accounting_exact():
    simulator, scheduler, link = _rig(epoch_s=0.1)
    # 100 kB/s demand, 50 kB budget: 0.5 s of pure fluid time.
    flow = FluidFlow("bulk", demand_bps=8e5, total_bytes=50_000.0)
    scheduler.register(flow)
    assert flow.mode == "fluid"

    simulator.run(until=0.2)
    assert flow.bytes_fluid == pytest.approx(20_000.0)

    # Fault window opens: immediate demotion, fluid bytes frozen.
    scheduler.enter_fault_island("station-1")
    assert flow.mode == "packet"
    assert flow.demotions == 1
    fluid_before = flow.bytes_fluid

    # The packet path moves two chunks while demoted.
    scheduler.record_packet_bytes(flow, 4_000.0)
    scheduler.record_packet_bytes(flow, 4_000.0)
    scheduler.exit_fault_island("station-1")

    # Next epoch re-promotes; fluid resumes from the frozen byte count.
    simulator.run(until=0.35)
    assert flow.mode == "fluid"
    assert flow.promotions == 1
    assert flow.bytes_fluid == pytest.approx(fluid_before)  # no packet-window drift

    # Run to completion: the last settle clamps at the byte budget exactly.
    simulator.run(until=1.0)
    assert flow.completed
    assert flow.bytes_fluid + flow.bytes_packet == pytest.approx(flow.total_bytes)
    assert flow.bytes_packet == pytest.approx(8_000.0)

    summary = scheduler.summary()
    assert summary["flows_completed"] == 1.0
    assert summary["flows_demoted"] == 1.0
    assert summary["flows_promoted"] == 1.0
    assert summary["bytes_fluid"] + summary["bytes_packet"] == pytest.approx(50_000.0)
    # Link bookkeeping matches the flow's fluid bytes and the load is
    # released once the flow retires.
    assert link._directions["a_to_b"].stats.fluid_bytes == pytest.approx(flow.bytes_fluid)
    assert link.fluid_load("a_to_b") == 0.0


def test_unroutable_flows_stay_packet_until_a_path_appears():
    simulator = Simulator()
    scheduler = HybridScheduler(simulator, mode="hybrid", epoch_s=0.1)
    link = Link(simulator, bandwidth_bps=8e6, delay_s=0.0)
    path_holder = {"path": None}
    scheduler.path_resolver = lambda flow: path_holder["path"]
    scheduler.start()
    flow = scheduler.register(FluidFlow("roaming", demand_bps=8e5, total_bytes=1e6))
    assert flow.mode == "packet"  # mid-handover: no route, no fluid
    path_holder["path"] = FluidPath("station-2", [(link, "a_to_b")])
    simulator.run(until=0.15)  # next epoch reclassifies
    assert flow.mode == "fluid"
    assert flow.promotions == 1


def test_packet_mode_scheduler_is_inert():
    simulator = Simulator()
    scheduler = HybridScheduler(simulator, mode="packet")
    scheduler.start()
    flow = scheduler.register(FluidFlow("bulk", demand_bps=1e6, total_bytes=1e6))
    assert flow.mode == "packet"
    assert scheduler._task is None  # no epoch task was ever scheduled
    scheduler.enter_fault_island("station-1")  # harmless no-ops
    scheduler.exit_fault_island("station-1")
    simulator.run(until=5.0)
    assert scheduler.solver_epochs == 0
    assert flow.bytes_fluid == 0.0


def test_flow_finished_counts_packet_completions():
    simulator = Simulator()
    scheduler = HybridScheduler(simulator, mode="packet")
    flow = scheduler.register(FluidFlow("bulk", demand_bps=1e6, total_bytes=8_000.0))
    scheduler.record_packet_bytes(flow, 8_000.0)
    scheduler.flow_finished(flow)
    assert flow.completed
    assert scheduler.flows_completed == 1
    assert flow.flow_id not in scheduler.flows
    scheduler.flow_finished(flow)  # idempotent
    assert scheduler.flows_completed == 1


# ---------------------------------------------------------------------------
# Per-epoch work: one path per (station, server), island inputs once
# ---------------------------------------------------------------------------


def test_flows_share_one_path_per_station_and_server_and_follow_a_roaming_client():
    testbed = GNFTestbed(TestbedConfig(station_count=2, simulation_mode="hybrid"))
    near_a, also_a, near_b = (
        testbed.add_client(name, position=position)
        for name, position in (("a1", (0.0, 0.0)), ("a2", (2.0, 0.0)), ("b1", (80.0, 0.0)))
    )
    testbed.start()
    testbed.run(1.0)
    server_ip = testbed.topology.any_server_ip()
    flows = [
        testbed.hybrid.register(FluidFlow(client.name, demand_bps=1e5, total_bytes=1e9, client=client, dst_ip=server_ip))
        for client in (near_a, also_a, near_b)
    ]
    assert flows[0].path is flows[1].path
    assert flows[0].path.station == "station-1"
    assert flows[2].path is not flows[0].path
    assert flows[0].path.counters is testbed.hybrid.station_counters["station-1"]
    assert flows[0].path.switch is testbed.topology.stations["station-1"].switch
    # The client roams: at the next epoch its flow rides station-2's path object.
    near_a.position = (80.0, 0.0)
    testbed.run(2.0)
    assert near_a.current_station_name == "station-2"
    assert flows[0].path is flows[2].path
    assert flows[1].path.station == "station-1"


class _Endpoint:
    def __init__(self, ip):
        self.ip = ip


def test_island_inputs_are_asked_once_per_epoch_not_once_per_flow():
    simulator, scheduler, _ = _rig(epoch_s=0.1)
    asked = {"migration": 0, "chained": 0}

    def migration_stations():
        asked["migration"] += 1
        return ()

    def chained_clients():
        asked["chained"] += 1
        return set()

    scheduler.migration_stations = migration_stations
    scheduler.chained_clients = chained_clients
    for index in range(5):
        scheduler.register(FluidFlow(f"bulk-{index}", 8e5, 1e9, client=_Endpoint(f"10.0.0.{index}")))
    before = dict(asked)
    simulator.run(until=0.35)
    assert scheduler.solver_epochs == 3
    assert asked == {key: count + 3 for key, count in before.items()}


def test_flow_is_demoted_while_its_client_has_a_chain_and_promoted_after_detach():
    simulator, scheduler, _ = _rig(epoch_s=0.1)
    chained = set()
    scheduler.chained_clients = lambda: chained
    flow = scheduler.register(FluidFlow("bulk", 8e5, 1e9, client=_Endpoint("10.0.0.7")))
    other = scheduler.register(FluidFlow("other", 8e5, 1e9, client=_Endpoint("10.0.0.8")))
    assert flow.mode == other.mode == "fluid"
    chained.add("10.0.0.7")  # a chain attaches mid-run
    simulator.run(until=0.15)
    assert (flow.mode, flow.demotions, other.mode) == ("packet", 1, "fluid")
    chained.clear()  # detached
    simulator.run(until=0.25)
    assert (flow.mode, flow.promotions, other.demotions) == ("fluid", 1, 0)


def test_link_load_is_the_flow_ordered_sum_exactly():
    simulator = Simulator()
    scheduler = HybridScheduler(simulator, mode="hybrid", epoch_s=0.1)
    uplink = Link(simulator, bandwidth_bps=2e6, delay_s=0.0, name="uplink")
    core = Link(simulator, bandwidth_bps=1e9, delay_s=0.0, name="core")
    # Three path objects over the same uplink (one also crosses the core):
    # the per-link sum must not depend on how flows group by path.
    paths = [
        FluidPath("station-1", [(uplink, "a_to_b")]),
        FluidPath("station-1", [(uplink, "a_to_b"), (core, "a_to_b")]),
        FluidPath("station-2", [(uplink, "a_to_b")]),
    ]
    scheduler.path_resolver = lambda flow: paths[flow.flow_id % 3]
    scheduler.start()
    for index in range(40):
        # A few demand-limited flows, the rest share-limited.
        scheduler.register(FluidFlow(f"bulk-{index}", demand_bps=1e4 * (index + 1) / 3.0, total_bytes=1e9))
    simulator.run(until=0.15)
    on_uplink = on_core = 0.0  # plain loops: sum() may compensate
    for flow in scheduler.flows.values():
        on_uplink += flow.allocated_bps
        if flow.path is paths[1]:
            on_core += flow.allocated_bps
    rates = [flow.allocated_bps for flow in scheduler.flows.values()]
    assert {flow.mode for flow in scheduler.flows.values()} == {"fluid"}
    assert len(set(rates)) > 10 and rates.count(max(rates)) > 1  # demand- and share-limited
    assert uplink.fluid_load("a_to_b") == on_uplink  # ==, not approx
    assert core.fluid_load("a_to_b") == on_core


# ---------------------------------------------------------------------------
# Fluid occupancy must inflate packet serialization (and only then)
# ---------------------------------------------------------------------------


def test_fluid_load_inflates_packet_serialization_delay():
    simulator = Simulator()
    link = Link(simulator, bandwidth_bps=1e6, delay_s=0.0)
    direction = link._directions["a_to_b"]
    base = link._packet_serialization_delay(1_000, direction)
    assert base == pytest.approx(8_000 / 1e6)

    # Half the link fluid-occupied: packets see half the bandwidth.
    link.set_fluid_load("a_to_b", 5e5)
    assert link._packet_serialization_delay(1_000, direction) == pytest.approx(2 * base)

    # Overload clamps at the 5% residual floor, never divides by <= 0.
    link.set_fluid_load("a_to_b", 2e6)
    assert link._packet_serialization_delay(1_000, direction) == pytest.approx(
        8_000 / (1e6 * Link._MIN_RESIDUAL_FRACTION)
    )

    # Zero load is bit-identical to the fluid-free arithmetic: this is what
    # keeps packet/hybrid digests equal on non-bulk scenarios.
    link.set_fluid_load("a_to_b", 0.0)
    assert link._packet_serialization_delay(1_000, direction) == link.serialization_delay(1_000)
    # The other direction was never touched.
    assert link.fluid_load("b_to_a") == 0.0


# ---------------------------------------------------------------------------
# Digest equivalence: packet vs hybrid on the non-bulk canned library
# ---------------------------------------------------------------------------


def _non_bulk_scenarios():
    return [name for name in scenario_names() if not scenario_has_bulk(build_scenario(name))]


def test_packet_vs_hybrid_digest_equivalence_across_shards():
    """Every canned scenario without bulk workloads must replay to the
    identical digest under the hybrid engine -- run sharded (4) so one
    comparison also proves the hybrid engine keeps shard invariance."""
    failures = []
    for name in _non_bulk_scenarios():
        base = run_scenario(name, seed=0)
        hybrid = run_scenario(name, seed=0, simulation_mode="hybrid", shard_count=4)
        if hybrid.digest != base.digest:
            failures.append((name, base.digest.diff(hybrid.digest)))
    assert not failures, failures


def test_packet_vs_hybrid_digest_equivalence_unsharded_subset():
    # The unsharded leg on a light subset (the sharded sweep above covers
    # the whole library): packet(1) == hybrid(1), byte for byte.
    for name in ("fig2-roaming", "firewall-churn", "commuter-rush"):
        base = run_scenario(name, seed=0)
        hybrid = run_scenario(name, seed=0, simulation_mode="hybrid")
        assert hybrid.digest == base.digest, (name, base.digest.diff(hybrid.digest))


# ---------------------------------------------------------------------------
# The bulk-backhaul scenario exercises the whole conversion machinery
# ---------------------------------------------------------------------------


def test_bulk_backhaul_exercises_promote_demote_and_conserves_bytes():
    result = run_scenario("bulk-backhaul", seed=0)
    assert result.drained
    fluid = result.fluid_summary
    assert fluid["flows_registered"] == 8.0
    assert fluid["flows_completed"] == 8.0
    # The link-degrade fault demotes the uploaders; the firewall detach
    # promotes the chained uploaders: both transitions must actually fire.
    assert fluid["flows_demoted"] >= 1.0
    assert fluid["flows_promoted"] >= 1.0
    assert fluid["bytes_fluid"] > 0.0
    assert fluid["bytes_packet"] > 0.0
    # Per-flow byte conservation across every conversion.
    bulk_stats = [
        stats for stats in result.workload_stats.values() if "total_bytes" in stats
    ]
    assert len(bulk_stats) == 8
    for stats in bulk_stats:
        assert stats["completed"] == 1.0
        assert stats["bytes_fluid"] + stats["bytes_packet"] == pytest.approx(
            stats["total_bytes"]
        )
    # Scheduler-level totals agree with the per-flow split.
    assert fluid["bytes_fluid"] == pytest.approx(
        sum(stats["bytes_fluid"] for stats in bulk_stats)
    )
    assert fluid["bytes_packet"] == pytest.approx(
        sum(stats["bytes_packet"] for stats in bulk_stats)
    )
