"""E7 -- Manager / control-plane scalability, sharded vs single.

Paper claim: the Manager keeps "a connection with all the Agents in the
network" and "continuously monitor[s] the health and resource utilization
from the GNF stations".  This experiment has two parts:

1. **Scale sweep** -- full testbeds at increasing station and shard counts:
   heartbeat processing, control-plane traffic, attach latency under load
   and station liveness.
2. **Heartbeat transport comparison** -- the path that walls off the
   "millions of users" target.  A fixed fleet of Agents fires pre-built
   heartbeat waves through the real transport (per-message ControlChannel
   for the single Manager, coalescing ControlBus for the sharded one).

The comparison asserts the simulated cost exactly: the single Manager takes
one simulator event per heartbeat, every sharded shape one bus flush per
wave.  Wall-clock heartbeats/s is a reported column only; the rate itself is
measured by the perf probes ``core.manager.probe_heartbeats_per_s`` /
``core.sharding.probe_heartbeats_per_s``.
"""

from __future__ import annotations

from _bench_utils import run_once
from heartbeat_waves import heartbeat_waves

from repro.analysis.report import ExperimentResult
from repro.analysis.stats import mean
from repro.core.testbed import GNFTestbed, TestbedConfig

STATION_COUNTS = (2, 4, 8)
CLIENTS_PER_STATION = 2
SHARD_COUNTS = (1, 8)
HB_STATIONS = 512
HB_ROUNDS = 40


# ---------------------------------------------------------------------------
# Part 1: full-testbed scale sweep
# ---------------------------------------------------------------------------


def _run_scale(station_count: int, shard_count: int, clients_per_station: int, sim_duration_s: float = 30.0):
    testbed = GNFTestbed(
        TestbedConfig(station_count=station_count, heartbeat_interval_s=2.0, shard_count=shard_count)
    )
    clients = []
    for index in range(station_count * clients_per_station):
        station_index = index % station_count
        position = (station_index * testbed.config.station_spacing_m, 0.0)
        clients.append(testbed.add_client(f"client-{index}", position=position))
    testbed.start()
    testbed.run(1.0)
    assignments = [testbed.manager.attach_nf(client.ip, "firewall") for client in clients]
    testbed.run(sim_duration_s)

    manager = testbed.manager
    control = manager.control_plane_stats()
    total_messages = sum(stats["messages_delivered"] for stats in control.values())
    attach_latencies = [a.attach_latency_s for a in assignments if a.attach_latency_s is not None]
    return {
        "stations": station_count,
        "shards": shard_count,
        "clients": len(clients),
        "nfs_active": sum(1 for a in assignments if a.state.value == "active"),
        "heartbeats": manager.heartbeats_processed,
        "heartbeat_rate_per_s": manager.heartbeats_processed / (sim_duration_s + 1.0),
        "control_messages": total_messages,
        "mean_attach_latency_s": mean(attach_latencies),
        "online": len(manager.health.online_stations(testbed.simulator.now)),
    }


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------


def test_e7_manager_scalability(benchmark, record_experiment):
    def _run_experiment():
        scale_rows = [
            _run_scale(count, min(shards, count), CLIENTS_PER_STATION)
            for count in STATION_COUNTS
            for shards in SHARD_COUNTS
        ]
        throughput_rows = [
            (shards, heartbeat_waves(HB_STATIONS, HB_ROUNDS, shard_count=shards))
            for shards in SHARD_COUNTS
        ]
        return scale_rows, throughput_rows

    scale_rows, throughput_rows = run_once(benchmark, _run_experiment)

    result = ExperimentResult(
        experiment_id="E7",
        title="Manager scalability: stations, heartbeats, control traffic and attach latency",
        headers=[
            "stations", "shards", "clients", "active NFs", "heartbeats processed",
            "heartbeats/s", "control messages", "mean attach latency (s)", "stations online",
        ],
        paper_claim=(
            "The Manager keeps a connection with all Agents and continuously monitors "
            "health and resource utilization across the network"
        ),
    )
    for row in scale_rows:
        result.add_row(
            row["stations"], row["shards"], row["clients"], row["nfs_active"], row["heartbeats"],
            row["heartbeat_rate_per_s"], row["control_messages"],
            row["mean_attach_latency_s"], row["online"],
        )
    record_experiment(result)

    comparison = ExperimentResult(
        experiment_id="E7b",
        title=(
            f"Heartbeat transport at {HB_STATIONS} stations x {HB_ROUNDS} waves: "
            "sharded ControlBus vs single Manager"
        ),
        headers=[
            "stations", "shards", "heartbeats", "sim events", "sim events/heartbeat",
            "wall (s)", "heartbeats/s (reported)",
        ],
        paper_claim=(
            "Keeping a connection with all Agents must not serialise the control "
            "plane through one object as the network grows"
        ),
    )
    for shards, run in throughput_rows:
        comparison.add_row(
            HB_STATIONS, shards, run.heartbeats, run.events,
            f"{run.events / run.heartbeats:.4f}", f"{run.wall_s:.3f}", f"{run.rate_per_s:.0f}",
        )
    record_experiment(comparison)

    # Every deployment succeeded and every agent stayed online at every scale.
    for row in scale_rows:
        assert row["nfs_active"] == row["clients"]
        assert row["online"] == row["stations"]
    # Control-plane load grows with the number of stations, while attach
    # latency stays flat (no central bottleneck in this regime).
    assert scale_rows[-1]["heartbeats"] > scale_rows[0]["heartbeats"]
    assert scale_rows[-1]["mean_attach_latency_s"] < 3 * scale_rows[0]["mean_attach_latency_s"]

    # The headline criterion, in simulated work: every heartbeat is
    # processed; the single Manager pays one delivery event per heartbeat,
    # the sharded control plane one bus flush per wave.
    heartbeats = HB_ROUNDS * HB_STATIONS
    for shards, run in throughput_rows:
        assert run.heartbeats == heartbeats, (shards, run.heartbeats)
        expected = heartbeats if shards == 1 else HB_ROUNDS
        assert run.events == expected, (shards, run.events, expected)
