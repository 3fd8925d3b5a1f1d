"""One heartbeat-wave fleet: the control-plane transport cost, counted.

Benchmarks E7b and E14b and the tier-1 coalescing test share this builder:
real Agents on a real topology fire pre-built heartbeat waves at a single
``GNFManager`` or at a region x shard ``ShardedManager``, and the simulator
events the waves cost are returned as an exact count.  Import it with
``tools/`` on ``sys.path``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.agent import GNFAgent
from repro.core.api import AgentHeartbeat
from repro.core.manager import ControlPlane, GNFManager
from repro.core.repository import NFRepository
from repro.core.sharding import ShardedManager
from repro.netem.simulator import Simulator
from repro.netem.topology import EdgeTopology, TopologyConfig


@dataclass
class HeartbeatWaves:
    """What :func:`heartbeat_waves` measured, plus the live fleet it built."""

    simulator: Simulator
    topology: EdgeTopology
    manager: ControlPlane
    heartbeats: int
    events: int
    wall_s: float

    @property
    def rate_per_s(self) -> float:
        return self.heartbeats / self.wall_s if self.wall_s > 0 else 0.0


def heartbeat_waves(
    station_count: int, rounds: int, region_count: int = 1, shard_count: int = 1
) -> HeartbeatWaves:
    """Fire ``rounds`` network-wide heartbeat waves through the real transport.

    One real Agent per station registers with a single ``GNFManager`` (at
    1 x 1: one ``ControlChannel`` delivery event per message) or with a
    ``region_count x shard_count`` ``ShardedManager`` (one coalescing
    ``ControlBus``).  Periodic agent tasks are stopped and one heartbeat per
    station is pre-built, so each wave is exactly one heartbeat per station
    sent through the Agents' wired senders, then the simulator runs dry.
    ``events`` counts only what the waves cost the simulator.
    """
    simulator = Simulator()
    topology = EdgeTopology(simulator, TopologyConfig(station_count=station_count))
    repository = NFRepository.with_default_catalog()
    if region_count > 1 or shard_count > 1:
        manager: ControlPlane = ShardedManager(
            simulator,
            region_count=region_count,
            shard_count=shard_count,
            station_count=station_count,
            repository=repository,
            topology=topology,
        )
    else:
        manager = GNFManager(simulator, repository=repository, topology=topology)
    senders = []
    for station_name, station in topology.stations.items():
        agent = GNFAgent(simulator, station, repository)
        manager.register_agent(agent)
        agent.stop()
        heartbeat = AgentHeartbeat(
            station_name=station_name,
            time=0.0,
            resources=agent.runtime.utilization(),
            switch={},
            nf_stats={},
            connected_clients=[],
        )
        senders.append((agent._manager_heartbeat_sink, heartbeat))
    simulator.run()

    events_before = simulator.events_processed
    started = time.perf_counter()
    for _ in range(rounds):
        for sender, heartbeat in senders:
            sender(heartbeat)
        simulator.run()
    wall_s = time.perf_counter() - started
    return HeartbeatWaves(
        simulator=simulator,
        topology=topology,
        manager=manager,
        heartbeats=manager.heartbeats_processed,
        events=simulator.events_processed - events_before,
        wall_s=wall_s,
    )
