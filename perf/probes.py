"""Isolated probes: each layer's public functions timed alone on synthetic inputs.

One probe prices one layer with everything else stubbed out (a bare
``Simulator``, a bare ``Link`` into a sink, one NF's ``process_batch`` ...),
following the measure-each-hop-alone idiom: an isolation figure, not a share
of any workload.  Every value is a *host* rate (units of work per host
second), the median of five repetitions (one at the smoke scale).

Later refactors cannot edit this directory, so a probe whose symbols no
longer import -- or whose calls no longer fit -- reports ``None`` and a
reason instead of failing the run.  All ``repro`` imports are therefore
local to the probe that needs them.
"""

from __future__ import annotations

import random
import time
from statistics import median
from typing import Callable, Dict, Optional, Tuple

#: Repetitions per probe (median reported) and work divisor, per ``--scale``.
_SCALES = {"full": (5, 1), "tiny": (1, 16)}

CLIENT_IP = "10.10.0.5"
SERVER_IP = "10.30.0.2"

Rep = Callable[[], Tuple[float, int]]


def _median_rate(rep: Rep, reps: int) -> float:
    """``rep()`` does one repetition and returns (timed seconds, units of work)."""
    rates = []
    for _ in range(reps):
        elapsed, units = rep()
        rates.append(units / elapsed)
    return median(rates)


# ---------------------------------------------------------------- event kernel


def _ticker_rep(simulator, events: int, tickers: int = 8) -> Rep:
    """``events`` self-rescheduling callbacks from ``tickers`` concurrent chains."""

    def rep() -> Tuple[float, int]:
        remaining = [events]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] >= tickers:
                simulator.schedule(1e-3, tick)

        for _ in range(tickers):
            simulator.schedule(0.0, tick)
        before = simulator.events_processed
        started = time.perf_counter()
        simulator.run(until=simulator.now + events * 1e-3)
        return time.perf_counter() - started, simulator.events_processed - before

    return rep


def simulator_events(reps: int, divisor: int) -> float:
    from repro.netem.simulator import Simulator

    return _median_rate(_ticker_rep(Simulator(), 20_000 // divisor), reps)


def simulator_deep_events(reps: int, divisor: int) -> float:
    """The same ticker load on top of 50 k pending (far-future) events."""
    from repro.netem.simulator import Simulator

    simulator = Simulator()
    rng = random.Random(0)
    for _ in range(50_000 // divisor):
        simulator.schedule_at(1e9 + rng.random(), _noop)
    return _median_rate(_ticker_rep(simulator, 20_000 // divisor), reps)


def _noop(*_args) -> None:
    return None


# -------------------------------------------------------------- link and switch


def _udp_packets(count: int, flows: int = 64):
    from repro.netem.packet import make_udp_packet

    return [
        make_udp_packet(CLIENT_IP, SERVER_IP, 40_000 + index % flows, 9000, payload_bytes=500)
        for index in range(count)
    ]


def link_pps(reps: int, divisor: int) -> float:
    """A bare 10 Gb/s ``Link`` between two interfaces, the far one a sink."""
    from repro.netem.host import Interface
    from repro.netem.link import Link
    from repro.netem.simulator import Simulator

    count = 8192 // divisor
    simulator = Simulator()
    near = Interface("near", "00:00:00:00:00:01")
    far = Interface("far", "00:00:00:00:00:02")
    far.delivery_override = _noop
    Link(simulator, bandwidth_bps=10e9, delay_s=1e-4, max_queue_packets=count).attach(near, far)

    def rep() -> Tuple[float, int]:
        packets = _udp_packets(count)
        started = time.perf_counter()
        for packet in packets:
            near.send(packet)
        simulator.run()
        return time.perf_counter() - started, count

    return _median_rate(rep, reps)


def _switch_pps(fastpath: bool, reps: int, count: int) -> float:
    """A bare two-port ``SoftwareSwitch``: port 1 in, one rule, port 2 a sink."""
    from repro.netem.flowtable import Action, Match
    from repro.netem.host import Interface
    from repro.netem.simulator import Simulator
    from repro.netem.switch import SoftwareSwitch

    simulator = Simulator()
    switch = SoftwareSwitch(simulator, "probe-switch", fastpath_enabled=fastpath)
    ingress = Interface("in", "00:00:00:00:01:01")
    egress = Interface("out", "00:00:00:00:01:02")
    switch.add_port(ingress, port_number=1)
    switch.add_port(egress, port_number=2)
    # The egress interface has no link: replacing its senders makes it a sink,
    # so the figure covers the switch alone (the E6 station-rig idiom).
    egress.send = lambda packet: True
    egress.send_batch = len
    switch.flow_table.add(100, Match(in_port=1), [Action.output(2)])
    batch = 64

    def drive(packets) -> None:
        for offset in range(0, len(packets), batch):
            wave = packets[offset : offset + batch]
            if fastpath:
                switch.receive_batch(wave, ingress)
            else:
                for packet in wave:
                    switch.receive_packet(packet, ingress)
            simulator.run()

    drive(_udp_packets(batch))  # fill the microflow cache / MAC table

    def rep() -> Tuple[float, int]:
        packets = _udp_packets(count)
        started = time.perf_counter()
        drive(packets)
        return time.perf_counter() - started, count

    return _median_rate(rep, reps)


def switch_fast_pps(reps: int, divisor: int) -> float:
    return _switch_pps(True, reps, 8192 // divisor)


def switch_slow_pps(reps: int, divisor: int) -> float:
    return _switch_pps(False, reps, 4096 // divisor)


def packet_build(reps: int, divisor: int) -> float:
    count = 16_384 // divisor

    def rep() -> Tuple[float, int]:
        started = time.perf_counter()
        _udp_packets(count)
        return time.perf_counter() - started, count

    return _median_rate(rep, reps)


# ------------------------------------------------------------------ fluid core


def fluid_solves(reps: int, divisor: int) -> float:
    """``FluidSolver.max_min_rates`` on 2000 flows x 16 links, each flow on 3."""
    import numpy as np

    from repro.netem.fluid import FluidSolver

    flows, links = 2000 // divisor, 16
    rng = np.random.default_rng(0)
    membership = np.zeros((links, flows), dtype=bool)
    for flow in range(flows):
        membership[rng.choice(links, size=3, replace=False), flow] = True
    capacities = rng.uniform(50e6, 200e6, size=links)
    demands = rng.uniform(0.5e6, 2e6, size=flows)
    solves = 4

    def rep() -> Tuple[float, int]:
        started = time.perf_counter()
        for _ in range(solves):
            FluidSolver.max_min_rates(capacities, membership, demands)
        return time.perf_counter() - started, solves

    return _median_rate(rep, reps)


# --------------------------------------------------------------------- the NFs


def _nf_pps(nf_type: str, reps: int, divisor: int, **config) -> float:
    """64-packet ``process_batch`` waves of upstream TCP (16 clients) through one NF."""
    from repro.netem.packet import make_tcp_packet
    from repro.nfs import NF_CATALOG
    from repro.nfs.base import Direction, ProcessingContext

    nf = NF_CATALOG[nf_type](**config)
    context = ProcessingContext(now=0.0, direction=Direction.UPSTREAM, client_ip=CLIENT_IP)
    count = 4096 // divisor
    template = [
        make_tcp_packet(
            f"10.10.0.{5 + index % 16}", SERVER_IP, 40_000 + index % 500, 80, payload_bytes=512
        )
        for index in range(count)
    ]
    return _median_rate(_batch_rep(nf, context, template), reps)


def _batch_rep(nf, context, template) -> Rep:
    def rep() -> Tuple[float, int]:
        # Fresh copies: several NFs rewrite headers in place.
        packets = [packet.copy() for packet in template]
        started = time.perf_counter()
        for offset in range(0, len(packets), 64):
            # 640 pps in aggregate: per-source histories (IDS windows, conntrack)
            # stay at the size a real client population gives them.
            context.now += 0.1
            nf.process_batch(packets[offset : offset + 64], context)
        return time.perf_counter() - started, len(packets)

    return rep


def nf_firewall(reps: int, divisor: int) -> float:
    return _nf_pps("firewall", reps, divisor)


def nf_nat(reps: int, divisor: int) -> float:
    return _nf_pps("nat", reps, divisor)


def nf_rate_limiter(reps: int, divisor: int) -> float:
    # High limits: the limiter's datapath runs without policing the burst away.
    return _nf_pps("rate-limiter", reps, divisor, rate_bps=1e9, burst_bytes=1e9)


def nf_ids(reps: int, divisor: int) -> float:
    return _nf_pps("ids", reps, divisor)


def _http_requests(count: int, urls: int = 32):
    from repro.netem.packet import make_http_request

    return [
        make_http_request(
            CLIENT_IP, SERVER_IP, host=f"site{index % urls}.example.com",
            path=f"/object/{index % urls}", src_port=49_152 + index % 500,
        )
        for index in range(count)
    ]


def nf_http_filter(reps: int, divisor: int) -> float:
    from repro.nfs import NF_CATALOG
    from repro.nfs.base import Direction, ProcessingContext

    nf = NF_CATALOG["http-filter"](
        blocked_hosts=["site3.example.com"], blocked_url_substrings=["/object/7"]
    )
    context = ProcessingContext(now=0.0, direction=Direction.UPSTREAM, client_ip=CLIENT_IP)
    return _median_rate(_batch_rep(nf, context, _http_requests(4096 // divisor)), reps)


def nf_cache(reps: int, divisor: int) -> float:
    """Requests for 32 warm objects: every packet is an edge-cache hit."""
    from repro.netem.packet import make_http_response
    from repro.nfs import NF_CATALOG
    from repro.nfs.base import Direction, ProcessingContext

    nf = NF_CATALOG["cache"]()
    upstream = ProcessingContext(now=0.0, direction=Direction.UPSTREAM, client_ip=CLIENT_IP)
    downstream = ProcessingContext(now=0.0, direction=Direction.DOWNSTREAM, client_ip=CLIENT_IP)
    for request in _http_requests(32):
        nf.process(request, upstream)
        nf.process(make_http_response(request), downstream)
    return _median_rate(_batch_rep(nf, upstream, _http_requests(4096 // divisor)), reps)


# --------------------------------------------------------------- control plane


def _heartbeat_rate(sharded: bool, reps: int, divisor: int) -> float:
    """Network-wide heartbeat waves through the real control transport.

    One real Agent per station is registered (then stopped, so no periodic
    task runs inside the timing); pre-built heartbeats are fired through
    ``ControlChannel.sender`` (single Manager) or ``ControlBus.heartbeat_sink``
    (8 shards) and the simulator is run dry after each wave.
    """
    from repro.core.agent import GNFAgent
    from repro.core.api import AgentHeartbeat
    from repro.core.manager import GNFManager
    from repro.core.repository import NFRepository
    from repro.core.sharding import ShardedManager
    from repro.netem.simulator import Simulator
    from repro.netem.topology import EdgeTopology, TopologyConfig

    stations = max(8, 256 // divisor)
    simulator = Simulator()
    topology = EdgeTopology(simulator, TopologyConfig(station_count=stations))
    repository = NFRepository.with_default_catalog()
    if sharded:
        manager = ShardedManager(
            simulator, shard_count=8, station_count=stations, repository=repository, topology=topology
        )
    else:
        manager = GNFManager(simulator, repository=repository, topology=topology)
    senders = []
    for name, station in topology.stations.items():
        agent = GNFAgent(simulator, station, repository)
        channel = manager.register_agent(agent)
        agent.stop()
        if sharded:
            send = manager.bus.heartbeat_sink(
                manager.shard_map.shard_for(name), channel.latency_s, channel
            )
        else:
            send = channel.sender(manager.receive_heartbeat)
        heartbeat = AgentHeartbeat(
            station_name=name, time=0.0, resources=agent.runtime.utilization(),
            switch={}, nf_stats={}, connected_clients=[],
        )
        senders.append((send, heartbeat))
    simulator.run()
    waves = 32

    def rep() -> Tuple[float, int]:
        before = manager.heartbeats_processed
        started = time.perf_counter()
        for _ in range(waves):
            for send, heartbeat in senders:
                send(heartbeat)
            simulator.run()
        return time.perf_counter() - started, manager.heartbeats_processed - before

    return _median_rate(rep, reps)


def manager_heartbeats(reps: int, divisor: int) -> float:
    return _heartbeat_rate(False, reps, divisor)


def sharding_heartbeats(reps: int, divisor: int) -> float:
    return _heartbeat_rate(True, reps, divisor)


def placement_decisions(reps: int, divisor: int) -> float:
    """``PlacementEngine.place`` (least-loaded) over 64 synthetic ``StationView``s."""
    from repro.core.chain import ServiceChain
    from repro.core.placement import PlacementEngine, StationView, make_strategy
    from repro.core.repository import NFRepository
    from repro.netem.simulator import Simulator

    simulator = Simulator()
    engine = PlacementEngine(
        simulator, strategy=make_strategy("least-loaded"),
        repository=NFRepository.with_default_catalog(),
    )
    rng = random.Random(0)
    views = [
        StationView(
            name=f"station-{index + 1}",
            free_memory_mb=rng.uniform(32.0, 96.0),
            memory_utilization=rng.uniform(0.1, 0.9),
            running_nfs=rng.randrange(8),
            control_latency_s=0.002 + 0.0001 * index,
            client_latency_s=0.001 * abs(index - 32),
            allocatable_memory_mb=128.0,
        )
        for index in range(64)
    ]
    chain = ServiceChain.of("firewall", "flow-monitor")
    decisions = 512 // divisor

    def rep() -> Tuple[float, int]:
        started = time.perf_counter()
        for index in range(decisions):
            if index % 64 == 0:
                # Let the pending-commitment ledger expire, as heartbeats would.
                simulator.run(until=simulator.now + engine.pending_ttl_s + 1.0)
            engine.place(f"station-{index % 64 + 1}", views, chain)
        return time.perf_counter() - started, decisions

    return _median_rate(rep, reps)


def container_lifecycles(reps: int, divisor: int) -> float:
    """create -> start -> stop -> destroy on one ``ContainerRuntime``, 32 at a time."""
    from repro.containers.cgroups import ResourceAccount
    from repro.containers.image import ImageRegistry, default_nf_images
    from repro.containers.runtime import ContainerRuntime
    from repro.netem.simulator import Simulator

    simulator = Simulator()
    registry = ImageRegistry()
    for image in default_nf_images():
        registry.push(image)
    runtime = ContainerRuntime(
        simulator, "probe-rt", ResourceAccount(cpu_mhz=3000, memory_mb=65_536), registry=registry
    )
    image, _ = runtime.ensure_image("gnf/firewall")
    lifecycles = max(32, 2048 // divisor)
    serial = [0]

    def rep() -> Tuple[float, int]:
        started = time.perf_counter()
        for _ in range(lifecycles // 32):
            containers = []
            for _ in range(32):
                serial[0] += 1
                container = runtime.create(image, f"fw-{serial[0]}")
                runtime.start(container)
                containers.append(container)
            simulator.run()
            for container in containers:
                runtime.stop(container)
            simulator.run()
            for container in containers:
                runtime.destroy(container)
        return time.perf_counter() - started, lifecycles

    return _median_rate(rep, reps)


def digest_computes(reps: int, divisor: int) -> float:
    """``MetricsDigest.compute`` on a telemetry-shaped tree (64 stations, 256 workloads)."""
    from repro.scenarios import MetricsDigest

    rng = random.Random(0)
    stations = {
        f"station-{index + 1}": {
            "switch": {f"counter{c}": rng.randrange(10_000) for c in range(10)},
            "fastpath": {f"stat{c}": rng.random() for c in range(9)},
            "connected_clients": [f"10.10.0.{c}" for c in range(4)],
        }
        for index in range(64)
    }
    workloads = {
        f"client-{index}/cbr0": {
            "stats": {f"stat{c}": rng.random() for c in range(5)},
            "rtt_samples": [rng.random() for _ in range(64 // divisor)],
        }
        for index in range(256)
    }
    sections = {"stations": stations, "workloads": workloads, "simulator": {"now": 60.0}}
    computes = 4

    def rep() -> Tuple[float, int]:
        started = time.perf_counter()
        for _ in range(computes):
            MetricsDigest.compute(sections)
        return time.perf_counter() - started, computes

    return _median_rate(rep, reps)


def wireless_scans(reps: int, divisor: int) -> float:
    """``HandoverManager.scan`` rounds over 64 cells x 128 static clients."""
    from repro.core.testbed import GNFTestbed, TestbedConfig

    stations = max(4, 64 // divisor)
    testbed = GNFTestbed(TestbedConfig(station_count=stations))
    for index in range(stations * 2):
        position = ((index % stations) * testbed.config.station_spacing_m, 0.0)
        testbed.add_client(f"probe-{index}", position=position)
    testbed.start()
    testbed.run(1.0)
    scans = 16

    def rep() -> Tuple[float, int]:
        started = time.perf_counter()
        for _ in range(scans):
            testbed.handover.scan()
        return time.perf_counter() - started, scans

    try:
        return _median_rate(rep, reps)
    finally:
        testbed.stop()


PROBES: Dict[str, Callable[[int, int], float]] = {
    "netem.simulator.probe_events_per_s": simulator_events,
    "netem.simulator.probe_deep_events_per_s": simulator_deep_events,
    "netem.link.probe_pps": link_pps,
    "netem.switch.probe_fast_pps": switch_fast_pps,
    "netem.switch.probe_slow_pps": switch_slow_pps,
    "netem.packet.probe_build_per_s": packet_build,
    "netem.fluid.probe_solves_per_s": fluid_solves,
    "nfs.firewall.probe_pps": nf_firewall,
    "nfs.nat.probe_pps": nf_nat,
    "nfs.rate-limiter.probe_pps": nf_rate_limiter,
    "nfs.ids.probe_pps": nf_ids,
    "nfs.http-filter.probe_pps": nf_http_filter,
    "nfs.cache.probe_pps": nf_cache,
    "core.manager.probe_heartbeats_per_s": manager_heartbeats,
    "core.sharding.probe_heartbeats_per_s": sharding_heartbeats,
    "core.placement.probe_decisions_per_s": placement_decisions,
    "containers.probe_lifecycles_per_s": container_lifecycles,
    "scenarios.digest.probe_computes_per_s": digest_computes,
    "wireless.probe_scans_per_s": wireless_scans,
}


def run_probes(scale: str = "full") -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Every probe's rate, or ``None`` plus the reason it was skipped."""
    reps, divisor = _SCALES[scale]
    values: Dict[str, Optional[float]] = {}
    skipped: Dict[str, str] = {}
    for name, probe in PROBES.items():
        try:
            values[name] = probe(reps, divisor)
        except Exception as exc:  # noqa: BLE001 - a probe must degrade, never crash the run
            values[name] = None
            skipped[name] = f"{type(exc).__name__}: {exc}"
    return values, skipped
