"""E6 -- NF packet-processing throughput and chain-length overhead.

Paper claim: containers provide "high throughput and low resource
utilization".  The first part is a true micro-benchmark (wall-clock packets
per second through each NF's processing path); the second part measures, in
simulated time, how end-to-end request latency grows with the length of the
chain installed on a router-class station.

The fast-path section drives the same station datapath (switch + firewall +
rate-limiter chain) packet by packet with the flow cache off and on and
asserts the simulator events each leg costs as exact integers: ``2k + 1``
per packet through a ``k``-NF chain without the cache, ``k`` per packet plus
``k + 1`` per first-packet-of-flow miss with it.  Wall-clock packets/sec is a
reported column only; the rate itself is measured by the perf probes
``netem.switch.probe_fast_pps`` / ``probe_slow_pps``.
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import record_result, run_once

from repro.analysis.report import ExperimentResult
from repro.analysis.stats import mean
from repro.core.chain import NFSpec, ServiceChain
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem import packet as pkt
from repro.netem.trafficgen import CBRTrafficGenerator
from repro.nfs import NF_CATALOG
from repro.nfs.base import Direction, ProcessingContext

CLIENT = "10.10.0.5"
SERVER = "10.30.0.2"
PACKETS_PER_BATCH = 2000

_nf_throughput_rows = []


def _build_nf(nf_type: str):
    nf_class = NF_CATALOG[nf_type]
    if nf_type == "dns-loadbalancer":
        return nf_class(pools={"cdn.example.com": ["198.18.0.1", "198.18.0.2"]})
    if nf_type == "load-balancer":
        return nf_class(backends=["10.30.0.11", "10.30.0.12"])
    if nf_type == "rate-limiter":
        return nf_class(rate_bps=1e9, burst_bytes=1e9)
    return nf_class()


def _packet_batch():
    return [
        pkt.make_tcp_packet(CLIENT, SERVER, 40000 + (index % 500), 80, payload_bytes=512)
        for index in range(PACKETS_PER_BATCH)
    ]


@pytest.mark.parametrize("nf_type", sorted(NF_CATALOG))
def test_e6_per_nf_forwarding_rate(benchmark, nf_type):
    """Wall-clock packets/second through each NF's processing path."""
    nf = _build_nf(nf_type)
    batch = _packet_batch()
    context = ProcessingContext(now=0.0, direction=Direction.UPSTREAM, client_ip=CLIENT)

    def process_batch():
        # Each round processes fresh copies: several NFs (NAT, DNS LB) rewrite
        # headers in place, and re-feeding mutated packets would distort the
        # measurement (and exhaust NAT port bindings).
        for index, packet in enumerate(batch):
            context.now = index * 1e-4
            nf.process(packet.copy(), context)

    benchmark(process_batch)
    pps = PACKETS_PER_BATCH / benchmark.stats.stats.mean
    _nf_throughput_rows.append([nf_type, pps, nf.per_packet_cpu_us])
    assert nf.packets_in >= PACKETS_PER_BATCH


def _chain_latency(chain_length: int):
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    phone = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    if chain_length:
        chain = ServiceChain.of(*(["firewall", "flow-monitor", "rate-limiter", "ids"][:chain_length]))
        testbed.manager.attach_chain(phone.ip, chain)
        testbed.run(6.0)
    probe = CBRTrafficGenerator(testbed.simulator, phone, server_ip=testbed.server_ip, rate_pps=50)
    probe.start()
    testbed.run(10.0)
    probe.stop()
    return mean(probe.rtts), testbed.simulator.now


def _run_chain_sweep():
    rows = []
    sim_seconds = 0.0
    started = time.perf_counter()
    for length in range(0, 5):
        rtt, sim_now = _chain_latency(length)
        rows.append([length, rtt])
        sim_seconds += sim_now
    wall_s = time.perf_counter() - started
    return rows, sim_seconds / wall_s if wall_s > 0 else 0.0


def _station_chain() -> ServiceChain:
    # High limits so the limiter's datapath runs without policing the
    # synthetic burst away.
    return ServiceChain(
        [
            NFSpec("firewall"),
            NFSpec("rate-limiter", config={"rate_bps": 1e9, "burst_bytes": 1e9}),
        ]
    )


def _build_station_rig(fastpath_enabled: bool):
    """A one-station testbed with a firewall + rate-limiter chain deployed.

    The uplink interface is replaced by a sink so the measurement covers
    exactly the station datapath (switch traversals + NF chain), not the
    gateway/core round trip.
    """
    testbed = GNFTestbed(TestbedConfig(station_count=1, fastpath_enabled=fastpath_enabled))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    testbed.manager.attach_chain(client.ip, _station_chain())
    testbed.run(6.0)
    station = testbed.topology.station("station-1")
    switch = station.switch
    uplink_iface = switch.ports[station.uplink_port].interface
    sunk = []

    def sink_one(packet):
        sunk.append(packet)
        return True

    uplink_iface.send = sink_one
    cell_port = next(iter(station.cell_ports.values()))
    cell_iface = switch.ports[cell_port].interface
    return testbed, client, switch, cell_iface, sunk


def _drive_station_datapath(
    fastpath_enabled: bool,
    waves: int = 128,
    wave_size: int = 64,
    flows: int = 64,
):
    """Push ``waves`` bursts of upstream client traffic through the station chain.

    Each wave is followed by a 10 ms simulated window; ``wave_size=0`` walks
    the same windows with no traffic, which is how the background events
    (heartbeats, collector samples) of those windows are measured.
    """
    testbed, client, switch, cell_iface, sunk = _build_station_rig(fastpath_enabled)
    bursts = [
        [
            pkt.make_udp_packet(
                src_ip=client.ip,
                dst_ip=testbed.server_ip,
                src_port=40_000 + (wave * wave_size + index) % flows,
                dst_port=9000,
                payload_bytes=500,
                src_mac=client.mac,
            )
            for index in range(wave_size)
        ]
        for wave in range(waves)
    ]

    events_before = testbed.simulator.events_processed
    started = time.perf_counter()
    for burst in bursts:
        for packet in burst:
            switch.receive_packet(packet, cell_iface)
        testbed.run(0.01)
    wall_s = time.perf_counter() - started
    packets = waves * wave_size
    return {
        "packets": packets,
        "pps": packets / wall_s,
        "events": testbed.simulator.events_processed - events_before,
        "delivered": len(sunk),
        "hit_rate": switch.flow_cache.hit_rate,
    }


def test_e6_fastpath_speedup(record_experiment):
    """The flow cache takes a k-NF chain from 2k+1 to k simulator events per packet.

    Both legs run the same per-packet loop; only ``fastpath_enabled``
    differs.  What is asserted repeats exactly on any host: delivery, hit
    rate and the event count of each leg.
    """
    flows = 64
    chain = _station_chain()
    chain_length = len(chain)
    legs = {}
    for fastpath in (False, True):
        leg = _drive_station_datapath(fastpath, flows=flows)
        leg["background"] = _drive_station_datapath(fastpath, wave_size=0)["events"]
        legs[fastpath] = leg
    slow_path, fast_path = legs[False], legs[True]
    packets = slow_path["packets"]

    result = ExperimentResult(
        experiment_id="E6-fastpath",
        title="Dataplane fast path: flow-cached vs per-packet slow path",
        headers=["configuration", "packets/sec", "events/packet", "cache hit rate"],
        paper_claim="GNF processes traffic at line rate on edge hardware",
        notes=(
            f"station switch + {'/'.join(chain.nf_types)} chain, {packets} packets in {flows} flows; "
            f"{slow_path['events']} vs {fast_path['events']} simulator events "
            f"({slow_path['background']} of each are background timers)"
        ),
    )
    result.add_row("fastpath off", slow_path["pps"], slow_path["events"] / packets, 0.0)
    result.add_row("fastpath on", fast_path["pps"], fast_path["events"] / packets, fast_path["hit_rate"])
    record_experiment(result)

    # Every injected packet made it through the chain in both configurations.
    assert slow_path["delivered"] == fast_path["delivered"] == packets
    assert fast_path["hit_rate"] > 0.9
    # Without the cache every switch traversal (k+1) and every NF (k) is one
    # event; with it only the NFs are, plus the k+1 misses of each flow's
    # first packet.
    assert slow_path["events"] == packets * (2 * chain_length + 1) + slow_path["background"]
    assert fast_path["events"] == (
        packets * chain_length + flows * (chain_length + 1) + fast_path["background"]
    )


def test_e6_chain_length_latency_overhead(benchmark, record_experiment):
    rows, sim_per_wall = run_once(benchmark, _run_chain_sweep)
    result = ExperimentResult(
        experiment_id="E6",
        title="Dataplane: per-NF forwarding rate and chain-length latency overhead",
        headers=["chain length (NFs)", "mean probe RTT (s)"],
        paper_claim="Container NFs provide high throughput with low per-packet overhead",
        notes=(
            f"sim-time/wall-time ratio {sim_per_wall:.1f}x across the probe sweep; "
            "RTT measured through a router-class station; the per-NF forwarding-rate "
            "micro-benchmarks are reported by pytest-benchmark in this module"
        ),
    )
    for row in rows:
        result.add_row(*row)
    if _nf_throughput_rows:
        result.notes += "; wall-clock forwarding rates (pps): " + ", ".join(
            f"{name}={rate:,.0f}" for name, rate, _ in sorted(_nf_throughput_rows)
        )
    record_experiment(result)

    baseline_rtt = rows[0][1]
    longest_rtt = rows[-1][1]
    # Chains add overhead, but it stays within the same order of magnitude as
    # the bare path (the "lightweight" claim).
    assert longest_rtt >= baseline_rtt
    assert longest_rtt < 3 * baseline_rtt
