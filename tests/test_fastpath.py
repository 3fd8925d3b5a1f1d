"""Tests for the flow-cached forwarding fast path.

Covers the layers the fast path spans: the netem cache machinery (FlowKey,
FlowCache, generation invalidation), the switch integration
(cache-before-table, event reduction, exact events per packet through a
chain), back-to-back bursts on a link, the ``receive_batch`` /
``process_batch`` loops and their parity with the per-packet path, and the
telemetry export of the hit-rate counters.
"""

from __future__ import annotations

import pytest

from repro.core.chain import ServiceChain
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem import packet as pkt
from repro.netem.fastpath import CompiledVerdict, FlowCache, FlowKey
from repro.netem.flowtable import Action, ActionType, FlowTable, Match
from repro.netem.host import Host, Interface
from repro.netem.link import Link
from repro.netem.simulator import Simulator
from repro.netem.switch import SoftwareSwitch
from repro.netem.trafficgen import CBRTrafficGenerator
from repro.nfs.base import Direction, ProcessingContext
from repro.nfs.firewall import Firewall, FirewallAction, FirewallRule
from repro.nfs.rate_limiter import RateLimiter
from repro.telemetry.export import snapshot_to_json


def tcp_packet(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80, payload=100):
    return pkt.make_tcp_packet(src, dst, sport, dport, payload_bytes=payload)


# --------------------------------------------------------------------------
# FlowKey
# --------------------------------------------------------------------------


def test_flow_key_stable_for_same_flow():
    a = FlowKey.extract(tcp_packet(), in_port=1)
    b = FlowKey.extract(tcp_packet(), in_port=1)
    assert a == b
    assert hash(a) == hash(b)


def test_flow_key_differs_across_ports_and_headers():
    base = FlowKey.extract(tcp_packet(), in_port=1)
    assert FlowKey.extract(tcp_packet(), in_port=2) != base
    assert FlowKey.extract(tcp_packet(sport=1001), in_port=1) != base
    assert FlowKey.extract(tcp_packet(dst="10.0.0.9"), in_port=1) != base


def test_flow_key_folds_only_referenced_metadata():
    packet = tcp_packet()
    packet.metadata["gnf_dir"] = "up"
    packet.metadata["probe_seq"] = 42  # unrelated metadata must not fragment keys
    with_meta = FlowKey.extract(packet, 1, ("gnf_dir",))
    assert with_meta.metadata == (("gnf_dir", "up"),)
    clean = FlowKey.extract(tcp_packet(), 1, ("gnf_dir",))
    assert clean.metadata == (("gnf_dir", None),)
    assert with_meta != clean


# --------------------------------------------------------------------------
# FlowCache
# --------------------------------------------------------------------------


def make_verdict(generation=0, port=2):
    table = FlowTable()
    rule = table.add(10, Match(), [Action.output(port)])
    return CompiledVerdict(rule, generation)


def test_cache_hit_and_miss_counters():
    cache = FlowCache()
    key = FlowKey.extract(tcp_packet(), 1)
    assert cache.lookup(key, 0) is None
    cache.store(key, make_verdict(generation=0))
    assert cache.lookup(key, 0) is not None
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_entry_self_invalidates_on_generation_change():
    cache = FlowCache()
    key = FlowKey.extract(tcp_packet(), 1)
    cache.store(key, make_verdict(generation=3))
    assert cache.lookup(key, 3) is not None
    assert cache.lookup(key, 4) is None  # table changed: entry must die
    assert cache.invalidations == 1
    assert len(cache) == 0


def test_cache_fifo_eviction_at_capacity():
    cache = FlowCache(capacity=2)
    keys = [FlowKey.extract(tcp_packet(sport=1000 + i), 1) for i in range(3)]
    for key in keys:
        cache.store(key, make_verdict())
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.lookup(keys[0], 0) is None  # oldest entry was evicted


def test_cache_flush_ip_targets_only_that_client():
    cache = FlowCache()
    client_key = FlowKey.extract(tcp_packet(src="10.10.0.5"), 1)
    other_key = FlowKey.extract(tcp_packet(src="10.10.0.6"), 1)
    cache.store(client_key, make_verdict())
    cache.store(other_key, make_verdict())
    assert cache.flush_ip("10.10.0.5") == 1
    assert cache.lookup(other_key, 0) is not None
    assert cache.lookup(client_key, 0) is None


def test_cache_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        FlowCache(capacity=0)


def test_flowtable_generation_bumps_on_mutation():
    table = FlowTable()
    start = table.generation
    rule = table.add(10, Match(metadata=(("gnf_dir", "up"),)), [Action.output(1)])
    assert table.generation == start + 1
    assert table.referenced_metadata_keys == ("gnf_dir",)
    table.remove_rule(rule.rule_id)
    assert table.generation == start + 2
    assert table.referenced_metadata_keys == ()
    # No-op removals must not invalidate caches.
    table.remove_rule(rule.rule_id)
    assert table.generation == start + 2


# --------------------------------------------------------------------------
# Switch integration
# --------------------------------------------------------------------------


class Sink:
    def __init__(self):
        self.packets = []

    def send(self, packet):
        self.packets.append(packet)
        return True


def build_switch(simulator, fastpath=True, forwarding_delay_s=0.0, port_count=3):
    switch = SoftwareSwitch(
        simulator, "sw", forwarding_delay_s=forwarding_delay_s, fastpath_enabled=fastpath
    )
    sinks = {}
    for number in range(1, port_count + 1):
        iface = Interface(f"port{number}", mac=f"02:00:00:00:00:{number:02x}")
        switch.add_port(iface)
        sink = Sink()
        iface.send = sink.send
        sinks[number] = sink
    return switch, sinks


def test_second_packet_hits_the_cache(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    for _ in range(3):
        switch.receive_packet(tcp_packet(), switch.ports[1].interface)
        simulator.run()
    assert len(sinks[2].packets) == 3
    assert switch.flow_cache.hits == 2
    assert switch.flow_cache.misses == 1


def test_cache_hit_skips_forwarding_delay_event(simulator):
    switch, sinks = build_switch(simulator, forwarding_delay_s=0.001)
    switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    packets = 20
    for _ in range(packets):
        switch.receive_packet(tcp_packet(), switch.ports[1].interface)
        simulator.run()
    # Only the first (miss) packet needed the scheduled slow-path event.
    assert simulator.events_processed == 1
    assert len(sinks[2].packets) == packets
    assert switch.flow_cache.hits == packets - 1


def test_fastpath_off_pays_one_event_per_packet(simulator):
    switch, sinks = build_switch(simulator, fastpath=False, forwarding_delay_s=0.001)
    switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    packets = 20
    for _ in range(packets):
        switch.receive_packet(tcp_packet(), switch.ports[1].interface)
        simulator.run()
    assert simulator.events_processed == packets
    assert switch.flow_cache.hits == 0 and switch.flow_cache.misses == 0


def test_cached_verdict_keeps_rule_counters_accurate(simulator):
    switch, _ = build_switch(simulator)
    rule = switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    for _ in range(4):
        switch.receive_packet(tcp_packet(), switch.ports[1].interface)
        simulator.run()
    assert rule.packets_matched == 4


def test_rule_install_invalidates_cached_verdict(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(10, Match(ip_src="10.0.0.1"), [Action.output(2)])
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)
    simulator.run()
    assert len(sinks[2].packets) == 1
    # A higher-priority drop rule lands: the cached output verdict must die.
    switch.flow_table.add(200, Match(ip_src="10.0.0.1"), [Action.drop()])
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)
    simulator.run()
    assert len(sinks[2].packets) == 1
    assert switch.packets_dropped == 1
    assert switch.flow_cache.invalidations >= 1


def test_rule_removal_invalidates_cached_verdict(simulator):
    switch, sinks = build_switch(simulator)
    rule = switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(3)])
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)
    simulator.run()
    assert len(sinks[3].packets) == 1
    switch.flow_table.remove_rule(rule.rule_id)
    # Without the rule the packet falls back to flooding, not the stale port 3.
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)
    simulator.run()
    assert len(sinks[3].packets) == 2  # via flood
    assert len(sinks[2].packets) == 1  # flooded copy proves fallback ran
    assert switch.packets_flooded == 1


def test_fastpath_matches_slow_path_for_metadata_and_rewrites():
    """Every supported action must replay identically from the cache."""
    outcomes = {}
    for fastpath in (False, True):
        simulator = Simulator()
        switch, sinks = build_switch(simulator, fastpath=fastpath)
        switch.flow_table.add(
            100,
            Match(in_port=1),
            [
                Action.set_metadata("gnf_dir", "up"),
                Action(ActionType.SET_IP_DST, "99.9.9.9"),
                Action.output(2),
            ],
        )
        for _ in range(3):
            switch.receive_packet(tcp_packet(), switch.ports[1].interface)
            simulator.run()
        outcomes[fastpath] = [
            (p.metadata.get("gnf_dir"), p.ip.dst) for p in sinks[2].packets
        ]
    assert outcomes[True] == outcomes[False] == [("up", "99.9.9.9")] * 3


def test_receive_batch_matches_per_packet_outputs(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    # Warm the cache, then feed a batch.
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)
    simulator.run()
    switch.receive_batch([tcp_packet() for _ in range(10)], switch.ports[1].interface)
    simulator.run()
    assert len(sinks[2].packets) == 11
    assert switch.packets_forwarded == 11
    assert switch.ports[1].stats.rx_packets == 11


def test_receive_batch_replays_complex_verdicts_from_cache(simulator):
    """Drop / field-rewrite verdicts are served from the cache in batch mode."""
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.drop()])
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)  # compile verdict
    simulator.run()
    switch.receive_batch([tcp_packet() for _ in range(5)], switch.ports[1].interface)
    simulator.run()
    assert switch.packets_dropped == 6
    assert switch.flow_cache.hits == 5
    assert all(not sink.packets for sink in sinks.values())


def test_receive_batch_survives_unhashable_metadata_action(simulator):
    """A SET_METADATA action with an unhashable value must not crash a batch."""
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(
        100,
        Match(ip_src="10.0.0.1"),
        [Action.set_metadata("tag", ["unhashable"]), Action.output(2)],
    )
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)
    simulator.run()
    switch.receive_batch([tcp_packet() for _ in range(4)], switch.ports[1].interface)
    simulator.run()
    assert len(sinks[2].packets) == 5
    assert all(p.metadata["tag"] == ["unhashable"] for p in sinks[2].packets)


def test_receive_batch_slow_path_for_misses(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    batch = [tcp_packet(), tcp_packet(src="10.0.0.7"), tcp_packet()]
    switch.receive_batch(batch, switch.ports[1].interface)
    simulator.run()
    # The two 10.0.0.1 packets go to port 2 (one via slow path that compiles
    # the verdict, one possibly cached); the unknown source floods.
    assert len(sinks[2].packets) >= 2
    assert switch.packets_flooded == 1


def test_deferred_hit_preserves_per_port_fifo(simulator):
    """Hits must not overtake same-port packets still deferred in the slow path."""
    switch, sinks = build_switch(simulator, forwarding_delay_s=0.001)
    switch.flow_table.add(100, Match(in_port=1), [Action.output(2)])
    for seq in range(4):
        packet = tcp_packet()
        packet.metadata["seq"] = seq
        simulator.schedule(seq * 0.0002, switch.receive_packet, packet, switch.ports[1].interface)
    simulator.run()
    delivered = [packet.metadata["seq"] for packet in sinks[2].packets]
    assert delivered == [0, 1, 2, 3]


def test_stale_verdict_not_replayed_from_deferral_window(simulator):
    """A rule change inside the deferral window invalidates queued verdicts."""
    switch, sinks = build_switch(simulator, forwarding_delay_s=0.001)
    rule = switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    # Warm the cache for flow A.
    switch.receive_packet(tcp_packet(), switch.ports[1].interface)
    simulator.run()
    assert len(sinks[2].packets) == 1

    def open_window():
        # A miss (flow B) opens a slow-path window on port 1...
        switch.receive_packet(tcp_packet(src="10.0.0.9"), switch.ports[1].interface)
        # ...so this flow-A hit is deferred behind it.
        switch.receive_packet(tcp_packet(), switch.ports[1].interface)

    simulator.schedule(1.0, open_window)
    # Remove the rule before the deferred apply fires: the captured verdict
    # is stale and must NOT steer the packet to port 2.
    simulator.schedule(1.0005, switch.flow_table.remove_rule, rule.rule_id)
    simulator.run()
    # Both windowed packets fell back to flooding (copies on ports 2 AND 3)
    # instead of flow A's packet replaying the stale unicast-to-port-2 verdict.
    assert switch.packets_flooded == 2
    assert len(sinks[3].packets) == 2
    assert len(sinks[2].packets) == 3  # the warm unicast + two flooded copies
    assert switch.packets_forwarded == 1  # no unicast after the rule removal


# --------------------------------------------------------------------------
# Exact events per packet through a station chain
# --------------------------------------------------------------------------


def _station_chain_events(chain_length, fastpath, packets):
    """Simulator events one 10 ms window costs with ``packets`` same-flow packets in it.

    One station, a pass-through chain of ``chain_length`` NFs, the uplink
    replaced by a sink, the flow warmed by one packet before the window.
    """
    testbed = GNFTestbed(TestbedConfig(station_count=1, fastpath_enabled=fastpath))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    chain = ServiceChain.of(*["flow-monitor", "firewall"][:chain_length])
    testbed.manager.attach_chain(client.ip, chain)
    testbed.run(6.0)
    station = testbed.topology.station("station-1")
    switch = station.switch
    sink = Sink()
    switch.ports[station.uplink_port].interface.send = sink.send
    cell_iface = switch.ports[next(iter(station.cell_ports.values()))].interface

    def inject(count):
        for _ in range(count):
            packet = pkt.make_udp_packet(
                client.ip, testbed.server_ip, 40_000, 9000, payload_bytes=500, src_mac=client.mac
            )
            switch.receive_packet(packet, cell_iface)

    inject(1)
    testbed.run(0.01)
    before = testbed.simulator.events_processed
    inject(packets)
    testbed.run(0.01)
    assert len(sink.packets) == 1 + packets  # every packet crossed the whole chain
    return testbed.simulator.events_processed - before


@pytest.mark.parametrize("chain_length", [1, 2])
def test_station_chain_costs_exact_events_per_packet(chain_length):
    """k events per packet on a cache hit, 2k+1 without the cache -- exactly.

    Each NF schedules one processing-delay event; without the cache each of
    the k+1 switch traversals adds one forwarding-delay event; veth crossings
    are direct calls.  The same window with no packets in it is subtracted,
    so periodic timers (heartbeat, collector, radio scan) cannot leak in.
    """
    packets = 50
    for fastpath, per_packet in ((True, chain_length), (False, 2 * chain_length + 1)):
        background = _station_chain_events(chain_length, fastpath, 0)
        loaded = _station_chain_events(chain_length, fastpath, packets)
        assert loaded - background == packets * per_packet


# --------------------------------------------------------------------------
# Back-to-back bursts on a link
# --------------------------------------------------------------------------


class Recorder(Host):
    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.packets = []
        self.arrivals = []

    def handle_packet(self, packet, interface):
        self.packets.append(packet)
        self.arrivals.append(self.simulator.now)


def wire_hosts(simulator, **link_kwargs):
    a = Recorder(simulator, "a")
    b = Recorder(simulator, "b")
    a_iface = a.add_interface(Interface("a0", mac="02:00:00:00:00:01", ip="10.0.0.1"))
    b_iface = b.add_interface(Interface("b0", mac="02:00:00:00:00:02", ip="10.0.0.2"))
    link = Link(simulator, **link_kwargs)
    link.attach(a_iface, b_iface)
    return a, b, link


def test_transmit_batch_single_event_same_arrival_as_tail_packet(simulator):
    """A burst sent at one instant costs one event per packet, serialized back to back."""
    a, b, link = wire_hosts(simulator, bandwidth_bps=1e6, delay_s=0.01)
    packets = [pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=500) for _ in range(10)]
    assert all(a.primary_interface.send(packet) for packet in packets)
    before = simulator.events_processed
    simulator.run()
    assert simulator.events_processed - before == len(packets)
    assert b.packets == packets
    # Packet i arrives when its own last bit has propagated; the tail at N x.
    serialization = link.serialization_delay(packets[0].size_bytes)
    assert b.arrivals == pytest.approx(
        [(index + 1) * serialization + 0.01 for index in range(len(packets))]
    )
    assert simulator.now == b.arrivals[-1]


def test_transmit_batch_respects_queue_limit_and_stats(simulator):
    a, b, link = wire_hosts(simulator, bandwidth_bps=1e9, delay_s=0.0, max_queue_packets=4)
    packets = [pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2) for _ in range(6)]
    accepted = [a.primary_interface.send(packet) for packet in packets]
    simulator.run()
    assert accepted == [True] * 4 + [False] * 2
    assert b.packets == packets[:4]
    stats = link.stats(a.primary_interface)
    assert stats.dropped_packets == 2
    assert stats.dropped_bytes == sum(packet.size_bytes for packet in packets[4:])
    assert stats.tx_packets == 4
    assert stats.queued_high_water == 4


def test_transmit_batch_on_down_link_drops_everything(simulator):
    a, b, link = wire_hosts(simulator)
    link.set_up(False)
    packets = [pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2) for _ in range(3)]
    accepted = [a.primary_interface.send(packet) for packet in packets]
    assert simulator.pending_events == 0
    simulator.run()
    assert accepted == [False] * 3
    assert b.packets == []
    assert link.total_stats.dropped_packets == 3
    assert link.total_stats.dropped_bytes == sum(packet.size_bytes for packet in packets)


# --------------------------------------------------------------------------
# NF batch processing parity
# --------------------------------------------------------------------------


def _firewall_pair():
    rules = [
        FirewallRule(action=FirewallAction.DROP, protocol="tcp", dst_port_range=(9000, 9100)),
    ]
    return (
        Firewall(rules=list(rules)),
        Firewall(rules=list(rules)),
    )


def test_firewall_batch_matches_scalar_semantics():
    scalar_fw, batch_fw = _firewall_pair()
    context = ProcessingContext(now=1.0, direction=Direction.UPSTREAM, client_ip="10.0.0.1")
    packets = [tcp_packet(dport=9050 if i % 3 == 0 else 80, sport=1000 + i) for i in range(30)]

    scalar_out = []
    for packet in packets:
        scalar_out.extend(scalar_fw.process(packet.copy(), context))
    batch_out = batch_fw.process_batch([p.copy() for p in packets], context)

    assert len(batch_out) == len(scalar_out)
    assert batch_fw.counters() == scalar_fw.counters()
    assert batch_fw.accepted == scalar_fw.accepted
    assert batch_fw.dropped == scalar_fw.dropped
    assert batch_fw.conntrack_size == scalar_fw.conntrack_size


def test_firewall_batch_conntrack_admits_replies():
    firewall = Firewall()
    up = ProcessingContext(now=0.0, direction=Direction.UPSTREAM, client_ip="10.0.0.1")
    down = ProcessingContext(now=0.1, direction=Direction.DOWNSTREAM, client_ip="10.0.0.1")
    outbound = [tcp_packet(sport=2000 + i) for i in range(5)]
    firewall.process_batch(outbound, up)
    replies = [tcp_packet(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=2000 + i) for i in range(5)]
    admitted = firewall.process_batch(replies, down)
    assert len(admitted) == 5
    assert firewall.conntrack_hits == 5


def test_rate_limiter_batch_matches_scalar_semantics():
    scalar_rl = RateLimiter(rate_bps=8e4, burst_bytes=2000)
    batch_rl = RateLimiter(rate_bps=8e4, burst_bytes=2000)
    context = ProcessingContext(now=5.0, direction=Direction.UPSTREAM, client_ip="10.0.0.1")
    packets = [tcp_packet(payload=300) for _ in range(10)]

    scalar_out = []
    for packet in packets:
        scalar_out.extend(scalar_rl.process(packet.copy(), context))
    batch_out = batch_rl.process_batch([p.copy() for p in packets], context)

    assert len(batch_out) == len(scalar_out)
    assert batch_rl.packets_policed == scalar_rl.packets_policed
    assert batch_rl.bytes_policed == scalar_rl.bytes_policed
    assert batch_rl.bucket_level(Direction.UPSTREAM) == pytest.approx(
        scalar_rl.bucket_level(Direction.UPSTREAM)
    )


def test_rate_limiter_batch_bulk_admission_when_tokens_cover_burst():
    limiter = RateLimiter(rate_bps=1e9, burst_bytes=1e9)
    context = ProcessingContext(now=1.0, direction=Direction.UPSTREAM, client_ip="10.0.0.1")
    outputs = limiter.process_batch([tcp_packet() for _ in range(50)], context)
    assert len(outputs) == 50
    assert limiter.packets_policed == 0


def test_default_process_batch_unrolls_scalar_hook():
    """``process_batch`` is the ``process`` loop: same outputs, same state left behind."""
    from repro.nfs.flow_monitor import FlowMonitor

    context = ProcessingContext(now=5.0, direction=Direction.UPSTREAM, client_ip="10.0.0.1")
    # Mixed verdicts for each NF: the firewall drops every third packet, the
    # limiter's bucket runs dry part-way through the burst.
    packets = [
        tcp_packet(dport=9050 if i % 3 == 0 else 80, sport=3000 + i, payload=300) for i in range(12)
    ]
    for build in (
        FlowMonitor,
        lambda: _firewall_pair()[0],
        lambda: RateLimiter(rate_bps=8e4, burst_bytes=2000),
    ):
        looped, batched = build(), build()
        loop_out = []
        for packet in packets:
            loop_out.extend(looped.process(packet.copy(), context))
        batch_out = batched.process_batch([packet.copy() for packet in packets], context)
        assert [p.flow_key for p in batch_out] == [p.flow_key for p in loop_out]
        assert batched.packets_in == len(packets)
        assert batched.counters() == looped.counters()
        assert batched.export_state() == looped.export_state()  # conntrack, bucket level


# --------------------------------------------------------------------------
# One path per hop
# --------------------------------------------------------------------------


def test_data_path_has_no_batch_twin():
    """The only batch names left are the two loops the perf probes call."""
    import repro.netem
    from repro.core.agent import DeployedNF
    from repro.core.migration import StateTransferService
    from repro.netem.host import VethPair
    from repro.nfs import NF_CATALOG
    from repro.nfs.base import NetworkFunction

    def batch_names(*namespaces):
        return {name for namespace in namespaces for name in namespace if "batch" in name.lower()}

    veth = VethPair(Simulator(), "veth", "02:00:00:00:00:01", "02:00:00:00:00:02")
    for hop in (Link, Interface, Host, VethPair, DeployedNF, StateTransferService):
        assert batch_names(dir(hop)) == set(), hop
    assert batch_names(vars(veth), vars(veth.end_a), vars(veth.end_b)) == set()
    assert batch_names(dir(SoftwareSwitch)) == {"receive_batch"}
    for nf_class in (NetworkFunction, *NF_CATALOG.values()):
        assert batch_names(dir(nf_class)) == {"process_batch"}, nf_class
    assert batch_names(dir(repro.netem)) == set()  # no PacketBatch export
    assert CompiledVerdict.__slots__ == ("rule", "generation", "ops", "hits")


# --------------------------------------------------------------------------
# End-to-end: testbed traffic and telemetry export
# --------------------------------------------------------------------------


def test_testbed_traffic_populates_flow_cache_and_telemetry():
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    testbed.manager.attach_chain(client.ip, ServiceChain.of("firewall"))
    testbed.run(6.0)
    generator = CBRTrafficGenerator(
        testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=100
    )
    generator.start()
    testbed.run(5.0)
    generator.stop()

    switch = testbed.topology.station("station-1").switch
    assert generator.responses_received > 0
    assert switch.flow_cache.hits > switch.flow_cache.misses  # steady-state flows hit
    assert switch.summary()["fastpath_hits"] == switch.flow_cache.hits

    agent = testbed.agent_for("station-1")
    sample = agent.collector.sample_once()
    assert sample["fastpath.hit_rate"] > 0.5
    assert sample["fastpath.hits"] == float(switch.flow_cache.hits)
    exported = snapshot_to_json(agent.collector.latest())
    assert "fastpath.hit_rate" in exported


def test_fastpath_can_be_disabled_per_testbed():
    testbed = GNFTestbed(TestbedConfig(station_count=1, fastpath_enabled=False))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    generator = CBRTrafficGenerator(
        testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=50
    )
    generator.start()
    testbed.run(3.0)
    switch = testbed.topology.station("station-1").switch
    assert generator.responses_received > 0
    assert switch.flow_cache.hits == 0 and switch.flow_cache.misses == 0
