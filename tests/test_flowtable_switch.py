"""Unit tests for the flow table and the station software switch."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.netem import packet as pkt
from repro.netem.flowtable import Action, ActionType, FlowRule, FlowTable, Match
from repro.netem.host import Interface
from repro.netem.switch import SoftwareSwitch


# --------------------------------------------------------------------------
# Match / FlowTable
# --------------------------------------------------------------------------


def tcp_packet(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=80):
    return pkt.make_tcp_packet(src, dst, sport, dport)


def test_wildcard_match_matches_everything():
    assert Match().matches(tcp_packet(), in_port=7)


def test_match_on_in_port():
    match = Match(in_port=3)
    assert match.matches(tcp_packet(), in_port=3)
    assert not match.matches(tcp_packet(), in_port=4)


def test_match_on_ip_fields():
    match = Match(ip_src="10.0.0.1", ip_dst="10.0.0.2", ip_proto=pkt.PROTO_TCP)
    assert match.matches(tcp_packet(), 1)
    assert not match.matches(tcp_packet(src="10.0.0.9"), 1)
    assert not match.matches(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), 1)


def test_match_on_ports():
    match = Match(l4_dst_port=80)
    assert match.matches(tcp_packet(dport=80), 1)
    assert not match.matches(tcp_packet(dport=443), 1)
    icmp = pkt.make_icmp_echo("10.0.0.1", "10.0.0.2")
    assert not match.matches(icmp, 1)


def test_match_on_metadata():
    match = Match(metadata=(("gnf_dir", "up"),))
    packet = tcp_packet()
    assert not match.matches(packet, 1)
    packet.metadata["gnf_dir"] = "up"
    assert match.matches(packet, 1)


def test_match_on_eth_addresses():
    packet = tcp_packet()
    match = Match(eth_src=packet.eth.src, eth_dst=packet.eth.dst)
    assert match.matches(packet, 1)
    assert not Match(eth_dst="ff:ff:ff:ff:ff:ff").matches(packet, 1)


def test_match_specificity_counts_concrete_fields():
    assert Match().specificity() == 0
    assert Match(in_port=1, ip_src="1.1.1.1", metadata=(("k", "v"),)).specificity() == 3


def test_flowtable_priority_ordering():
    table = FlowTable()
    low = table.add(1, Match(), [Action.output(1)])
    high = table.add(100, Match(ip_src="10.0.0.1"), [Action.output(2)])
    hit = table.lookup(tcp_packet(), in_port=5)
    assert hit is high
    hit_other = table.lookup(tcp_packet(src="10.0.0.99"), in_port=5)
    assert hit_other is low


def test_flowtable_equal_priority_latest_wins():
    table = FlowTable()
    table.add(10, Match(), [Action.output(1)])
    newer = table.add(10, Match(), [Action.output(2)])
    assert table.lookup(tcp_packet(), 1) is newer


def test_flowtable_counters_update_on_match():
    table = FlowTable()
    rule = table.add(10, Match(), [Action.output(1)])
    packet = tcp_packet()
    table.lookup(packet, 1)
    table.lookup(packet, 1)
    assert rule.packets_matched == 2
    assert rule.bytes_matched == 2 * packet.size_bytes


def test_flowtable_remove_by_cookie():
    table = FlowTable()
    table.add(10, Match(), [Action.output(1)], cookie="chain:a")
    table.add(10, Match(), [Action.output(2)], cookie="chain:a")
    table.add(10, Match(), [Action.output(3)], cookie="chain:b")
    assert table.remove_by_cookie("chain:a") == 2
    assert len(table) == 1
    assert table.rules(cookie="chain:b")


def test_flowtable_remove_rule_by_id():
    table = FlowTable()
    rule = table.add(10, Match(), [Action.drop()])
    assert table.remove_rule(rule.rule_id)
    assert not table.remove_rule(rule.rule_id)


def test_flowtable_miss_returns_none():
    table = FlowTable()
    table.add(10, Match(ip_src="1.2.3.4"), [Action.drop()])
    assert table.lookup(tcp_packet(), 1) is None


def test_flowtable_stats():
    table = FlowTable()
    table.add(10, Match(), [Action.output(1)])
    table.lookup(tcp_packet(), 1)
    stats = table.stats()
    assert stats["rules"] == 1
    assert stats["packets_matched"] == 1


def test_action_factories():
    assert Action.output(4).action_type is ActionType.OUTPUT
    assert Action.drop().action_type is ActionType.DROP
    assert Action.flood().action_type is ActionType.FLOOD
    assert Action.set_metadata("k", "v").value == ("k", "v")


# --------------------------------------------------------------------------
# SoftwareSwitch
# --------------------------------------------------------------------------


class Sink:
    """Captures packets delivered out of a switch port."""

    def __init__(self):
        self.packets = []

    def __call__(self, packet, interface):
        self.packets.append(packet)


def build_switch(simulator, port_count=3, no_flood_ports=()):
    switch = SoftwareSwitch(simulator, "sw", forwarding_delay_s=0.0)
    sinks = {}
    for number in range(1, port_count + 1):
        iface = Interface(f"port{number}", mac=f"02:00:00:00:00:{number:02x}")
        switch.add_port(iface, no_flood=(number in no_flood_ports))
        sink = Sink()
        # Outbound frames from the switch are "sent" on the port interface; with no
        # link attached we intercept them via the interface send hook.
        iface.send = (lambda s: (lambda packet: (s.packets.append(packet), True)[1]))(sink)
        sinks[number] = sink
    return switch, sinks


def inject(simulator, switch, packet, port_number):
    interface = switch.ports[port_number].interface
    switch.receive_packet(packet, interface)
    simulator.run()


def test_switch_floods_unknown_destination(simulator):
    switch, sinks = build_switch(simulator)
    packet = tcp_packet()
    inject(simulator, switch, packet, 1)
    assert len(sinks[2].packets) == 1
    assert len(sinks[3].packets) == 1
    assert sinks[1].packets == []
    assert switch.packets_flooded == 1


def test_switch_learns_and_unicasts(simulator):
    switch, sinks = build_switch(simulator)
    first = tcp_packet()
    inject(simulator, switch, first, 1)  # learns src MAC on port 1
    reply = tcp_packet(src="10.0.0.2", dst="10.0.0.1")
    reply.eth.src = first.eth.dst
    reply.eth.dst = first.eth.src
    inject(simulator, switch, reply, 2)
    assert len(sinks[1].packets) == 1
    assert len(sinks[3].packets) == 1  # only the initial flood reached port 3
    assert switch.mac_table[first.eth.src] == 1


def test_switch_flood_respects_no_flood_ports(simulator):
    switch, sinks = build_switch(simulator, no_flood_ports=(3,))
    inject(simulator, switch, tcp_packet(), 1)
    assert sinks[3].packets == []
    assert len(sinks[2].packets) == 1


def test_switch_flow_rule_overrides_learning(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(100, Match(ip_src="10.0.0.1"), [Action.output(3)])
    inject(simulator, switch, tcp_packet(), 1)
    assert len(sinks[3].packets) == 1
    assert sinks[2].packets == []


def test_switch_drop_rule(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(100, Match(), [Action.drop()])
    inject(simulator, switch, tcp_packet(), 1)
    assert all(not sink.packets for sink in sinks.values())
    assert switch.packets_dropped == 1


def test_switch_set_metadata_then_output(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(
        100, Match(in_port=1), [Action.set_metadata("gnf_dir", "up"), Action.output(2)]
    )
    packet = tcp_packet()
    inject(simulator, switch, packet, 1)
    assert sinks[2].packets[0].metadata["gnf_dir"] == "up"


def test_switch_set_field_actions(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(
        100,
        Match(in_port=1),
        [Action(ActionType.SET_IP_DST, "99.99.99.99"), Action(ActionType.SET_ETH_DST, "02:ff:ff:ff:ff:ff"), Action.output(2)],
    )
    inject(simulator, switch, tcp_packet(), 1)
    delivered = sinks[2].packets[0]
    assert delivered.ip.dst == "99.99.99.99"
    assert delivered.eth.dst == "02:ff:ff:ff:ff:ff"


def test_switch_output_to_missing_port_counts_drop(simulator):
    switch, sinks = build_switch(simulator)
    switch.flow_table.add(100, Match(), [Action.output(99)])
    inject(simulator, switch, tcp_packet(), 1)
    assert switch.packets_dropped == 1


def test_switch_hairpin_to_input_port_dropped(simulator):
    switch, sinks = build_switch(simulator)
    packet = tcp_packet()
    # Learn the source MAC on port 1, then send a frame destined to that MAC
    # arriving on port 1 again: the learning switch must not hairpin it.
    inject(simulator, switch, packet, 1)
    loop = tcp_packet(src="10.0.0.5", dst="10.0.0.1")
    loop.eth.dst = packet.eth.src
    inject(simulator, switch, loop, 1)
    assert sinks[1].packets == []


def test_switch_remove_port_clears_mac_entries(simulator):
    switch, sinks = build_switch(simulator)
    packet = tcp_packet()
    inject(simulator, switch, packet, 1)
    assert switch.mac_table
    switch.remove_port(1)
    assert 1 not in switch.ports
    assert packet.eth.src not in switch.mac_table


def test_switch_forgets_slow_path_deadline_of_removed_port(simulator):
    """Port numbers are never reused, so a removed port must leave no state behind."""
    switch = SoftwareSwitch(simulator, "sw", forwarding_delay_s=0.001)
    switch.add_port(Interface("uplink", mac="02:00:00:00:00:01"))
    for generation in range(3):  # NF churn: plug, carry traffic, unplug
        port = switch.add_port(Interface(f"veth{generation}", mac=f"02:00:00:00:01:{generation:02x}"))
        switch.receive_packet(tcp_packet(), port.interface)
        assert port.number in switch._slowpath_busy_until
        switch.remove_port(port.number)
        assert set(switch._slowpath_busy_until) <= set(switch.ports)
        simulator.run()  # the removed port's in-flight slow-path event re-adds nothing
        assert set(switch._slowpath_busy_until) <= set(switch.ports)


def test_switch_duplicate_port_number_rejected(simulator):
    switch, _ = build_switch(simulator)
    with pytest.raises(ValueError):
        switch.add_port(Interface("dup", mac="02:00:00:00:00:77"), port_number=1)


def test_switch_port_stats_and_summary(simulator):
    switch, sinks = build_switch(simulator)
    inject(simulator, switch, tcp_packet(), 1)
    stats = switch.port_stats()
    assert stats[1].rx_packets == 1
    assert stats[2].tx_packets == 1
    summary = switch.summary()
    assert summary["ports"] == 3
    assert summary["packets_forwarded"] + summary["packets_flooded"] >= 1


def test_switch_forwarding_delay_defers_output(simulator):
    switch = SoftwareSwitch(simulator, "slow", forwarding_delay_s=0.005)
    a = Interface("p1", mac="02:00:00:00:00:01")
    b = Interface("p2", mac="02:00:00:00:00:02")
    switch.add_port(a)
    switch.add_port(b)
    delivered_at = []
    b.send = lambda packet: (delivered_at.append(simulator.now), True)[1]
    switch.flow_table.add(10, Match(), [Action.output(2)])
    switch.receive_packet(tcp_packet(), a)
    simulator.run()
    assert delivered_at == [pytest.approx(0.005)]


def test_broadcast_frames_are_flooded(simulator):
    switch, sinks = build_switch(simulator)
    packet = tcp_packet()
    packet.eth.dst = pkt.BROADCAST_MAC
    inject(simulator, switch, packet, 1)
    assert len(sinks[2].packets) == 1 and len(sinks[3].packets) == 1


# --------------------------------------------------------------------------
# FlowTable against its naive oracle
# --------------------------------------------------------------------------


class _ReferenceTable:
    """What FlowTable did before it was kept ordered: append and re-sort."""

    def __init__(self):
        self.rules, self.generation = [], 0

    def mutate(self, rules):
        changed = len(rules) != len(self.rules)
        self.rules = sorted(rules, key=lambda r: (-r.priority, -r.rule_id))
        self.generation += changed
        return changed

    def install(self, rule):
        self.mutate(self.rules + [rule])

    def remove(self, doomed):
        before = len(self.rules)
        self.mutate([rule for rule in self.rules if not doomed(rule)])
        return before - len(self.rules)

    @property
    def metadata_keys(self):
        return tuple(sorted({key for rule in self.rules for key, _ in rule.match.metadata}))


_priorities = st.integers(min_value=0, max_value=3)
_cookies = st.sampled_from(["", "assoc:a", "assoc:b", "chain:1"])
_matches = st.sampled_from(
    [Match(), Match(in_port=1), Match(metadata=(("gnf_dir", "up"),)),
     Match(metadata=(("gnf_dir", "down"), ("gnf_hop", 2)))]
)
_table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"), _priorities, _matches, _cookies),
        st.tuples(st.just("add"), _priorities, _matches, _cookies),
        st.tuples(st.just("reinstall"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("remove_rule"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("remove_by_cookie"), _cookies),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


@given(_table_ops)
@settings(max_examples=200, deadline=None)
def test_flow_table_matches_append_and_resort_reference(ops):
    table, reference, ever_installed = FlowTable(), _ReferenceTable(), []
    for op, *args in ops:
        if op == "install":
            rule = FlowRule(priority=args[0], match=args[1], actions=[Action.drop()], cookie=args[2])
            assert table.install(rule) is rule
            reference.install(rule)
            ever_installed.append(rule)
        elif op == "add":
            rule = table.add(args[0], args[1], [Action.drop()], cookie=args[2])
            reference.install(rule)
            ever_installed.append(rule)
        elif op == "reinstall" and ever_installed:
            # A previously installed rule object, whether or not it is still in.
            rule = ever_installed[args[0] % len(ever_installed)]
            table.install(rule)
            reference.install(rule)
        elif op == "remove_rule" and ever_installed:
            rule_id = ever_installed[args[0] % len(ever_installed)].rule_id
            assert table.remove_rule(rule_id) == bool(reference.remove(lambda r: r.rule_id == rule_id))
        elif op == "remove_by_cookie":
            assert table.remove_by_cookie(args[0]) == reference.remove(lambda r: r.cookie == args[0])
        elif op == "clear":
            table.clear()
            reference.remove(lambda r: True)
        assert [id(rule) for rule in table.rules()] == [id(rule) for rule in reference.rules]
        assert table.referenced_metadata_keys == reference.metadata_keys
        assert table.generation == reference.generation
        assert len(table) == len(reference.rules)
    for cookie in ("", "assoc:a", "assoc:b", "chain:1"):
        assert table.rules(cookie) == [rule for rule in reference.rules if rule.cookie == cookie]
