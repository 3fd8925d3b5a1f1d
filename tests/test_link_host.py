"""Unit tests for links, interfaces, hosts, veth pairs and the core server."""

from __future__ import annotations

import random

import pytest

from repro.netem import packet as pkt
from repro.netem.host import Host, Interface, Server, VethPair
from repro.netem.link import Link, LinkStats
from repro.netem.simulator import Simulator


class RecordingHost(Host):
    """Test helper that records every packet it receives."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name)
        self.received = []

    def handle_packet(self, packet, interface):
        self.received.append((packet, interface.name, self.simulator.now))


def make_pair(simulator, bandwidth=1e9, delay=0.001, loss=0.0, queue=1000, rng=None):
    a_host = RecordingHost(simulator, "host-a")
    b_host = RecordingHost(simulator, "host-b")
    a_iface = Interface("a-eth0", mac="02:00:00:00:00:01", ip="10.0.0.1")
    b_iface = Interface("b-eth0", mac="02:00:00:00:00:02", ip="10.0.0.2")
    a_host.add_interface(a_iface)
    b_host.add_interface(b_iface)
    link = Link(
        simulator, bandwidth_bps=bandwidth, delay_s=delay, loss_rate=loss,
        max_queue_packets=queue, rng=rng,
    )
    link.attach(a_iface, b_iface)
    return a_host, b_host, link


def test_link_delivers_packet_to_peer(simulator):
    a, b, link = make_pair(simulator)
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=100)
    a.send(packet)
    simulator.run()
    assert len(b.received) == 1
    assert b.received[0][0] is packet


def test_link_latency_includes_serialization_and_propagation(simulator):
    a, b, link = make_pair(simulator, bandwidth=1e6, delay=0.01)
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=1000)
    expected = packet.size_bytes * 8 / 1e6 + 0.01
    a.send(packet)
    simulator.run()
    assert b.received[0][2] == pytest.approx(expected)


def test_back_to_back_packets_queue_behind_each_other(simulator):
    a, b, link = make_pair(simulator, bandwidth=1e6, delay=0.0)
    p1 = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=1000)
    p2 = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=1000)
    a.send(p1)
    a.send(p2)
    simulator.run()
    t1 = b.received[0][2]
    t2 = b.received[1][2]
    assert t2 == pytest.approx(2 * t1)


def test_link_down_drops_packets(simulator):
    a, b, link = make_pair(simulator)
    link.set_up(False)
    accepted = a.primary_interface.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    simulator.run()
    assert not accepted
    assert b.received == []
    assert link.total_stats.dropped_packets == 1


def test_full_queue_drops_packets(simulator):
    a, b, link = make_pair(simulator, bandwidth=1e3, queue=2)
    for _ in range(5):
        a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=500))
    simulator.run()
    assert len(b.received) == 2
    assert link.total_stats.dropped_packets == 3


def test_total_stats_sum_fluid_bytes_of_both_directions(simulator):
    _, _, link = make_pair(simulator)
    link.add_fluid_bytes("a_to_b", 1_500.0)
    link.add_fluid_bytes("b_to_a", 250.0)
    assert link.total_stats.fluid_bytes == 1_750.0
    with pytest.raises(KeyError):
        link.add_fluid_bytes("sideways", 1.0)


def test_lossy_link_drops_a_fraction(simulator):
    a, b, link = make_pair(simulator, loss=0.5)
    for _ in range(200):
        a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    simulator.run()
    assert 40 < len(b.received) < 160
    assert link.total_stats.dropped_packets + len(b.received) == 200


def test_a_loss_free_link_never_builds_its_rng(simulator):
    a, b, link = make_pair(simulator)
    for _ in range(50):
        a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
        b.send(pkt.make_udp_packet("10.0.0.2", "10.0.0.1", 2, 1))
    simulator.run()
    assert len(a.received) == len(b.received) == 50
    assert link._rng is None


def _delivered_under_a_loss_schedule(rng):
    """Ports of the packets a link delivers while a fault raises, clears and
    raises its loss rate again mid-run."""
    simulator = Simulator()
    a, b, link = make_pair(simulator, rng=rng)
    for index in range(400):
        packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", index, 2)
        simulator.call_at(index * 1e-3, a.send, packet)
    for at, loss in ((0.1, 0.3), (0.2, 0.0), (0.25, 0.6)):
        simulator.call_at(at - 5e-4, setattr, link, "loss_rate", loss)
    simulator.run()
    return [packet.l4.src_port for packet, _, _ in b.received]


def test_loss_raised_mid_run_drops_what_an_eagerly_seeded_link_drops():
    lazy = _delivered_under_a_loss_schedule(rng=None)
    eager = _delivered_under_a_loss_schedule(rng=random.Random(0))
    assert lazy == eager
    lost = set(range(400)) - set(lazy)
    assert lost and lost <= set(range(100, 200)) | set(range(250, 400))


def test_link_stats_track_bytes(simulator):
    a, b, link = make_pair(simulator)
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=200)
    a.send(packet)
    simulator.run()
    stats = link.stats(a.primary_interface)
    assert stats.tx_packets == 1
    assert stats.tx_bytes == packet.size_bytes


def test_link_is_full_duplex(simulator):
    a, b, link = make_pair(simulator)
    a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    b.send(pkt.make_udp_packet("10.0.0.2", "10.0.0.1", 2, 1))
    simulator.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_link_invalid_parameters(simulator):
    with pytest.raises(ValueError):
        Link(simulator, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(simulator, delay_s=-1)
    with pytest.raises(ValueError):
        Link(simulator, loss_rate=1.5)


def test_link_double_attach_rejected(simulator):
    a, b, link = make_pair(simulator)
    with pytest.raises(RuntimeError):
        link.attach(a.primary_interface, b.primary_interface)


def test_peer_of_unknown_interface_rejected(simulator):
    a, b, link = make_pair(simulator)
    stranger = Interface("x", mac="02:00:00:00:00:99")
    with pytest.raises(ValueError):
        link.peer_of(stranger)


@pytest.mark.parametrize("burst", [1, 2], ids=["transmit", "transmit_batch"])
def test_transmit_from_unattached_interface_leaves_no_phantom_queue(simulator, burst):
    """The second id is the burst case: back-to-back transmits from the stranger."""
    a, b, link = make_pair(simulator)
    stranger = Interface("x", mac="02:00:00:00:00:99")
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=100)
    for _ in range(burst):
        with pytest.raises(ValueError):
            link.transmit(packet, stranger)
    for direction in link._directions.values():
        assert direction.queue_depth == 0
        assert direction.busy_until == 0.0
        assert direction.stats == LinkStats()
    assert simulator.pending_events == 0
    # The link is still fully usable afterwards.
    b.send(packet)
    simulator.run()
    assert len(a.received) == 1


def test_host_duplicate_interface_name_rejected(simulator):
    host = Host(simulator, "h")
    host.add_interface(Interface("eth0", mac="02:00:00:00:00:01"))
    with pytest.raises(ValueError):
        host.add_interface(Interface("eth0", mac="02:00:00:00:00:02"))


def test_host_primary_interface_requires_one(simulator):
    host = Host(simulator, "empty")
    with pytest.raises(RuntimeError):
        _ = host.primary_interface
    assert host.ip is None


def test_interface_down_refuses_traffic(simulator):
    a, b, link = make_pair(simulator)
    b.primary_interface.up = False
    a.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2))
    simulator.run()
    assert b.received == []


def test_packet_handler_override(simulator):
    host = Host(simulator, "h")
    iface = host.add_interface(Interface("eth0", mac="02:00:00:00:00:01"))
    seen = []
    host.packet_handler = lambda packet, interface: seen.append(packet)
    iface.deliver(pkt.make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2))
    assert len(seen) == 1


def test_veth_pair_crosses_between_ends(simulator):
    pair = VethPair(simulator, "veth0", "02:aa:00:00:00:01", "02:aa:00:00:00:02")
    seen = []
    pair.end_b.delivery_override = lambda packet, iface: seen.append(packet)
    pair.end_a.send(pkt.make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2))
    simulator.run()
    assert len(seen) == 1


def test_veth_pair_with_crossing_delay(simulator):
    pair = VethPair(simulator, "veth1", "02:aa:00:00:00:03", "02:aa:00:00:00:04", crossing_delay_s=0.01)
    times = []
    pair.end_b.delivery_override = lambda packet, iface: times.append(simulator.now)
    pair.end_a.send(pkt.make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2))
    simulator.run()
    assert times == [pytest.approx(0.01)]


def _connect_server(simulator, server):
    client = RecordingHost(simulator, "probe")
    client_iface = client.add_interface(Interface("probe-eth0", mac="02:00:00:00:01:01", ip="10.0.0.1"))
    server_iface = server.add_interface(Interface("srv-eth0", mac="02:00:00:00:01:02", ip="10.0.0.9"))
    link = Link(simulator, bandwidth_bps=1e9, delay_s=0.001)
    link.attach(client_iface, server_iface)
    return client


def test_server_answers_http_requests(simulator):
    server = Server(simulator, "web", http_body_bytes=2048)
    client = _connect_server(simulator, server)
    client.send(pkt.make_http_request("10.0.0.1", "10.0.0.9", host="example.com"))
    simulator.run()
    assert server.requests_served == 1
    response = client.received[0][0]
    assert isinstance(response.app, pkt.HTTPResponse)
    assert response.app.body_bytes == 2048


def test_server_answers_dns_from_zone(simulator):
    server = Server(simulator, "dns", dns_zone={"cdn.example.com": ["9.9.9.9"]})
    client = _connect_server(simulator, server)
    client.send(pkt.make_dns_query("10.0.0.1", "10.0.0.9", name="cdn.example.com"))
    simulator.run()
    response = client.received[0][0]
    assert response.app.addresses == ("9.9.9.9",)


def test_server_echoes_udp_and_icmp(simulator):
    server = Server(simulator, "echo")
    client = _connect_server(simulator, server)
    client.send(pkt.make_udp_packet("10.0.0.1", "10.0.0.9", 4000, 9000, payload_bytes=64))
    client.send(pkt.make_icmp_echo("10.0.0.1", "10.0.0.9"))
    simulator.run()
    assert server.udp_packets_echoed == 1
    assert server.icmp_echoes_served == 1
    assert len(client.received) == 2


def test_server_ignores_traffic_for_other_destinations(simulator):
    server = Server(simulator, "web")
    client = _connect_server(simulator, server)
    client.send(pkt.make_http_request("10.0.0.1", "10.0.0.200", host="example.com"))
    simulator.run()
    assert server.requests_served == 0
    assert client.received == []
