"""Unit tests for the packet model."""

from __future__ import annotations

import pytest

from repro.netem import packet as pkt


def test_tcp_packet_has_sane_size():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1234, 80, payload_bytes=100)
    assert packet.size_bytes == 14 + 20 + 20 + 100


def test_minimum_frame_size_is_64_bytes():
    packet = pkt.Packet(eth=pkt.EthernetHeader("a", "b"))
    assert packet.size_bytes == 64


def test_udp_packet_protocol_number():
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 5000, 53)
    assert packet.ip.protocol == pkt.PROTO_UDP
    assert packet.is_udp and not packet.is_tcp


def test_icmp_echo_and_reply():
    echo = pkt.make_icmp_echo("10.0.0.1", "10.0.0.2", identifier=7, sequence=3)
    assert echo.is_icmp
    reply = echo.l4.reply()
    assert reply.icmp_type == 0
    assert reply.identifier == 7
    assert reply.sequence == 3


def test_flow_key_extraction():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1111, 80)
    key = packet.flow_key
    assert key == pkt.FlowKey("10.0.0.1", "10.0.0.2", pkt.PROTO_TCP, 1111, 80)


def test_flow_key_reversed_and_canonical():
    key = pkt.FlowKey("10.0.0.2", "10.0.0.1", pkt.PROTO_TCP, 80, 1111)
    reverse = key.reversed()
    assert reverse.src_ip == "10.0.0.1"
    assert reverse.dst_port == 80
    assert key.canonical() == reverse.canonical()


def test_non_ip_packet_has_no_flow_key():
    packet = pkt.Packet(eth=pkt.EthernetHeader("a", "b"))
    assert packet.flow_key is None


def test_packet_copy_is_independent():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    packet.metadata["tag"] = "original"
    clone = packet.copy()
    clone.ip.src = "10.9.9.9"
    clone.metadata["tag"] = "copy"
    assert packet.ip.src == "10.0.0.1"
    assert packet.metadata["tag"] == "original"
    assert clone.packet_id != packet.packet_id


def test_ttl_decrement_drops_at_zero():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    packet.ip.ttl = 1
    assert not packet.decrement_ttl()


def test_ethernet_swapped():
    header = pkt.EthernetHeader(src="aa", dst="bb")
    swapped = header.swapped()
    assert (swapped.src, swapped.dst) == ("bb", "aa")


def test_ip_swapped_resets_ttl():
    header = pkt.IPv4Header(src="1.1.1.1", dst="2.2.2.2", ttl=3)
    swapped = header.swapped()
    assert swapped.src == "2.2.2.2"
    assert swapped.ttl == 64


def test_http_request_url():
    request = pkt.HTTPRequest(method="GET", host="example.com", path="/index.html")
    assert request.url == "http://example.com/index.html"


def test_http_response_builder_swaps_endpoints():
    request = pkt.make_http_request("10.0.0.1", "10.0.0.9", host="example.com", path="/a")
    response = pkt.make_http_response(request, status=200, body_bytes=5000)
    assert response.ip.src == "10.0.0.9"
    assert response.ip.dst == "10.0.0.1"
    assert response.app.status == 200
    assert response.app.request_url == "http://example.com/a"
    assert response.size_bytes > 5000


def test_http_response_requires_request_payload():
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    with pytest.raises(ValueError):
        pkt.make_http_response(packet)


def test_dns_query_and_response_builders():
    query = pkt.make_dns_query("10.0.0.1", "10.0.0.8", name="cdn.example.com", query_id=11)
    assert query.l4.dst_port == 53
    response = pkt.make_dns_response(query, addresses=("1.2.3.4", "5.6.7.8"))
    assert response.app.addresses == ("1.2.3.4", "5.6.7.8")
    assert response.app.query_id == 11
    assert response.ip.dst == "10.0.0.1"


def test_dns_response_requires_query_payload():
    packet = pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    with pytest.raises(ValueError):
        pkt.make_dns_response(packet, addresses=("1.1.1.1",))


def test_tcp_header_swapped_sets_ack_flag():
    header = pkt.TCPHeader(src_port=1000, dst_port=80, seq=5, ack=9)
    swapped = header.swapped()
    assert swapped.src_port == 80
    assert swapped.dst_port == 1000
    assert swapped.ack_flag


def test_packet_ids_are_unique_and_increasing():
    first = pkt.make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    second = pkt.make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    assert second.packet_id > first.packet_id


def test_app_payload_contributes_to_size():
    bare = pkt.make_tcp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    with_http = pkt.make_http_request("1.1.1.1", "2.2.2.2", host="x.com")
    assert with_http.size_bytes > bare.size_bytes


# ---------------------------------------------------------------- Packet.copy

_HEADER_TYPES = (pkt.EthernetHeader, pkt.IPv4Header, pkt.TCPHeader, pkt.UDPHeader, pkt.ICMPHeader)
_PAYLOAD_TYPES = (pkt.HTTPRequest, pkt.HTTPResponse, pkt.DNSQuery, pkt.DNSResponse)


def _tcp_with_every_flag() -> pkt.Packet:
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 40000, 80, payload_bytes=700, syn=True)
    packet.l4.seq, packet.l4.ack = 11, 22
    packet.l4.fin = packet.l4.rst = packet.l4.ack_flag = True
    packet.ip.ttl, packet.ip.dscp = 7, 46
    packet.eth.ethertype = pkt.ETHERTYPE_ARP
    return packet


def _http_request() -> pkt.Packet:
    packet = pkt.make_http_request("10.0.0.1", "10.0.0.2", host="example.org", path="/a")
    packet.app.headers["cookie"] = "k=v"
    packet.app.body_bytes = 321
    return packet


def _http_response() -> pkt.Packet:
    response = pkt.make_http_response(_http_request(), status=404, body_bytes=1234, content_type="video/mp4")
    response.app.headers["etag"] = "abc"
    return response


def _dns_query() -> pkt.Packet:
    return pkt.make_dns_query("10.0.0.1", "10.0.0.53", "svc.example.org", query_id=9)


def _abr_segment_request() -> pkt.Packet:
    # What ABRVideoGenerator emits: an HTTP request tagged through metadata.
    packet = pkt.make_http_request("10.0.0.1", "10.0.0.2", host="cdn", path="/v/seg-3-800000.m4s")
    packet.metadata.update(app_protocol="abr", http_body_bytes=400_000, http_content_type="video/mp4")
    return packet


_COPY_CASES = {
    "l2-only": lambda: pkt.Packet(eth=pkt.EthernetHeader("a", "b"), payload_bytes=10),
    "bare-payload": lambda: pkt.Packet(payload_bytes=900),
    "tcp": _tcp_with_every_flag,
    "udp": lambda: pkt.make_udp_packet("10.0.0.1", "10.0.0.2", 5000, 9000, payload_bytes=1400),
    "icmp": lambda: pkt.make_icmp_echo("10.0.0.1", "10.0.0.2", identifier=3, sequence=8),
    "http-request": _http_request,
    "http-response": _http_response,
    "dns-query": _dns_query,
    "dns-response": lambda: pkt.make_dns_response(_dns_query(), addresses=("10.1.1.1", "10.1.1.2"), ttl=30),
    "quic-request": lambda: pkt.make_quic_request(
        "10.0.0.1", "10.0.0.2", host="h3.example", connection_id=77, zero_rtt=True
    ),
    "abr-segment-request": _abr_segment_request,
}


def test_copy_cases_cover_every_header_and_payload_type():
    built = [build() for build in _COPY_CASES.values()]
    layers = {type(layer) for p in built for layer in (p.eth, p.ip, p.l4, p.app) if layer is not None}
    assert layers == set(_HEADER_TYPES + _PAYLOAD_TYPES)


@pytest.mark.parametrize("case", sorted(_COPY_CASES))
def test_copy_is_field_for_field_equal_with_a_fresh_identity(case):
    packet = _COPY_CASES[case]()
    packet.created_at = 1.25
    packet.hops = 3
    packet.metadata["probe_seq"] = 5
    size = packet.size_bytes
    clone = packet.copy()

    for layer in ("eth", "ip", "l4", "app"):
        original, copied = getattr(packet, layer), getattr(clone, layer)
        assert copied == original  # dataclass equality: every field
        assert type(copied) is type(original)
        assert copied is None or copied is not original
    assert clone.payload_bytes == packet.payload_bytes
    assert (clone.created_at, clone.hops) == (1.25, 3)
    assert clone.size_bytes == size == packet.size_bytes
    assert clone.size_bytes == clone._compute_size()  # the carried-over cache is right
    assert clone.packet_id > packet.packet_id
    assert clone.metadata == packet.metadata and clone.metadata is not packet.metadata


@pytest.mark.parametrize("case", sorted(_COPY_CASES))
def test_rewriting_a_clone_never_shows_on_the_original(case):
    packet = _COPY_CASES[case]()
    reference = _COPY_CASES[case]()
    clone = packet.copy()

    if clone.eth is not None:
        clone.eth.src, clone.eth.dst = "ff:ff:ff:ff:ff:01", "ff:ff:ff:ff:ff:02"
    if clone.ip is not None:
        clone.ip.src, clone.ip.dst, clone.ip.ttl = "192.0.2.1", "192.0.2.2", 1
    if isinstance(clone.l4, (pkt.TCPHeader, pkt.UDPHeader)):
        clone.l4.src_port, clone.l4.dst_port = 1, 2
    elif clone.l4 is not None:
        clone.l4.sequence = 999
    if isinstance(clone.app, (pkt.HTTPRequest, pkt.HTTPResponse)):
        clone.app.headers["x-rewritten"] = "1"
        clone.app.body_bytes += 1
    elif isinstance(clone.app, pkt.DNSResponse):
        clone.app.addresses = ("203.0.113.9",)
    elif clone.app is not None:
        clone.app.name = "rewritten.example"
    clone.metadata["rewritten"] = True
    clone.payload_bytes += 100

    for layer in ("eth", "ip", "l4", "app"):
        assert getattr(packet, layer) == getattr(reference, layer)
    assert packet.metadata == reference.metadata
    assert packet.size_bytes == reference.size_bytes
    assert clone.size_bytes != packet.size_bytes  # the setter invalidated the clone's cache only


def test_flood_path_makes_no_dataclasses_replace_call(monkeypatch):
    import dataclasses

    from repro.netem import switch as switch_module
    from repro.netem.host import Interface
    from repro.netem.simulator import Simulator

    def forbidden(*_args, **_kwargs):
        raise AssertionError("dataclasses.replace() is back on the flood path")

    monkeypatch.setattr(dataclasses, "replace", forbidden)
    for module in (pkt, switch_module):  # a `from dataclasses import replace` would dodge the patch
        assert not hasattr(module, "replace")

    simulator = Simulator()
    switch = switch_module.SoftwareSwitch(simulator, "sw", forwarding_delay_s=0.0)
    flooded = []
    for number in (1, 2, 3):
        interface = Interface(f"port{number}", mac=f"02:00:00:00:00:{number:02x}")
        switch.add_port(interface)
        interface.send = lambda packet: flooded.append(packet) or True
    packet = _http_response()
    switch.receive_packet(packet, switch.ports[1].interface)
    simulator.run()
    assert switch.packets_flooded == 1
    assert len(flooded) == 2 and all(copy is not packet and copy.app == packet.app for copy in flooded)
