"""Unit tests for the network function implementations."""

from __future__ import annotations

import pytest

from repro.netem import packet as pkt
from repro.nfs import NF_CATALOG, create_nf
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext
from repro.nfs.cache import EdgeCache
from repro.nfs.dns_loadbalancer import DNSLoadBalancer
from repro.nfs.firewall import Firewall, FirewallAction, FirewallRule
from repro.nfs.flow_monitor import FlowMonitor
from repro.nfs.http_filter import HTTPFilter
from repro.nfs.ids import IntrusionDetector
from repro.nfs.load_balancer import L4LoadBalancer
from repro.nfs.nat import NAT
from repro.nfs.rate_limiter import RateLimiter, TokenBucket

CLIENT = "10.10.0.5"
SERVER = "10.30.0.2"


def ctx(direction=Direction.UPSTREAM, now=0.0):
    return ProcessingContext(now=now, direction=direction, client_ip=CLIENT, station_name="station-1")


def up_tcp(dport=80, sport=40000, payload=100):
    return pkt.make_tcp_packet(CLIENT, SERVER, sport, dport, payload_bytes=payload)


def down_tcp(sport=80, dport=40000, payload=100):
    return pkt.make_tcp_packet(SERVER, CLIENT, sport, dport, payload_bytes=payload)


# --------------------------------------------------------------------------
# Base class and the factory
# --------------------------------------------------------------------------


def test_base_nf_passes_through_and_counts():
    nf = NetworkFunction(name="noop")
    packet = up_tcp()
    outputs = nf.process(packet, ctx())
    assert outputs == [packet]
    assert nf.packets_in == nf.packets_out == 1
    assert nf.bytes_in == packet.size_bytes


def test_base_nf_counts_drops():
    class Dropper(NetworkFunction):
        def _process(self, packet, context):
            return []

    nf = Dropper()
    nf.process(up_tcp(), ctx())
    assert nf.packets_dropped == 1


def test_base_nf_notifications_queue_and_sink():
    nf = NetworkFunction(name="n")
    received = []
    nf.emit_notification(1.0, "warning", "queued event")
    nf.notification_sink = received.append
    nf.emit_notification(2.0, "critical", "sunk event")
    assert len(received) == 1
    drained = nf.drain_notifications()
    assert len(drained) == 2
    assert nf.drain_notifications() == []


def test_base_nf_counter_state_roundtrip():
    nf = NetworkFunction()
    nf.process(up_tcp(), ctx())
    state = nf.export_state()
    other = NetworkFunction()
    other.import_state(state)
    assert other.packets_in == 1


def test_create_nf_factory_instantiates_all_catalog_entries():
    for nf_type, nf_class in NF_CATALOG.items():
        module_path = f"{nf_class.__module__}.{nf_class.__name__}"
        instance = create_nf(module_path, name=f"{nf_type}-instance")
        assert isinstance(instance, nf_class)


def test_create_nf_rejects_bad_paths():
    with pytest.raises(ValueError):
        create_nf("NotDotted")
    with pytest.raises(TypeError):
        create_nf("repro.netem.simulator.Simulator")


# --------------------------------------------------------------------------
# Firewall
# --------------------------------------------------------------------------


def test_firewall_default_accept():
    firewall = Firewall()
    assert firewall.process(up_tcp(), ctx()) != []
    assert firewall.accepted == 1


def test_firewall_drop_rule_blocks_matching_port():
    firewall = Firewall(rules=[FirewallRule(action=FirewallAction.DROP, protocol="tcp", dst_port_range=(22, 22))])
    assert firewall.process(up_tcp(dport=22), ctx()) == []
    assert firewall.process(up_tcp(dport=80), ctx()) != []
    assert firewall.dropped == 1


def test_firewall_rule_order_matters():
    allow_first = Firewall(
        rules=[
            FirewallRule(action=FirewallAction.ACCEPT, protocol="tcp", dst_port_range=(80, 80)),
            FirewallRule(action=FirewallAction.DROP, protocol="tcp"),
        ]
    )
    assert allow_first.process(up_tcp(dport=80), ctx()) != []
    assert allow_first.process(up_tcp(dport=443), ctx()) == []


def test_firewall_default_drop_policy_with_conntrack():
    firewall = Firewall(default_policy=FirewallAction.DROP, rules=[
        FirewallRule(action=FirewallAction.ACCEPT, direction=Direction.UPSTREAM),
    ])
    outbound = up_tcp(dport=80)
    assert firewall.process(outbound, ctx(Direction.UPSTREAM)) != []
    # The reply to the tracked connection is admitted even under default-drop.
    reply = down_tcp(sport=80, dport=40000)
    assert firewall.process(reply, ctx(Direction.DOWNSTREAM)) != []
    assert firewall.conntrack_hits == 1
    # Unrelated inbound traffic is still dropped.
    stranger = down_tcp(sport=9999, dport=12345)
    assert firewall.process(stranger, ctx(Direction.DOWNSTREAM)) == []


def test_firewall_cidr_matching():
    firewall = Firewall(rules=[FirewallRule(action=FirewallAction.DROP, dst_cidr="10.30.0.0/16")])
    assert firewall.process(up_tcp(), ctx()) == []


def test_firewall_direction_restricted_rule():
    # stateful=False so the established-connection fast path does not bypass
    # the downstream drop rule we are exercising.
    rule = FirewallRule(action=FirewallAction.DROP, direction=Direction.DOWNSTREAM)
    firewall = Firewall(rules=[rule], stateful=False)
    assert firewall.process(up_tcp(), ctx(Direction.UPSTREAM)) != []
    assert firewall.process(down_tcp(), ctx(Direction.DOWNSTREAM)) == []


def test_firewall_non_ip_passthrough():
    firewall = Firewall(default_policy=FirewallAction.DROP)
    l2_only = pkt.Packet(eth=pkt.EthernetHeader("a", "b"))
    assert firewall.process(l2_only, ctx()) == [l2_only]


def test_firewall_conntrack_limit():
    firewall = Firewall(conntrack_limit=2)
    for sport in range(40000, 40005):
        firewall.process(up_tcp(sport=sport), ctx())
    assert firewall.conntrack_size == 2


def test_firewall_state_roundtrip_preserves_rules_and_conntrack():
    firewall = Firewall(rules=[FirewallRule(action=FirewallAction.DROP, protocol="udp")])
    firewall.process(up_tcp(), ctx())
    state = firewall.export_state()
    clone = Firewall()
    clone.import_state(state)
    assert clone.rules[0].protocol == "udp"
    assert clone.conntrack_size == 1
    assert clone.accepted == firewall.accepted
    # The restored conntrack still admits the established reply.
    assert clone.process(down_tcp(), ctx(Direction.DOWNSTREAM)) != []


def test_firewall_describe_and_state_size():
    firewall = Firewall(rules=[FirewallRule(action=FirewallAction.DROP, protocol="udp")])
    assert len(firewall.rules) == 1
    # What a migration sizes is the exported state: it grows with conntrack.
    before = len(str(firewall.export_state()))
    firewall.process(up_tcp(), ctx())
    assert firewall.conntrack_size == 1
    assert len(str(firewall.export_state())) > before


def test_firewall_rule_serialization_roundtrip():
    rule = FirewallRule(
        action=FirewallAction.DROP,
        protocol="tcp",
        src_cidr="10.10.0.0/16",
        dst_port_range=(1, 1024),
        direction=Direction.UPSTREAM,
        comment="block low ports",
    )
    restored = FirewallRule.from_dict(rule.to_dict())
    assert restored == rule


# --------------------------------------------------------------------------
# HTTP filter
# --------------------------------------------------------------------------


def http_request(host="blocked.example.com", path="/"):
    return pkt.make_http_request(CLIENT, SERVER, host=host, path=path)


def test_http_filter_blocks_host_with_403():
    nf = HTTPFilter(blocked_hosts=["blocked.example.com"])
    outputs = nf.process(http_request(), ctx())
    assert len(outputs) == 1
    response = outputs[0]
    assert isinstance(response.app, pkt.HTTPResponse)
    assert response.app.status == 403
    assert response.ip.dst == CLIENT
    assert nf.requests_blocked == 1


def test_http_filter_blocks_subdomains():
    nf = HTTPFilter(blocked_hosts=["example.com"])
    outputs = nf.process(http_request(host="ads.example.com"), ctx())
    assert outputs[0].app.status == 403


def test_http_filter_allows_other_hosts():
    nf = HTTPFilter(blocked_hosts=["blocked.example.com"])
    request = http_request(host="ok.example.org")
    assert nf.process(request, ctx()) == [request]
    assert nf.requests_blocked == 0


def test_http_filter_url_substring_blocking():
    nf = HTTPFilter(blocked_url_substrings=["/malware"])
    assert nf.process(http_request(host="any.com", path="/malware/dl"), ctx())[0].app.status == 403


def test_http_filter_blocks_response_content_type():
    nf = HTTPFilter(blocked_content_types=["video/mp4"])
    request = http_request(host="ok.com")
    response = pkt.make_http_response(request, content_type="video/mp4")
    assert nf.process(response, ctx(Direction.DOWNSTREAM)) == []
    assert nf.responses_blocked == 1


def test_http_filter_block_and_unblock_host():
    nf = HTTPFilter()
    nf.block_host("x.com")
    nf.block_host("x.com")
    assert nf.blocked_hosts == ["x.com"]
    nf.unblock_host("x.com")
    assert nf.blocked_hosts == []


def test_http_filter_notification_on_block():
    nf = HTTPFilter(blocked_hosts=["bad.com"], notify_on_block=True)
    nf.process(http_request(host="bad.com"), ctx())
    assert len(nf.notifications) == 1


def test_http_filter_state_roundtrip():
    nf = HTTPFilter(blocked_hosts=["bad.com"])
    nf.process(http_request(host="bad.com"), ctx())
    clone = HTTPFilter()
    clone.import_state(nf.export_state())
    assert clone.blocked_hosts == ["bad.com"]
    assert clone.requests_blocked == 1
    assert clone.block_counts == {"bad.com": 1}


# --------------------------------------------------------------------------
# DNS load balancer
# --------------------------------------------------------------------------


def dns_response(name="cdn.example.com", addresses=("203.0.113.10",)):
    query = pkt.make_dns_query(CLIENT, SERVER, name=name)
    return pkt.make_dns_response(query, addresses=addresses)


def test_dns_lb_rewrites_configured_names_round_robin():
    nf = DNSLoadBalancer(pools={"cdn.example.com": ["1.1.1.1", "2.2.2.2"]})
    first = nf.process(dns_response(), ctx(Direction.DOWNSTREAM))[0]
    second = nf.process(dns_response(), ctx(Direction.DOWNSTREAM))[0]
    assert first.app.addresses == ("1.1.1.1",)
    assert second.app.addresses == ("2.2.2.2",)
    assert nf.responses_rewritten == 2


def test_dns_lb_leaves_other_names_untouched():
    nf = DNSLoadBalancer(pools={"cdn.example.com": ["1.1.1.1"]})
    response = dns_response(name="other.example.com", addresses=("9.9.9.9",))
    assert nf.process(response, ctx(Direction.DOWNSTREAM))[0].app.addresses == ("9.9.9.9",)


def test_dns_lb_weighted_distribution():
    nf = DNSLoadBalancer()
    nf.add_pool("svc", ["a", "b"], weights=[3, 1])
    for _ in range(8):
        nf.process(dns_response(name="svc"), ctx(Direction.DOWNSTREAM))
    distribution = nf.backend_distribution("svc")
    assert distribution["a"] == 6
    assert distribution["b"] == 2


def test_dns_lb_counts_upstream_queries():
    nf = DNSLoadBalancer(pools={"svc": ["a"]})
    nf.process(pkt.make_dns_query(CLIENT, SERVER, name="svc"), ctx(Direction.UPSTREAM))
    assert nf.queries_seen == 1


def test_dns_lb_state_roundtrip_continues_rotation():
    nf = DNSLoadBalancer(pools={"svc": ["a", "b"]})
    nf.process(dns_response(name="svc"), ctx(Direction.DOWNSTREAM))
    clone = DNSLoadBalancer()
    clone.import_state(nf.export_state())
    rewritten = clone.process(dns_response(name="svc"), ctx(Direction.DOWNSTREAM))[0]
    assert rewritten.app.addresses == ("b",)


def test_dns_lb_empty_pool_rejected():
    with pytest.raises(ValueError):
        DNSLoadBalancer(pools={"svc": []})


# --------------------------------------------------------------------------
# Rate limiter
# --------------------------------------------------------------------------


def test_token_bucket_consumes_and_refills():
    bucket = TokenBucket(rate_bytes_per_s=1000, burst_bytes=1000)
    assert bucket.try_consume(800, now=0.0)
    assert not bucket.try_consume(800, now=0.0)
    assert bucket.try_consume(800, now=1.0)  # refilled 1000 bytes


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_bytes_per_s=0, burst_bytes=10)
    with pytest.raises(ValueError):
        TokenBucket(rate_bytes_per_s=10, burst_bytes=0)


def test_rate_limiter_polices_excess_traffic():
    nf = RateLimiter(rate_bps=8_000, burst_bytes=1_000)  # 1 kB/s
    passed = 0
    for _ in range(20):
        if nf.process(up_tcp(payload=400), ctx(now=0.0)):
            passed += 1
    assert passed < 20
    assert nf.packets_policed == 20 - passed


def test_rate_limiter_direction_toggles():
    nf = RateLimiter(rate_bps=1, burst_bytes=1, limit_upstream=False)
    assert nf.process(up_tcp(), ctx(Direction.UPSTREAM)) != []
    assert nf.process(down_tcp(), ctx(Direction.DOWNSTREAM)) == []


def test_rate_limiter_state_roundtrip_preserves_bucket_level():
    nf = RateLimiter(rate_bps=8_000, burst_bytes=10_000)
    nf.process(up_tcp(payload=4_000), ctx(now=0.0))
    level_before = nf.bucket_level(Direction.UPSTREAM)
    clone = RateLimiter()
    clone.import_state(nf.export_state())
    assert clone.bucket_level(Direction.UPSTREAM) == pytest.approx(level_before)
    assert clone.rate_bps == 8_000


# --------------------------------------------------------------------------
# NAT
# --------------------------------------------------------------------------


def test_nat_translates_and_reverses():
    nat = NAT(public_ip="192.0.2.1")
    outbound = up_tcp(sport=40000, dport=80)
    translated = nat.process(outbound, ctx(Direction.UPSTREAM))[0]
    assert translated.ip.src == "192.0.2.1"
    public_port = translated.l4.src_port
    reply = pkt.make_tcp_packet(SERVER, "192.0.2.1", 80, public_port)
    reversed_packet = nat.process(reply, ctx(Direction.DOWNSTREAM))[0]
    assert reversed_packet.ip.dst == CLIENT
    assert reversed_packet.l4.dst_port == 40000


def test_nat_reuses_binding_for_same_flow():
    nat = NAT()
    first = nat.process(up_tcp(sport=40000), ctx())[0].l4.src_port
    second = nat.process(up_tcp(sport=40000), ctx())[0].l4.src_port
    assert first == second
    assert nat.binding_count == 1


def test_nat_drops_unknown_inbound():
    nat = NAT(public_ip="192.0.2.1")
    stray = pkt.make_tcp_packet(SERVER, "192.0.2.1", 80, 55555)
    assert nat.process(stray, ctx(Direction.DOWNSTREAM)) == []
    assert nat.untranslatable_drops == 1


def test_nat_state_roundtrip_keeps_bindings():
    nat = NAT(public_ip="192.0.2.1")
    translated = nat.process(up_tcp(sport=40000), ctx())[0]
    public_port = translated.l4.src_port
    clone = NAT()
    clone.import_state(nat.export_state())
    reply = pkt.make_tcp_packet(SERVER, "192.0.2.1", 80, public_port)
    assert clone.process(reply, ctx(Direction.DOWNSTREAM))[0].ip.dst == CLIENT
    assert clone.binding_count == 1


def test_nat_port_exhaustion():
    nat = NAT(port_range=(20000, 20002))
    for sport in range(3):
        nat.process(up_tcp(sport=50000 + sport), ctx())
    with pytest.raises(RuntimeError):
        nat.process(up_tcp(sport=59999), ctx())


# --------------------------------------------------------------------------
# Edge cache
# --------------------------------------------------------------------------


def test_cache_miss_then_hit():
    cache = EdgeCache(capacity_mb=10)
    request = http_request(host="cdn.example.com", path="/video")
    assert cache.process(request, ctx()) == [request]
    assert cache.misses == 1
    response = pkt.make_http_response(request, body_bytes=50_000)
    cache.process(response, ctx(Direction.DOWNSTREAM))
    outputs = cache.process(http_request(host="cdn.example.com", path="/video"), ctx())
    assert outputs[0].app.headers.get("X-Cache") == "HIT"
    assert outputs[0].ip.dst == CLIENT
    assert cache.hits == 1
    assert cache.hit_ratio() == pytest.approx(0.5)


def test_cache_respects_ttl():
    cache = EdgeCache(ttl_s=10.0)
    request = http_request(host="a.com", path="/x")
    cache.process(request, ctx(now=0.0))
    cache.process(pkt.make_http_response(request, body_bytes=100), ctx(Direction.DOWNSTREAM, now=0.0))
    stale = cache.process(http_request(host="a.com", path="/x"), ctx(now=100.0))
    assert isinstance(stale[0].app, pkt.HTTPRequest)  # expired -> forwarded upstream


def test_cache_evicts_lru_when_full():
    # max_object_fraction=0.5 lets the 40 kB objects past size-aware
    # admission (the 0.25 default would reject them outright).
    cache = EdgeCache(capacity_mb=0.1, max_object_fraction=0.5)  # 100 kB
    for index in range(5):
        request = http_request(host="a.com", path=f"/obj{index}")
        cache.process(request, ctx())
        cache.process(pkt.make_http_response(request, body_bytes=40_000), ctx(Direction.DOWNSTREAM))
    assert cache.evictions > 0
    assert cache.used_mb <= 0.1 + 1e-6


def test_cache_does_not_store_error_responses():
    cache = EdgeCache()
    request = http_request(host="a.com", path="/err")
    cache.process(request, ctx())
    cache.process(pkt.make_http_response(request, status=500, body_bytes=10), ctx(Direction.DOWNSTREAM))
    assert cache.object_count == 0


def test_cache_state_roundtrip_keeps_objects():
    cache = EdgeCache()
    request = http_request(host="a.com", path="/x")
    cache.process(request, ctx())
    cache.process(pkt.make_http_response(request, body_bytes=2_000), ctx(Direction.DOWNSTREAM))
    clone = EdgeCache()
    clone.import_state(cache.export_state())
    outputs = clone.process(http_request(host="a.com", path="/x"), ctx())
    assert outputs[0].app.headers.get("X-Cache") == "HIT"


def test_cache_invalid_capacity():
    with pytest.raises(ValueError):
        EdgeCache(capacity_mb=0)


# --------------------------------------------------------------------------
# IDS
# --------------------------------------------------------------------------


def test_ids_detects_malware_signature():
    ids = IntrusionDetector(malware_signatures=["EICAR"])
    packet = up_tcp()
    packet.metadata["payload_signature"] = "EICAR"
    outputs = ids.process(packet, ctx(now=1.0))
    assert outputs == [packet]  # detection, not prevention
    assert ids.malware_detections == 1
    assert ids.notifications[0].severity == "critical"


def test_ids_detects_port_scan_once_per_source():
    ids = IntrusionDetector(port_scan_threshold=10, port_scan_window_s=10.0)
    for port in range(25):
        ids.process(up_tcp(dport=port + 1), ctx(now=0.1 * port))
    assert ids.port_scan_detections == 1


def test_ids_port_scan_window_expires():
    ids = IntrusionDetector(port_scan_threshold=10, port_scan_window_s=1.0)
    for port in range(20):
        ids.process(up_tcp(dport=port + 1), ctx(now=float(port)))  # 1 port/second
    assert ids.port_scan_detections == 0


def test_ids_detects_syn_flood():
    ids = IntrusionDetector(syn_flood_threshold=50, syn_flood_window_s=1.0)
    for index in range(60):
        packet = pkt.make_tcp_packet(CLIENT, SERVER, 40000 + index, 80, syn=True)
        ids.process(packet, ctx(now=0.001 * index))
    assert ids.syn_flood_detections == 1
    assert ids.alerts_raised >= 1


def test_ids_state_roundtrip_suppresses_duplicate_alerts():
    ids = IntrusionDetector(port_scan_threshold=5)
    for port in range(10):
        ids.process(up_tcp(dport=port + 1), ctx(now=0.01 * port))
    assert ids.port_scan_detections == 1
    clone = IntrusionDetector(port_scan_threshold=5)
    clone.import_state(ids.export_state())
    detections_after_import = clone.port_scan_detections
    # The migrated IDS remembers it already alerted for this source and does
    # not raise a duplicate alert when the scan continues at the new station.
    for port in range(10):
        clone.process(up_tcp(dport=port + 1), ctx(now=1.0 + 0.01 * port))
    assert clone.port_scan_detections == detections_after_import
    assert len(clone.notifications) == 0


# --------------------------------------------------------------------------
# Flow monitor and L4 load balancer
# --------------------------------------------------------------------------


def test_flow_monitor_accounts_traffic_and_top_talkers():
    monitor = FlowMonitor()
    for _ in range(3):
        monitor.process(up_tcp(), ctx(Direction.UPSTREAM))
    monitor.process(down_tcp(), ctx(Direction.DOWNSTREAM))
    summary = monitor.traffic_summary()
    assert summary["upstream_bytes"] > 0
    assert summary["downstream_bytes"] > 0
    assert monitor.top_talkers()[0]["packets"] == 4  # bidirectional fold


def test_flow_monitor_passthrough():
    monitor = FlowMonitor()
    packet = up_tcp()
    assert monitor.process(packet, ctx()) == [packet]


def test_l4_lb_distributes_new_connections():
    lb = L4LoadBalancer(virtual_ip="198.51.100.10", backends=["10.30.0.11", "10.30.0.12"])
    chosen = set()
    for sport in range(4):
        packet = pkt.make_tcp_packet(CLIENT, "198.51.100.10", 40000 + sport, 80)
        chosen.add(lb.process(packet, ctx())[0].ip.dst)
    assert chosen == {"10.30.0.11", "10.30.0.12"}


def test_l4_lb_affinity_keeps_flow_on_same_backend():
    lb = L4LoadBalancer(backends=["a", "b"])
    first = lb.process(pkt.make_tcp_packet(CLIENT, "198.51.100.10", 40000, 80), ctx())[0].ip.dst
    second = lb.process(pkt.make_tcp_packet(CLIENT, "198.51.100.10", 40000, 80), ctx())[0].ip.dst
    assert first == second
    assert lb.affinity_count == 1


def test_l4_lb_rewrites_backend_source_on_return():
    lb = L4LoadBalancer(virtual_ip="198.51.100.10", backends=["10.30.0.11"])
    lb.process(pkt.make_tcp_packet(CLIENT, "198.51.100.10", 40000, 80), ctx())
    reply = pkt.make_tcp_packet("10.30.0.11", CLIENT, 80, 40000)
    assert lb.process(reply, ctx(Direction.DOWNSTREAM))[0].ip.src == "198.51.100.10"


def test_l4_lb_least_connections_strategy():
    lb = L4LoadBalancer(backends=["a", "b"], strategy="least-connections")
    lb.connections_per_backend["a"] = 5
    packet = pkt.make_tcp_packet(CLIENT, "198.51.100.10", 40001, 80)
    assert lb.process(packet, ctx())[0].ip.dst == "b"


def test_l4_lb_requires_backends_and_valid_strategy():
    with pytest.raises(ValueError):
        L4LoadBalancer(strategy="magic")
    lb = L4LoadBalancer(backends=[])
    with pytest.raises(RuntimeError):
        lb.process(pkt.make_tcp_packet(CLIENT, "198.51.100.10", 1, 80), ctx())


def test_l4_lb_state_roundtrip_keeps_affinity():
    lb = L4LoadBalancer(backends=["a", "b"])
    backend = lb.process(pkt.make_tcp_packet(CLIENT, "198.51.100.10", 40000, 80), ctx())[0].ip.dst
    clone = L4LoadBalancer()
    clone.import_state(lb.export_state())
    again = clone.process(pkt.make_tcp_packet(CLIENT, "198.51.100.10", 40000, 80), ctx())[0].ip.dst
    assert again == backend
