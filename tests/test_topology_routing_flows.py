"""Unit tests for topologies, routing helpers and flow tracking."""

from __future__ import annotations

import pytest

from repro.netem import packet as pkt
from repro.netem.flows import FlowTracker
from repro.netem.routing import RoutingTable, build_topology_graph, compute_routes, path_delay
from repro.netem.simulator import Simulator
from repro.netem.topology import EdgeTopology, StationProfile, TopologyConfig


# --------------------------------------------------------------------------
# Routing helpers
# --------------------------------------------------------------------------


def test_routing_table_longest_prefix_match():
    table = RoutingTable()
    table.add_route("10.0.0.0/8", "gw1", "eth0")
    table.add_route("10.1.0.0/16", "gw2", "eth1")
    assert table.lookup("10.1.2.3").next_hop == "gw2"
    assert table.lookup("10.9.0.1").next_hop == "gw1"
    assert table.lookup("192.168.0.1") is None


def test_routing_table_remove_route():
    table = RoutingTable()
    table.add_route("10.0.0.0/8", "gw1", "eth0")
    assert table.remove_route("10.0.0.0/8")
    assert not table.remove_route("10.0.0.0/8")
    assert len(table) == 0


def test_compute_routes_shortest_by_delay():
    graph = build_topology_graph(
        [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 5.0)]
    )
    routes = compute_routes(graph, "a")
    path, delay = routes["c"]
    assert path == ["a", "b", "c"]
    assert delay == pytest.approx(2.0)
    assert path_delay(graph, "a", "c") == pytest.approx(2.0)


def test_compute_routes_unknown_source():
    graph = build_topology_graph([("a", "b", 1.0)])
    with pytest.raises(KeyError):
        compute_routes(graph, "zzz")
    with pytest.raises(KeyError):
        path_delay(graph, "a", "zzz")


def test_compute_routes_never_compares_node_keys():
    # Two equal-delay routes to "d", and node keys (1, "a") that do not
    # order against each other: ties fall to discovery order.
    graph = build_topology_graph(
        [("s", 1, 1.0), ("s", "a", 1.0), (1, "d", 1.0), ("a", "d", 1.0), ("d", "island", 0.0)]
    )
    routes = compute_routes(graph, "s")
    assert routes["s"] == (["s"], 0.0)
    assert routes[1] == (["s", 1], 1.0) and routes["a"] == (["s", "a"], 1.0)
    assert routes["d"] == (["s", 1, "d"], 2.0)
    assert routes["island"] == (["s", 1, "d", "island"], 2.0)
    assert set(routes) == set(graph)
    # Unreachable nodes are simply absent.
    graph.update(build_topology_graph([("x", "y", 1.0)]))
    assert "x" not in compute_routes(graph, "s")


# --------------------------------------------------------------------------
# EdgeTopology
# --------------------------------------------------------------------------


def test_topology_builds_requested_inventory(simulator):
    topology = EdgeTopology(simulator, TopologyConfig(station_count=3, server_count=2))
    summary = topology.summary()
    assert summary["stations"] == 3
    assert summary["servers"] == 2
    assert len(topology.gateway.station_interfaces) == 3


def test_station_profiles():
    router = StationProfile.router_class()
    server = StationProfile.server_class()
    assert router.memory_mb < server.memory_mb
    assert router.cpu_mhz < server.cpu_mhz


def test_topology_duplicate_station_rejected(topology):
    with pytest.raises(ValueError):
        topology.add_station("station-1")


def test_topology_duplicate_server_rejected(topology):
    with pytest.raises(ValueError):
        topology.add_server("server-1")


def test_gateway_registers_servers(topology):
    server_ip = topology.any_server_ip()
    assert server_ip in topology.gateway.server_macs


def test_gateway_client_location_updates(topology):
    topology.register_client("10.10.0.5", "02:00:00:00:00:55", "station-1")
    assert topology.gateway.client_locations["10.10.0.5"] == "station-1"
    topology.gateway.update_client_location("10.10.0.5", "station-2")
    assert topology.gateway.client_locations["10.10.0.5"] == "station-2"
    assert topology.gateway.location_updates == 2


def test_gateway_unknown_station_rejected(topology):
    with pytest.raises(KeyError):
        topology.gateway.update_client_location("10.10.0.5", "station-99")


def test_gateway_drops_unroutable_packets(topology, simulator):
    packet = pkt.make_udp_packet("10.10.0.5", "172.31.0.9", 1, 2)
    topology.gateway.receive_packet(packet, topology.gateway.core_interface)
    simulator.run()
    assert topology.gateway.packets_dropped == 1


def test_gateway_routes_upstream_to_server(topology, simulator):
    server = topology.server("server-1")
    packet = pkt.make_udp_packet("10.10.0.5", server.ip, 1, 9000)
    station_iface = topology.gateway.station_interfaces["station-1"]
    topology.gateway.receive_packet(packet, station_iface)
    simulator.run()
    assert topology.gateway.packets_routed_upstream == 1
    assert server.udp_packets_echoed == 1


def test_gateway_ttl_expiry(topology, simulator):
    server = topology.server("server-1")
    packet = pkt.make_udp_packet("10.10.0.5", server.ip, 1, 9000)
    packet.ip.ttl = 1
    topology.gateway.receive_packet(packet, topology.gateway.station_interfaces["station-1"])
    simulator.run()
    assert topology.gateway.packets_dropped == 1


def test_station_default_uplink_rule_installed_on_cell_registration(topology):
    station = topology.station("station-1")
    assert station.uplink_port is not None
    before = len(station.switch.flow_table)
    station.register_cell_port("cellX", 42)
    assert len(station.switch.flow_table) == before + 1


def test_station_client_association_rules(topology):
    station = topology.station("station-1")
    station.register_cell_port("cellX", 42)
    station.register_client("10.10.0.7", "cellX")
    assert station.associated_client_rules() == ["assoc:10.10.0.7"]
    # Re-registering replaces rather than duplicates.
    station.register_client("10.10.0.7", "cellX")
    assert len(station.switch.flow_table.rules(cookie="assoc:10.10.0.7")) == 1
    station.unregister_client("10.10.0.7")
    assert station.associated_client_rules() == []


def test_topology_graph_and_latencies(topology):
    graph = topology.graph()
    assert "gateway" in graph and "station-1" in graph
    assert path_delay(graph, "station-1", "station-2") == pytest.approx(
        topology.station_to_station_latency("station-1", "station-2")
    )
    assert topology.control_latency("station-1") == pytest.approx(
        EdgeTopology.uplink_delay_s + EdgeTopology.core_delay_s
    )
    assert topology.station_to_station_latency("station-1", "station-1") == 0.0
    assert topology.station_to_station_latency("station-1", "station-2") == pytest.approx(
        2 * EdgeTopology.uplink_delay_s
    )
    with pytest.raises(KeyError):
        topology.control_latency("station-99")


# --------------------------------------------------------------------------
# FlowTracker
# --------------------------------------------------------------------------


def test_flow_tracker_accounts_per_flow():
    tracker = FlowTracker()
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1000, 80, payload_bytes=100)
    tracker.observe(packet, now=1.0)
    tracker.observe(packet, now=2.0)
    flow = tracker.flow(packet.flow_key)
    assert flow.packets == 2
    assert flow.bytes == 2 * packet.size_bytes
    assert flow.duration == pytest.approx(1.0)
    assert flow.throughput_bps() == pytest.approx(2 * packet.size_bytes * 8)


def test_flow_tracker_bidirectional_folding():
    tracker = FlowTracker(bidirectional=True)
    forward = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1000, 80)
    reverse = pkt.make_tcp_packet("10.0.0.2", "10.0.0.1", 80, 1000)
    tracker.observe(forward, 1.0)
    tracker.observe(reverse, 1.1)
    assert len(tracker) == 1


def test_flow_tracker_idle_expiry():
    tracker = FlowTracker(idle_timeout_s=5.0)
    tracker.observe(pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2), 0.0)
    expired = tracker.expire_idle(now=10.0)
    assert len(expired) == 1
    assert len(tracker) == 0
    assert tracker.expired_flows == 1


def test_flow_tracker_ignores_non_ip():
    tracker = FlowTracker()
    assert tracker.observe(pkt.Packet(eth=pkt.EthernetHeader("a", "b")), 0.0) is None


def test_flow_tracker_top_flows_and_snapshot():
    tracker = FlowTracker()
    small = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 80, payload_bytes=10)
    big = pkt.make_tcp_packet("10.0.0.3", "10.0.0.2", 2, 80, payload_bytes=5000)
    tracker.observe(small, 0.0)
    tracker.observe(big, 0.0)
    top = tracker.top_flows(1)
    assert top[0].key.src_ip == "10.0.0.3"
    snapshot = tracker.snapshot()
    assert snapshot["active_flows"] == 2
    assert snapshot["total_packets"] == 2
