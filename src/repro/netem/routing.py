"""Static IP routing helpers.

The emulated testbed mostly relies on the gateway's mobility-anchor
forwarding (see :mod:`repro.netem.topology`), but routers, tests and the
latency benchmarks also need a general longest-prefix-match routing table and
a way to derive next hops from the topology graph.  The graph is a plain
adjacency mapping ``node -> {neighbour: delay}`` and ``compute_routes`` is a
``heapq`` Dijkstra over it, so the package needs no graph library.
"""

from __future__ import annotations

import heapq
import ipaddress
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

DelayGraph = Dict[Hashable, Dict[Hashable, float]]


@dataclass(frozen=True)
class RouteEntry:
    """A routing table entry: destination prefix -> (next hop, interface)."""

    prefix: str
    next_hop: str
    interface_name: str
    metric: float = 1.0

    @property
    def network(self) -> ipaddress.IPv4Network:
        return ipaddress.ip_network(self.prefix)


class RoutingTable:
    """Longest-prefix-match IPv4 routing table."""

    def __init__(self) -> None:
        self._entries: List[RouteEntry] = []

    def add_route(self, prefix: str, next_hop: str, interface_name: str, metric: float = 1.0) -> RouteEntry:
        """Install a route; more-specific prefixes automatically win lookups."""
        entry = RouteEntry(prefix=prefix, next_hop=next_hop, interface_name=interface_name, metric=metric)
        self._entries.append(entry)
        self._entries.sort(key=lambda e: (-e.network.prefixlen, e.metric))
        return entry

    def remove_route(self, prefix: str) -> bool:
        """Remove every entry for ``prefix``; returns True if any was removed."""
        before = len(self._entries)
        self._entries = [entry for entry in self._entries if entry.prefix != prefix]
        return len(self._entries) != before

    def lookup(self, destination: str) -> Optional[RouteEntry]:
        """Longest-prefix-match lookup; returns ``None`` when no route covers it."""
        address = ipaddress.ip_address(destination)
        for entry in self._entries:
            if address in entry.network:
                return entry
        return None

    def __len__(self) -> int:
        return len(self._entries)


def build_topology_graph(links: List[Tuple[Hashable, Hashable, float]]) -> DelayGraph:
    """Build an undirected delay-weighted graph from (node, node, delay) triples."""
    graph: DelayGraph = {}
    for node_a, node_b, delay in links:
        graph.setdefault(node_a, {})[node_b] = delay
        graph.setdefault(node_b, {})[node_a] = delay
    return graph


def compute_routes(
    graph: DelayGraph,
    source: Hashable,
) -> Dict[Hashable, Tuple[List[Hashable], float]]:
    """Shortest paths (by delay) from ``source`` to every reachable node.

    Returns a mapping ``destination -> (path, total_delay)``.
    """
    if source not in graph:
        raise KeyError(f"source {source!r} not in topology graph")
    routes: Dict[Hashable, Tuple[List[Hashable], float]] = {}
    # The push counter breaks delay ties, so node keys are never compared.
    frontier = [(0.0, 0, source, [source])]
    pushed = 1
    while frontier:
        delay, _, node, path = heapq.heappop(frontier)
        if node in routes:
            continue
        routes[node] = (path, delay)
        for neighbour, hop_delay in graph[node].items():
            if neighbour not in routes:
                heapq.heappush(frontier, (delay + hop_delay, pushed, neighbour, path + [neighbour]))
                pushed += 1
    return routes


def path_delay(graph: DelayGraph, source: Hashable, destination: Hashable) -> float:
    """Total propagation delay along the shortest path between two nodes."""
    return float(compute_routes(graph, source)[destination][1])
