"""Network emulation substrate for the GNF reproduction.

This package provides the emulated edge testbed that replaces the paper's
physical demo hardware (home routers, Wi-Fi cells, smartphones):

* :mod:`repro.netem.simulator` -- deterministic discrete-event simulation
  kernel every other subsystem is driven by.
* :mod:`repro.netem.packet` -- explicit packet model (Ethernet/IPv4/TCP/UDP/
  ICMP plus HTTP and DNS application payloads).
* :mod:`repro.netem.addressing` -- MAC and IPv4 address allocation.
* :mod:`repro.netem.link` / :mod:`repro.netem.host` -- links with bandwidth,
  propagation delay, loss and queueing; hosts and network interfaces.
* :mod:`repro.netem.flowtable` / :mod:`repro.netem.switch` -- the per-station
  software switch (learning switch + priority match/action flow table) used
  by GNF Agents to transparently steer a client's traffic through NF
  containers.
* :mod:`repro.netem.fastpath` -- the flow-cached fast path (microflow cache,
  compiled verdicts) that lets switches forward steady-state flows without a
  per-packet table walk or forwarding-delay event.
* :mod:`repro.netem.topology` / :mod:`repro.netem.routing` -- edge topologies
  (core DC, gateway, edge stations, cells) and shortest-path routing.
* :mod:`repro.netem.flows` / :mod:`repro.netem.trafficgen` -- flow bookkeeping
  and workload generators (HTTP, DNS, CBR, video-like bursts).
"""

from repro.netem.simulator import Simulator, Event, Process
from repro.netem.packet import (
    Packet,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
    ICMPHeader,
    HTTPRequest,
    HTTPResponse,
    DNSQuery,
    DNSResponse,
    FlowKey,
)
from repro.netem.addressing import MACAllocator, IPv4Allocator, Subnet
from repro.netem.link import Link, LinkStats
from repro.netem.host import Host, Interface
from repro.netem.flowtable import FlowTable, FlowRule, Match, Action, ActionType
from repro.netem.fastpath import CompiledVerdict, FlowCache
from repro.netem.switch import SoftwareSwitch
from repro.netem.topology import EdgeTopology, TopologyConfig
from repro.netem.routing import RoutingTable, compute_routes
from repro.netem.flows import Flow, FlowTracker
from repro.netem.trafficgen import (
    CBRTrafficGenerator,
    HTTPWorkloadGenerator,
    DNSWorkloadGenerator,
    VideoWorkloadGenerator,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Packet",
    "EthernetHeader",
    "IPv4Header",
    "TCPHeader",
    "UDPHeader",
    "ICMPHeader",
    "HTTPRequest",
    "HTTPResponse",
    "DNSQuery",
    "DNSResponse",
    "FlowKey",
    "MACAllocator",
    "IPv4Allocator",
    "Subnet",
    "Link",
    "LinkStats",
    "Host",
    "Interface",
    "FlowTable",
    "FlowRule",
    "Match",
    "Action",
    "ActionType",
    "CompiledVerdict",
    "FlowCache",
    "SoftwareSwitch",
    "EdgeTopology",
    "TopologyConfig",
    "RoutingTable",
    "compute_routes",
    "Flow",
    "FlowTracker",
    "CBRTrafficGenerator",
    "HTTPWorkloadGenerator",
    "DNSWorkloadGenerator",
    "VideoWorkloadGenerator",
]
