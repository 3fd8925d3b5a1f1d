"""Edge network topologies.

This module builds the emulated equivalent of the paper's demo setup
(Fig. 2): a set of edge stations (home routers / access points that host NF
containers), a gateway that anchors mobile clients' traffic, and a core data
centre with application servers.  The :class:`EdgeTopology` object is the
single source of truth about who is wired to what and is consumed by the
wireless layer (which attaches cells and clients), by the GNF Agents (which
steer traffic on the station switches) and by the placement/latency
benchmarks (via the delay-weighted topology graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netem.addressing import AddressPlan
from repro.netem.flowtable import Action, Match
from repro.netem.host import Host, Interface, Server
from repro.netem.link import Link
from repro.netem.packet import Packet
from repro.netem.routing import DelayGraph, build_topology_graph
from repro.netem.simulator import Simulator
from repro.netem.switch import SoftwareSwitch

# Flow rule priorities used on the station switches.  GNF chain steering
# (installed by Agents) uses CHAIN_PRIORITY and therefore always overrides
# the plain association rules.
DEFAULT_PRIORITY = 1
ASSOCIATION_PRIORITY = 5
CHAIN_PRIORITY = 100


@dataclass(frozen=True)
class StationProfile:
    """Compute capacity of an edge station.

    ``ROUTER_CLASS`` mirrors the TP-Link WDR3600 home routers used in the
    demo; ``SERVER_CLASS`` mirrors a small x86 edge server.
    """

    name: str
    cpu_mhz: float
    memory_mb: float
    switch_forwarding_delay_s: float

    @classmethod
    def router_class(cls) -> "StationProfile":
        return cls(name="router-class", cpu_mhz=560.0, memory_mb=128.0, switch_forwarding_delay_s=50e-6)

    @classmethod
    def server_class(cls) -> "StationProfile":
        return cls(name="server-class", cpu_mhz=4 * 3000.0, memory_mb=16_384.0, switch_forwarding_delay_s=5e-6)


#: The names a deployment config may give its ``station_profile``.
STATION_PROFILES: Dict[str, StationProfile] = {
    "router": StationProfile.router_class(),
    "server": StationProfile.server_class(),
}


@dataclass
class TopologyConfig:
    """Tunable parameters of the emulated edge deployment."""

    station_count: int = 2
    station_profile: StationProfile = field(default_factory=StationProfile.router_class)
    station_spacing_m: float = 100.0
    uplink_bandwidth_bps: float = 100e6
    server_count: int = 1
    dns_zone: Dict[str, List[str]] = field(default_factory=dict)
    #: Enable the flow-cached fast path on every station switch.
    fastpath_enabled: bool = True


class EdgeStation:
    """An edge station: the software switch plus its compute resources.

    The container runtime (``repro.containers``) and the GNF Agent
    (``repro.core.agent``) attach themselves to the station after topology
    construction; the station itself only knows about wiring and about the
    flow rules that keep associated clients reachable.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        profile: StationProfile,
        position: Tuple[float, float] = (0.0, 0.0),
        fastpath_enabled: bool = True,
    ) -> None:
        self.simulator = simulator
        self.name = name
        self.profile = profile
        self.position = position
        self.switch = SoftwareSwitch(
            simulator,
            name=f"{name}-switch",
            forwarding_delay_s=profile.switch_forwarding_delay_s,
            fastpath_enabled=fastpath_enabled,
        )
        self.uplink_port: Optional[int] = None
        self.cell_ports: Dict[str, int] = {}
        # Attached later by the containers / core packages.
        self.runtime = None
        self.agent = None

    # ------------------------------------------------------------- wiring

    def set_uplink_port(self, port_number: int) -> None:
        self.uplink_port = port_number

    def register_cell_port(self, cell_name: str, port_number: int) -> None:
        """Record that ``cell_name`` is reachable through switch port ``port_number``."""
        self.cell_ports[cell_name] = port_number
        if self.uplink_port is not None:
            # Default upstream rule: anything a client sends towards the
            # network leaves through the uplink unless a chain rule overrides.
            self.switch.flow_table.add(
                priority=DEFAULT_PRIORITY,
                match=Match(in_port=port_number),
                actions=[Action.output(self.uplink_port)],
                cookie=f"default-up:{cell_name}",
            )

    # ----------------------------------------------------- client presence

    def register_client(self, client_ip: str, cell_name: str) -> None:
        """Install the downstream association rule for a newly attached client."""
        port = self.cell_ports[cell_name]
        self.unregister_client(client_ip)
        self.switch.flow_table.add(
            priority=ASSOCIATION_PRIORITY,
            match=Match(ip_dst=client_ip),
            actions=[Action.output(port)],
            cookie=f"assoc:{client_ip}",
        )

    def unregister_client(self, client_ip: str) -> None:
        """Remove the association rule when the client leaves this station."""
        self.switch.flow_table.remove_by_cookie(f"assoc:{client_ip}")

    def associated_client_rules(self) -> List[str]:
        """Cookies of the association rules currently installed (for tests/UI)."""
        return sorted(
            {rule.cookie for rule in self.switch.flow_table.rules() if rule.cookie.startswith("assoc:")}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EdgeStation({self.name!r}, profile={self.profile.name})"


class Gateway(Host):
    """Mobility-anchor router between the edge stations and the core.

    In the demo the provider's network sits behind an Internet gateway; the
    reproduction models it as the node that (a) routes upstream traffic to
    the core servers and (b) keeps a client-location table so downstream
    traffic follows the client as it roams -- which is what makes NF roaming
    observable end-to-end.
    """

    def __init__(self, simulator: Simulator, name: str = "gateway", forwarding_delay_s: float = 10e-6) -> None:
        super().__init__(simulator, name)
        self.forwarding_delay_s = forwarding_delay_s
        self.station_interfaces: Dict[str, Interface] = {}
        self.core_interface: Optional[Interface] = None
        self.server_macs: Dict[str, str] = {}
        self.client_locations: Dict[str, str] = {}
        self.client_macs: Dict[str, str] = {}
        #: Migration state-transfer endpoints: IP -> (station, endpoint MAC).
        #: Registered by the migration engine so checkpoint chunks ride the
        #: same uplinks as client traffic (kept out of the client counters).
        self.migration_endpoints: Dict[str, Tuple[str, str]] = {}
        self.packets_routed_upstream = 0
        self.packets_routed_downstream = 0
        self.packets_dropped = 0
        self.state_chunks_routed = 0
        self.location_updates = 0

    # ------------------------------------------------------------ registry

    def register_station(self, station_name: str, interface: Interface) -> None:
        self.station_interfaces[station_name] = interface

    def register_server(self, server_ip: str, server_mac: str) -> None:
        self.server_macs[server_ip] = server_mac

    def register_client(self, client_ip: str, client_mac: str, station_name: str) -> None:
        """Create or update the anchor entry for a client."""
        self.client_macs[client_ip] = client_mac
        self.update_client_location(client_ip, station_name)

    def update_client_location(self, client_ip: str, station_name: str) -> None:
        """Point downstream forwarding for ``client_ip`` at ``station_name``."""
        if station_name not in self.station_interfaces:
            raise KeyError(f"gateway does not know station {station_name!r}")
        self.client_locations[client_ip] = station_name
        self.location_updates += 1

    def register_migration_endpoint(self, ip: str, mac: str, station_name: str) -> None:
        """Route a station's migration endpoint address to that station."""
        if station_name not in self.station_interfaces:
            raise KeyError(f"gateway does not know station {station_name!r}")
        self.migration_endpoints[ip] = (station_name, mac)

    # ---------------------------------------------------------- forwarding

    def handle_packet(self, packet: Packet, interface: Interface) -> None:
        if packet.ip is None:
            self.packets_dropped += 1
            return
        if not packet.decrement_ttl():
            self.packets_dropped += 1
            return
        self.simulator.call_later(self.forwarding_delay_s, self._route, packet)

    def _route(self, packet: Packet) -> None:
        assert packet.ip is not None
        destination = packet.ip.dst
        if destination in self.server_macs:
            if self.core_interface is None:
                self.packets_dropped += 1
                return
            if packet.eth is not None:
                packet.eth.src = self.core_interface.mac
                packet.eth.dst = self.server_macs[destination]
            self.packets_routed_upstream += 1
            self.core_interface.send(packet)
            return
        endpoint = self.migration_endpoints.get(destination)
        if endpoint is not None:
            station_name, endpoint_mac = endpoint
            out = self.station_interfaces[station_name]
            if packet.eth is not None:
                packet.eth.src = out.mac
                packet.eth.dst = endpoint_mac
            self.state_chunks_routed += 1
            out.send(packet)
            return
        station_name = self.client_locations.get(destination)
        if station_name is not None:
            out = self.station_interfaces[station_name]
            if packet.eth is not None:
                packet.eth.src = out.mac
                packet.eth.dst = self.client_macs.get(destination, packet.eth.dst)
            self.packets_routed_downstream += 1
            out.send(packet)
            return
        self.packets_dropped += 1


class EdgeTopology:
    """The full emulated deployment: gateway, core, servers and edge stations."""

    #: Constants of the deployment's shape: every station's backhaul and the
    #: core share them.
    uplink_delay_s = 0.005
    core_bandwidth_bps = 10e9
    core_delay_s = 0.010
    gateway_forwarding_delay_s = 10e-6
    server_http_body_bytes = 10_000

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[TopologyConfig] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config or TopologyConfig()
        self.addresses = AddressPlan()
        self.gateway = Gateway(
            simulator, forwarding_delay_s=self.gateway_forwarding_delay_s
        )
        self.core_switch = SoftwareSwitch(simulator, name="core-switch", forwarding_delay_s=2e-6)
        self.stations: Dict[str, EdgeStation] = {}
        self.servers: Dict[str, Server] = {}
        self.links: List[Link] = []
        #: station name -> its uplink to the gateway (fault-injection handle).
        self.uplink_links: Dict[str, Link] = {}
        #: server IP -> its link to the core switch.
        self.server_links: Dict[str, Link] = {}
        self._build_core()
        for index in range(self.config.station_count):
            self.add_station(f"station-{index + 1}")
        for index in range(self.config.server_count):
            self.add_server(f"server-{index + 1}")

    # --------------------------------------------------------------- build

    def _build_core(self) -> None:
        gw_core_iface = Interface(
            name="gw-core", mac=self.addresses.allocate_mac(),
            ip=self.addresses.allocate_ip("control", owner="gateway"),
        )
        self.gateway.add_interface(gw_core_iface)
        self.gateway.core_interface = gw_core_iface
        core_port_iface = Interface(name="core-to-gw", mac=self.addresses.allocate_mac())
        self.core_switch.add_port(core_port_iface)
        link = Link(
            self.simulator,
            bandwidth_bps=self.core_bandwidth_bps,
            delay_s=self.core_delay_s,
            name="gw-core-link",
        )
        link.attach(gw_core_iface, core_port_iface)
        self.links.append(link)
        #: The gateway--core-switch link every upstream flow crosses.
        self.core_link = link

    def add_station(
        self,
        name: str,
        profile: Optional[StationProfile] = None,
        position: Optional[Tuple[float, float]] = None,
    ) -> EdgeStation:
        """Create an edge station and wire its uplink to the gateway."""
        if name in self.stations:
            raise ValueError(f"station {name!r} already exists")
        index = len(self.stations)
        station = EdgeStation(
            self.simulator,
            name=name,
            profile=profile or self.config.station_profile,
            position=position or (index * self.config.station_spacing_m, 0.0),
            fastpath_enabled=self.config.fastpath_enabled,
        )
        # Station-side uplink interface plugged into the station switch.
        station_uplink_iface = Interface(name=f"{name}-uplink", mac=self.addresses.allocate_mac())
        uplink_port = station.switch.add_port(station_uplink_iface)
        station.set_uplink_port(uplink_port.number)
        # Gateway-side interface.
        gw_iface = Interface(
            name=f"gw-to-{name}",
            mac=self.addresses.allocate_mac(),
            ip=self.addresses.allocate_ip("control", owner=f"gateway:{name}"),
        )
        self.gateway.add_interface(gw_iface)
        self.gateway.register_station(name, gw_iface)
        link = Link(
            self.simulator,
            bandwidth_bps=self.config.uplink_bandwidth_bps,
            delay_s=self.uplink_delay_s,
            name=f"{name}-uplink-link",
        )
        link.attach(station_uplink_iface, gw_iface)
        self.links.append(link)
        self.uplink_links[name] = link
        self.stations[name] = station
        return station

    def add_server(self, name: str) -> Server:
        """Create an application server in the core and plug it into the core switch."""
        if name in self.servers:
            raise ValueError(f"server {name!r} already exists")
        server = Server(
            self.simulator,
            name=name,
            http_body_bytes=self.server_http_body_bytes,
            dns_zone=dict(self.config.dns_zone),
        )
        server_iface = Interface(
            name=f"{name}-eth0",
            mac=self.addresses.allocate_mac(),
            ip=self.addresses.allocate_ip("servers", owner=name),
        )
        server.add_interface(server_iface)
        core_iface = Interface(name=f"core-to-{name}", mac=self.addresses.allocate_mac())
        self.core_switch.add_port(core_iface)
        link = Link(
            self.simulator,
            bandwidth_bps=self.core_bandwidth_bps,
            delay_s=0.0005,
            name=f"{name}-core-link",
        )
        link.attach(server_iface, core_iface)
        self.links.append(link)
        assert server_iface.ip is not None
        self.server_links[server_iface.ip] = link
        self.gateway.register_server(server_iface.ip, server_iface.mac)
        self.servers[name] = server
        return server

    # ------------------------------------------------------- cells/clients

    def connect_cell(self, cell: Host, station_name: str, wired_interface: Interface) -> int:
        """Plug a wireless cell's wired interface into a station switch.

        Returns the switch port number the cell occupies.  The cell object is
        created by :mod:`repro.wireless`; the topology only handles wiring.
        """
        station = self.stations[station_name]
        switch_iface = Interface(name=f"{station_name}-to-{cell.name}", mac=self.addresses.allocate_mac())
        port = station.switch.add_port(switch_iface)
        link = Link(
            self.simulator,
            bandwidth_bps=1e9,
            delay_s=0.0001,
            name=f"{station_name}-{cell.name}-wire",
        )
        link.attach(wired_interface, switch_iface)
        self.links.append(link)
        station.register_cell_port(cell.name, port.number)
        return port.number

    def register_client(self, client_ip: str, client_mac: str, station_name: str) -> None:
        """Anchor a client at a station (called on first association and handover)."""
        self.gateway.register_client(client_ip, client_mac, station_name)

    # ------------------------------------------------------------- queries

    @property
    def gateway_mac_for(self) -> Dict[str, str]:
        """Map of station name -> MAC address the gateway uses on that link."""
        return {name: iface.mac for name, iface in self.gateway.station_interfaces.items()}

    def station(self, name: str) -> EdgeStation:
        return self.stations[name]

    def server(self, name: str) -> Server:
        return self.servers[name]

    def any_server_ip(self) -> str:
        server = next(iter(self.servers.values()))
        assert server.ip is not None
        return server.ip

    def graph(self) -> DelayGraph:
        """Delay-weighted topology graph used by routing, placement and benches."""
        return build_topology_graph(
            [("gateway", "core", self.core_delay_s)]
            + [(name, "gateway", self.uplink_delay_s) for name in self.stations]
            + [("core", name, 0.0005) for name in self.servers]
        )

    def control_latency(self, station_name: str) -> float:
        """One-way control-plane latency between the Manager (at the core) and a station."""
        if station_name not in self.stations:
            raise KeyError(f"unknown station {station_name!r}")
        return self.uplink_delay_s + self.core_delay_s

    def station_to_station_latency(self, a: str, b: str) -> float:
        """One-way latency between two stations (via the gateway)."""
        if a == b:
            return 0.0
        return 2 * self.uplink_delay_s

    def summary(self) -> Dict[str, int]:
        """Inventory counts (surfaced by the UI's network overview)."""
        return {
            "stations": len(self.stations),
            "servers": len(self.servers),
            "links": len(self.links),
            "anchored_clients": len(self.gateway.client_locations),
        }
