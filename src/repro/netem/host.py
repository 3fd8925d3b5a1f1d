"""Hosts and network interfaces.

A :class:`Host` is any endpoint or middlebox in the emulated testbed that
owns one or more :class:`Interface` objects: servers in the core data centre,
gateways, edge stations, wireless cells and mobile clients all build on it.
Packet reception is dispatched to ``handle_packet`` which subclasses (or
composition users, via ``packet_handler``) override.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.netem import packet as pkt
from repro.netem.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netem.link import Link
    from repro.netem.packet import Packet


PacketHandler = Callable[["Packet", "Interface"], None]


class Interface:
    """A network interface (physical NIC, veth endpoint or switch port).

    An interface either hangs off a :class:`~repro.netem.link.Link` or has a
    ``delivery_override`` installed (used for veth endpoints that hand packets
    straight to an NF container without an emulated wire in between).

    Slotted, with a ``__dict__`` slot as well, so that a test sink or a
    perf probe can still replace ``send`` on an instance.
    """

    __slots__ = (
        "name",
        "mac",
        "ip",
        "owner",
        "link",
        "delivery_override",
        "up",
        "__dict__",
    )

    def __init__(
        self,
        name: str,
        mac: str,
        ip: Optional[str] = None,
        owner: Optional["Host"] = None,
    ) -> None:
        self.name = name
        self.mac = mac
        self.ip = ip
        self.owner = owner
        self.link: Optional["Link"] = None
        self.delivery_override: Optional[PacketHandler] = None
        self.up = True

    # ------------------------------------------------------------------ I/O

    def deliver(self, packet: "Packet") -> None:
        """Called by the link (or a veth peer) when a packet arrives here."""
        if not self.up:
            return
        override = self.delivery_override
        if override is not None:
            override(packet, self)
            return
        owner = self.owner
        if owner is not None:
            owner.receive_packet(packet, self)

    def send(self, packet: "Packet") -> bool:
        """Transmit a packet out of this interface.

        Returns ``True`` if the packet left the interface (accepted by the
        link, or handed to a veth peer); ``False`` otherwise.
        """
        if not self.up:
            return False
        link = self.link
        if link is not None:
            return link.transmit(packet, self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Interface({self.name!r}, mac={self.mac}, ip={self.ip})"


class VethEnd(Interface):
    """One end of a :class:`VethPair`: ``send`` hands the packet to the peer end.

    The two ends point at each other, so :meth:`cut` unlinks them when the
    pair is unplugged; a cut end sends nothing, and refcounting frees the
    pair and whatever its ``delivery_override`` is bound to.
    """

    __slots__ = ("peer", "simulator", "crossing_delay_s")

    def __init__(self, name: str, mac: str, simulator: Simulator, crossing_delay_s: float) -> None:
        super().__init__(name=name, mac=mac)
        self.peer: Optional[VethEnd] = None
        self.simulator = simulator
        self.crossing_delay_s = crossing_delay_s

    def send(self, packet: "Packet") -> bool:
        peer = self.peer
        if not self.up or peer is None:
            return False
        if self.crossing_delay_s > 0:
            self.simulator.call_later(self.crossing_delay_s, peer.deliver, packet)
        else:
            peer.deliver(packet)
        return True

    def cut(self) -> None:
        """Unlink both ends and drop both delivery overrides."""
        peer = self.peer
        if peer is not None:
            peer.peer = None
            peer.delivery_override = None
        self.peer = None
        self.delivery_override = None


class VethPair:
    """A pair of virtual interfaces whose ``send`` delivers to the peer.

    This mirrors the veth pairs GNF Agents create to plug NF containers into
    the station's software switch: a frame written to one end pops out of the
    other end after a negligible (configurable) kernel-crossing delay.  The
    ends do not refer back to the pair.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        mac_a: str,
        mac_b: str,
        crossing_delay_s: float = 0.0,
    ) -> None:
        self.name = name
        self.end_a = VethEnd(f"{name}-a", mac_a, simulator, crossing_delay_s)
        self.end_b = VethEnd(f"{name}-b", mac_b, simulator, crossing_delay_s)
        self.end_a.peer = self.end_b
        self.end_b.peer = self.end_a

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"VethPair({self.name!r})"


class Host:
    """Base class for every packet-handling node in the testbed.

    Slotted, so that a subclass that declares its own slots (the
    :class:`~repro.wireless.client.MobileClient` a roaming population holds
    thousands of) carries no ``__dict__``; every other subclass keeps one.
    """

    __slots__ = ("simulator", "name", "interfaces", "packet_handler")

    def __init__(self, simulator: Simulator, name: str) -> None:
        self.simulator = simulator
        self.name = name
        self.interfaces: Dict[str, Interface] = {}
        self.packet_handler: Optional[PacketHandler] = None

    # -------------------------------------------------------------- wiring

    def add_interface(self, interface: Interface) -> Interface:
        """Register an interface on this host."""
        if interface.name in self.interfaces:
            raise ValueError(f"host {self.name} already has an interface named {interface.name!r}")
        interface.owner = self
        self.interfaces[interface.name] = interface
        return interface

    @property
    def primary_interface(self) -> Interface:
        """The first interface added (convenience for single-homed hosts)."""
        if not self.interfaces:
            raise RuntimeError(f"host {self.name} has no interfaces")
        return next(iter(self.interfaces.values()))

    @property
    def ip(self) -> Optional[str]:
        """IP address of the primary interface, if any."""
        if not self.interfaces:
            return None
        return self.primary_interface.ip

    # ----------------------------------------------------------------- I/O

    def receive_packet(self, packet: "Packet", interface: Interface) -> None:
        """Entry point for packets arriving on any of this host's interfaces."""
        handler = self.packet_handler
        if handler is not None:
            handler(packet, interface)
            return
        self.handle_packet(packet, interface)

    def handle_packet(self, packet: "Packet", interface: Interface) -> None:
        """Subclass hook; the base host silently consumes packets."""

    def send(self, packet: "Packet", interface: Optional[Interface] = None) -> bool:
        """Send a packet out of ``interface`` (default: primary)."""
        out = interface or self.primary_interface
        return out.send(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


class Server(Host):
    """An application server living in the core data centre.

    Servers answer HTTP requests, DNS queries and ICMP echos, and echo UDP
    CBR packets back to their sender, so every workload generator has a
    responsive peer.  Response generation is deliberately simple -- the point
    is to create realistic *traffic through the edge*, not to model server
    internals.
    """

    processing_delay_s = 0.0005

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        http_body_bytes: int = 10_000,
        dns_zone: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        super().__init__(simulator, name)
        self.http_body_bytes = http_body_bytes
        self.dns_zone: Dict[str, List[str]] = dns_zone or {}
        self.requests_served = 0
        self.icmp_echoes_served = 0
        self.udp_packets_echoed = 0

    def handle_packet(self, packet: "Packet", interface: Interface) -> None:
        # Ignore traffic not addressed to this server (e.g. flooded frames).
        if packet.ip is None or (self.ip is not None and packet.ip.dst != self.ip):
            return

        response: Optional["Packet"] = None
        if isinstance(packet.app, pkt.HTTPRequest):
            self.requests_served += 1
            # ABR segment fetches name their own object size (the bitrate
            # ladder decides it); everything else gets the server default.
            body_bytes = packet.metadata.get("http_body_bytes", self.http_body_bytes)
            content_type = packet.metadata.get("http_content_type", "text/html")
            response = pkt.make_http_response(
                packet,
                status=200,
                body_bytes=int(body_bytes),  # type: ignore[arg-type]
                content_type=str(content_type),
                created_at=self.simulator.now,
            )
        elif isinstance(packet.app, pkt.DNSQuery):
            addresses = self.dns_zone.get(packet.app.name, ["0.0.0.0"])
            response = pkt.make_dns_response(
                packet, addresses=tuple(addresses), created_at=self.simulator.now
            )
        elif packet.is_icmp and isinstance(packet.l4, pkt.ICMPHeader) and packet.l4.icmp_type == 8:
            self.icmp_echoes_served += 1
            response = packet.copy()
            assert response.eth is not None and response.ip is not None
            response.eth = response.eth.swapped()
            response.ip = response.ip.swapped()
            response.l4 = packet.l4.reply()
            response.created_at = self.simulator.now
        elif packet.is_udp and packet.metadata.get("bulk_oneway"):
            # Bulk-transfer uploads are one-way by contract: echoing them
            # would double the traffic and defeat the fluid model's point.
            pass
        elif packet.is_udp:
            self.udp_packets_echoed += 1
            response = packet.copy()
            assert response.eth is not None and response.ip is not None and response.l4 is not None
            response.eth = response.eth.swapped()
            response.ip = response.ip.swapped()
            response.l4 = response.l4.swapped()  # type: ignore[union-attr]
            response.created_at = self.simulator.now

        if response is not None:
            # Echo the client's original send timestamp so RTT measurement at
            # the client does not depend on clock bookkeeping in the server.
            response.metadata["request_created_at"] = packet.created_at
            response.metadata.update(
                {k: v for k, v in packet.metadata.items() if k.startswith("probe_")}
            )
            # Protocol tags ride back on the response so protocol-aware NFs
            # (per-protocol cache admission) classify both directions alike.
            for key in ("app_protocol", "quic_cid"):
                if key in packet.metadata:
                    response.metadata[key] = packet.metadata[key]
            self.simulator.call_later(self.processing_delay_s, self.send, response, interface)
