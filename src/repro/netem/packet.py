"""Explicit packet model used across the emulated dataplane.

The paper's NFs (iptables firewall, HTTP filter, DNS load balancer) match and
modify specific header fields, so packets here carry structured Ethernet,
IPv4 and transport headers plus optional HTTP / DNS application payloads.
Sizes are tracked in bytes so links can model serialization delay and the
telemetry subsystem can report the same "network traffic" statistics the demo
UI shows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

# Protocol numbers mirror IANA assignments so firewall rules read naturally.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

ETHERNET_HEADER_BYTES = 14
IPV4_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
ICMP_HEADER_BYTES = 8

_packet_ids = itertools.count(1)


@dataclass(slots=True)
class EthernetHeader:
    """Layer-2 header."""

    src: str
    dst: str
    ethertype: int = ETHERTYPE_IPV4

    def copy(self) -> "EthernetHeader":
        return EthernetHeader(self.src, self.dst, self.ethertype)

    def swapped(self) -> "EthernetHeader":
        """Return a copy with source and destination exchanged."""
        return EthernetHeader(src=self.dst, dst=self.src, ethertype=self.ethertype)


@dataclass(slots=True)
class IPv4Header:
    """Layer-3 header (only the fields the NFs and switches inspect)."""

    src: str
    dst: str
    protocol: int = PROTO_TCP
    ttl: int = 64
    dscp: int = 0

    def copy(self) -> "IPv4Header":
        return IPv4Header(self.src, self.dst, self.protocol, self.ttl, self.dscp)

    def swapped(self) -> "IPv4Header":
        return IPv4Header(src=self.dst, dst=self.src, protocol=self.protocol, ttl=64, dscp=self.dscp)


@dataclass(slots=True)
class TCPHeader:
    """Simplified TCP header: ports plus the flags firewalls care about."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    syn: bool = False
    fin: bool = False
    rst: bool = False
    ack_flag: bool = False

    def copy(self) -> "TCPHeader":
        return TCPHeader(
            self.src_port, self.dst_port, self.seq, self.ack,
            self.syn, self.fin, self.rst, self.ack_flag,
        )

    def swapped(self) -> "TCPHeader":
        return TCPHeader(
            src_port=self.dst_port,
            dst_port=self.src_port,
            seq=self.ack,
            ack=self.seq,
            ack_flag=True,
        )


@dataclass(slots=True)
class UDPHeader:
    """Simplified UDP header."""

    src_port: int
    dst_port: int

    def copy(self) -> "UDPHeader":
        return UDPHeader(self.src_port, self.dst_port)

    def swapped(self) -> "UDPHeader":
        return UDPHeader(src_port=self.dst_port, dst_port=self.src_port)


@dataclass(slots=True)
class ICMPHeader:
    """ICMP echo header (used by the latency probes in the benchmarks)."""

    icmp_type: int = 8  # echo request
    code: int = 0
    identifier: int = 0
    sequence: int = 0

    def copy(self) -> "ICMPHeader":
        return ICMPHeader(self.icmp_type, self.code, self.identifier, self.sequence)

    def reply(self) -> "ICMPHeader":
        return ICMPHeader(icmp_type=0, code=0, identifier=self.identifier, sequence=self.sequence)


@dataclass
class HTTPRequest:
    """Application payload for web traffic (what the HTTP filter inspects)."""

    method: str
    host: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body_bytes: int = 0

    def copy(self) -> "HTTPRequest":
        return HTTPRequest(self.method, self.host, self.path, dict(self.headers), self.body_bytes)

    @property
    def url(self) -> str:
        return f"http://{self.host}{self.path}"


@dataclass
class HTTPResponse:
    """Application payload for web responses."""

    status: int
    content_type: str = "text/html"
    body_bytes: int = 0
    headers: Dict[str, str] = field(default_factory=dict)
    request_url: str = ""

    def copy(self) -> "HTTPResponse":
        return HTTPResponse(
            self.status, self.content_type, self.body_bytes, dict(self.headers), self.request_url
        )


@dataclass
class DNSQuery:
    """DNS question (what the DNS load balancer rewrites answers for)."""

    name: str
    qtype: str = "A"
    query_id: int = 0

    def copy(self) -> "DNSQuery":
        return DNSQuery(self.name, self.qtype, self.query_id)


@dataclass
class DNSResponse:
    """DNS answer."""

    name: str
    addresses: Tuple[str, ...] = ()
    qtype: str = "A"
    query_id: int = 0
    ttl: int = 60

    def copy(self) -> "DNSResponse":
        return DNSResponse(self.name, self.addresses, self.qtype, self.query_id, self.ttl)


TransportHeader = Union[TCPHeader, UDPHeader, ICMPHeader]
ApplicationPayload = Union[HTTPRequest, HTTPResponse, DNSQuery, DNSResponse, None]


@dataclass(frozen=True)
class FlowKey:
    """Bidirectional-unaware five-tuple identifying a flow."""

    src_ip: str
    dst_ip: str
    protocol: int
    src_port: int = 0
    dst_port: int = 0

    def reversed(self) -> "FlowKey":
        return FlowKey(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def canonical(self) -> "FlowKey":
        """Direction-independent representation (smallest endpoint first)."""
        forward = (self.src_ip, self.src_port)
        backward = (self.dst_ip, self.dst_port)
        if forward <= backward:
            return self
        return self.reversed()


class Packet:
    """A single packet traversing the emulated network.

    Packets are mutable on purpose: NFs rewrite headers (NAT, DNS load
    balancer) exactly as their real counterparts would.  ``copy()`` produces
    a deep-enough clone for fan-out situations (e.g. flooding).

    ``size_bytes`` is computed lazily and cached -- it is consulted many
    times per hop (port counters, link serialization, NF accounting) and
    recomputing it dominated the data plane.  In-place *field* rewrites
    (addresses, ports, TTL) never change the size; replacing ``app`` or
    ``payload_bytes`` does and invalidates the cache through their setters.
    Swapping a header object for one of the same type (``swapped()`` /
    ``reply()``) is size-neutral by construction.
    """

    __slots__ = (
        "packet_id",
        "eth",
        "ip",
        "l4",
        "_app",
        "_payload_bytes",
        "_size_cache",
        "created_at",
        "metadata",
        "hops",
    )

    def __init__(
        self,
        eth: Optional[EthernetHeader] = None,
        ip: Optional[IPv4Header] = None,
        l4: Optional[TransportHeader] = None,
        app: ApplicationPayload = None,
        payload_bytes: int = 0,
        created_at: float = 0.0,
    ) -> None:
        self.packet_id = next(_packet_ids)
        self.eth = eth
        self.ip = ip
        self.l4 = l4
        self._app = app
        self._payload_bytes = payload_bytes
        self._size_cache: Optional[int] = None
        self.created_at = created_at
        self.metadata: Dict[str, object] = {}
        self.hops = 0

    # -------------------------------------------------------------- size

    @property
    def app(self) -> ApplicationPayload:
        return self._app

    @app.setter
    def app(self, value: ApplicationPayload) -> None:
        self._app = value
        self._size_cache = None

    @property
    def payload_bytes(self) -> int:
        return self._payload_bytes

    @payload_bytes.setter
    def payload_bytes(self, value: int) -> None:
        self._payload_bytes = value
        self._size_cache = None

    @property
    def size_bytes(self) -> int:
        """Total on-the-wire size, derived from present headers + payload."""
        cached = self._size_cache
        if cached is None:
            cached = self._size_cache = self._compute_size()
        return cached

    def _compute_size(self) -> int:
        size = self._payload_bytes
        if self.eth is not None:
            size += ETHERNET_HEADER_BYTES
        if self.ip is not None:
            size += IPV4_HEADER_BYTES
        if isinstance(self.l4, TCPHeader):
            size += TCP_HEADER_BYTES
        elif isinstance(self.l4, UDPHeader):
            size += UDP_HEADER_BYTES
        elif isinstance(self.l4, ICMPHeader):
            size += ICMP_HEADER_BYTES
        app = self._app
        if isinstance(app, HTTPRequest):
            size += 200 + app.body_bytes  # request line + headers estimate
        elif isinstance(app, HTTPResponse):
            size += 200 + app.body_bytes
        elif isinstance(app, (DNSQuery, DNSResponse)):
            size += 48
        return max(size, 64)

    # ------------------------------------------------------------- helpers

    @property
    def flow_key(self) -> Optional[FlowKey]:
        """Five-tuple of the packet, or ``None`` for non-IP packets."""
        if self.ip is None:
            return None
        src_port = dst_port = 0
        if isinstance(self.l4, (TCPHeader, UDPHeader)):
            src_port = self.l4.src_port
            dst_port = self.l4.dst_port
        return FlowKey(
            src_ip=self.ip.src,
            dst_ip=self.ip.dst,
            protocol=self.ip.protocol,
            src_port=src_port,
            dst_port=dst_port,
        )

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.l4, TCPHeader)

    @property
    def is_udp(self) -> bool:
        return isinstance(self.l4, UDPHeader)

    @property
    def is_icmp(self) -> bool:
        return isinstance(self.l4, ICMPHeader)

    def copy(self) -> "Packet":
        """Clone the packet (new identity, copied headers and metadata)."""
        eth, ip, l4, app = self.eth, self.ip, self.l4, self._app
        clone = Packet(
            eth=eth.copy() if eth is not None else None,
            ip=ip.copy() if ip is not None else None,
            l4=l4.copy() if l4 is not None else None,
            app=app.copy() if app is not None else None,
            payload_bytes=self._payload_bytes,
            created_at=self.created_at,
        )
        clone._size_cache = self._size_cache  # same headers and payload, same size
        clone.metadata = dict(self.metadata)
        clone.hops = self.hops
        return clone

    def decrement_ttl(self) -> bool:
        """Decrement the IP TTL; returns False if the packet must be dropped."""
        if self.ip is None:
            return True
        self.ip.ttl -= 1
        return self.ip.ttl > 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        proto = {PROTO_TCP: "TCP", PROTO_UDP: "UDP", PROTO_ICMP: "ICMP"}.get(
            self.ip.protocol if self.ip else -1, "?"
        )
        if self.ip is None:
            return f"Packet(#{self.packet_id}, L2 only)"
        ports = ""
        if isinstance(self.l4, (TCPHeader, UDPHeader)):
            ports = f":{self.l4.src_port}->:{self.l4.dst_port}"
        return (
            f"Packet(#{self.packet_id}, {proto} {self.ip.src}->{self.ip.dst}{ports}, "
            f"{self.size_bytes}B)"
        )


# --------------------------------------------------------------------------
# Packet construction helpers used by traffic generators, NFs and tests.
# --------------------------------------------------------------------------


def make_tcp_packet(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload_bytes: int = 0,
    src_mac: str = "00:00:00:00:00:01",
    dst_mac: str = "00:00:00:00:00:02",
    app: ApplicationPayload = None,
    syn: bool = False,
    created_at: float = 0.0,
) -> Packet:
    """Build a TCP packet with sensible defaults."""
    return Packet(
        eth=EthernetHeader(src=src_mac, dst=dst_mac),
        ip=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_TCP),
        l4=TCPHeader(src_port=src_port, dst_port=dst_port, syn=syn),
        app=app,
        payload_bytes=payload_bytes,
        created_at=created_at,
    )


def make_udp_packet(
    src_ip: str,
    dst_ip: str,
    src_port: int,
    dst_port: int,
    payload_bytes: int = 0,
    src_mac: str = "00:00:00:00:00:01",
    dst_mac: str = "00:00:00:00:00:02",
    app: ApplicationPayload = None,
    created_at: float = 0.0,
) -> Packet:
    """Build a UDP packet with sensible defaults."""
    return Packet(
        eth=EthernetHeader(src=src_mac, dst=dst_mac),
        ip=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_UDP),
        l4=UDPHeader(src_port=src_port, dst_port=dst_port),
        app=app,
        payload_bytes=payload_bytes,
        created_at=created_at,
    )


def make_icmp_echo(
    src_ip: str,
    dst_ip: str,
    identifier: int = 0,
    sequence: int = 0,
    src_mac: str = "00:00:00:00:00:01",
    dst_mac: str = "00:00:00:00:00:02",
    created_at: float = 0.0,
) -> Packet:
    """Build an ICMP echo request (used by latency probes)."""
    return Packet(
        eth=EthernetHeader(src=src_mac, dst=dst_mac),
        ip=IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_ICMP),
        l4=ICMPHeader(identifier=identifier, sequence=sequence),
        payload_bytes=56,
        created_at=created_at,
    )


def make_http_request(
    src_ip: str,
    dst_ip: str,
    host: str,
    path: str = "/",
    method: str = "GET",
    src_port: int = 49152,
    dst_port: int = 80,
    created_at: float = 0.0,
) -> Packet:
    """Build an HTTP request packet."""
    return make_tcp_packet(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        app=HTTPRequest(method=method, host=host, path=path),
        created_at=created_at,
    )


def make_http_response(
    request: Packet,
    status: int = 200,
    body_bytes: int = 10_000,
    content_type: str = "text/html",
    created_at: float = 0.0,
) -> Packet:
    """Build the HTTP response matching ``request`` (headers swapped).

    The request may ride TCP (classic HTTP) or UDP (QUIC-style HTTP): the
    response reuses the request's transport with the ports swapped either way.
    """
    if not isinstance(request.app, HTTPRequest):
        raise ValueError("make_http_response() needs a packet carrying an HTTPRequest")
    if not isinstance(request.l4, (TCPHeader, UDPHeader)):
        raise ValueError("make_http_response() needs a TCP or UDP transport header")
    assert request.eth is not None and request.ip is not None
    return Packet(
        eth=request.eth.swapped(),
        ip=request.ip.swapped(),
        l4=request.l4.swapped(),
        app=HTTPResponse(
            status=status,
            content_type=content_type,
            body_bytes=body_bytes,
            request_url=request.app.url,
        ),
        payload_bytes=0,
        created_at=created_at,
    )


#: Conventional QUIC (HTTP/3) server port.
QUIC_PORT = 443


def make_quic_request(
    src_ip: str,
    dst_ip: str,
    host: str,
    path: str = "/",
    connection_id: int = 0,
    method: str = "GET",
    src_port: int = 51000,
    dst_port: int = QUIC_PORT,
    zero_rtt: bool = False,
    created_at: float = 0.0,
) -> Packet:
    """Build a QUIC-style HTTP request: an :class:`HTTPRequest` over UDP/443.

    QUIC flows are identified by their connection ID, not their 5-tuple, so
    the ID travels in ``metadata["quic_cid"]`` -- NAT/firewall NFs keyed on
    the 5-tuple see a *new* flow after a port migration while the application
    session (and any cache key) is unchanged.  ``metadata["app_protocol"]``
    is ``"quic"`` so protocol-aware NFs (the edge cache's per-protocol
    cacheability) can tell it apart from TCP HTTP.
    """
    packet = make_udp_packet(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        app=HTTPRequest(method=method, host=host, path=path),
        created_at=created_at,
    )
    packet.metadata["app_protocol"] = "quic"
    packet.metadata["quic_cid"] = connection_id
    if zero_rtt:
        packet.metadata["quic_zero_rtt"] = True
    return packet


def make_dns_query(
    src_ip: str,
    dst_ip: str,
    name: str,
    query_id: int = 0,
    src_port: int = 53000,
    created_at: float = 0.0,
) -> Packet:
    """Build a DNS query packet (UDP/53)."""
    return make_udp_packet(
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=53,
        app=DNSQuery(name=name, query_id=query_id),
        created_at=created_at,
    )


def make_dns_response(
    query: Packet,
    addresses: Tuple[str, ...],
    ttl: int = 60,
    created_at: float = 0.0,
) -> Packet:
    """Build the DNS answer for ``query`` (headers swapped)."""
    if not isinstance(query.app, DNSQuery):
        raise ValueError("make_dns_response() needs a packet carrying a DNSQuery")
    assert query.eth is not None and query.ip is not None and isinstance(query.l4, UDPHeader)
    return Packet(
        eth=query.eth.swapped(),
        ip=query.ip.swapped(),
        l4=query.l4.swapped(),
        app=DNSResponse(
            name=query.app.name,
            addresses=tuple(addresses),
            query_id=query.app.query_id,
            ttl=ttl,
        ),
        created_at=created_at,
    )
