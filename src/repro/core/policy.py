"""Client traffic policies: which subset of a client's traffic an NF serves.

The Manager "allows single or chain of NFs to be associated with a subset of
a selected client's traffic".  A :class:`TrafficSelector` describes that
subset (protocol / ports / everything) and knows how to express itself as
the upstream and downstream flow-table matches the Agent installs on the
station switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.netem.flowtable import Match
from repro.netem.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP

_PROTOCOL_NUMBERS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}


@dataclass(frozen=True)
class TrafficSelector:
    """Selects a subset of one client's traffic.

    ``protocol`` is ``"tcp"``/``"udp"``/``"icmp"`` or ``None`` (any);
    ``remote_port`` is the server-side port (the client's destination port
    upstream, source port downstream); ``remote_ip`` restricts the selection
    to a single remote endpoint.  An all-``None`` selector matches all of the
    client's traffic, which is the demo's default.
    """

    protocol: Optional[str] = None
    remote_port: Optional[int] = None
    remote_ip: Optional[str] = None
    description: str = "all traffic"

    def __post_init__(self) -> None:
        if self.protocol is not None and self.protocol.lower() not in _PROTOCOL_NUMBERS:
            raise ValueError(f"unknown protocol {self.protocol!r}")

    @property
    def protocol_number(self) -> Optional[int]:
        if self.protocol is None:
            return None
        return _PROTOCOL_NUMBERS[self.protocol.lower()]

    # ---------------------------------------------------------------- match

    def upstream_match(self, client_ip: str, in_port: Optional[int] = None) -> Match:
        """Match for client-originated packets entering from a cell port."""
        return Match(
            in_port=in_port,
            ip_src=client_ip,
            ip_dst=self.remote_ip,
            ip_proto=self.protocol_number,
            l4_dst_port=self.remote_port,
        )

    def downstream_match(self, client_ip: str, in_port: Optional[int] = None) -> Match:
        """Match for packets heading back to the client entering from the uplink."""
        return Match(
            in_port=in_port,
            ip_dst=client_ip,
            ip_src=self.remote_ip,
            ip_proto=self.protocol_number,
            l4_src_port=self.remote_port,
        )

    # ------------------------------------------------------------ (de)serial

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "remote_port": self.remote_port,
            "remote_ip": self.remote_ip,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrafficSelector":
        return cls(
            protocol=data.get("protocol"),  # type: ignore[arg-type]
            remote_port=data.get("remote_port"),  # type: ignore[arg-type]
            remote_ip=data.get("remote_ip"),  # type: ignore[arg-type]
            description=str(data.get("description", "all traffic")),
        )

    # ------------------------------------------------------------ shortcuts

    @classmethod
    def all_traffic(cls) -> "TrafficSelector":
        return cls()

    @classmethod
    def web_traffic(cls) -> "TrafficSelector":
        return cls(protocol="tcp", remote_port=80, description="HTTP traffic")

    @classmethod
    def dns_traffic(cls) -> "TrafficSelector":
        return cls(protocol="udp", remote_port=53, description="DNS traffic")
