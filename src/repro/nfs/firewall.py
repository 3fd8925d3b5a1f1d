"""iptables-style stateful packet firewall.

The demo's first NF: an ordered rule chain evaluated per packet with a
configurable default policy, plus connection tracking so that replies to
connections the client initiated are always admitted (the usual
``ESTABLISHED,RELATED -j ACCEPT`` idiom).  The connection table is exported
as migratable state, so a roaming client keeps its established sessions
working after its firewall moves to the new edge station.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.netem.packet import (
    FlowKey,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    UDPHeader,
)
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


class FirewallAction(enum.Enum):
    """What to do with a matching packet."""

    ACCEPT = "accept"
    DROP = "drop"


_PROTO_NAMES = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}


@dataclass(frozen=True)
class FirewallRule:
    """One ordered rule.  ``None`` fields are wildcards.

    ``direction`` restricts the rule to upstream (client-originated) or
    downstream traffic; ports are inclusive ranges.
    """

    action: FirewallAction
    protocol: Optional[str] = None
    src_cidr: Optional[str] = None
    dst_cidr: Optional[str] = None
    dst_port_range: Optional[Tuple[int, int]] = None
    src_port_range: Optional[Tuple[int, int]] = None
    direction: Optional[Direction] = None
    comment: str = ""

    def matches(self, packet: Packet, direction: Direction) -> bool:
        if self.direction is not None and direction is not self.direction:
            return False
        if packet.ip is None:
            return False
        if self.protocol is not None:
            wanted = _PROTO_NAMES.get(self.protocol.lower())
            if wanted is None or packet.ip.protocol != wanted:
                return False
        if self.src_cidr is not None:
            if ipaddress.ip_address(packet.ip.src) not in ipaddress.ip_network(self.src_cidr):
                return False
        if self.dst_cidr is not None:
            if ipaddress.ip_address(packet.ip.dst) not in ipaddress.ip_network(self.dst_cidr):
                return False
        if self.dst_port_range is not None:
            if not isinstance(packet.l4, (TCPHeader, UDPHeader)):
                return False
            low, high = self.dst_port_range
            if not low <= packet.l4.dst_port <= high:
                return False
        if self.src_port_range is not None:
            if not isinstance(packet.l4, (TCPHeader, UDPHeader)):
                return False
            low, high = self.src_port_range
            if not low <= packet.l4.src_port <= high:
                return False
        return True

    def to_dict(self) -> Dict[str, object]:
        return {
            "action": self.action.value,
            "protocol": self.protocol,
            "src_cidr": self.src_cidr,
            "dst_cidr": self.dst_cidr,
            "dst_port_range": list(self.dst_port_range) if self.dst_port_range else None,
            "src_port_range": list(self.src_port_range) if self.src_port_range else None,
            "direction": self.direction.value if self.direction else None,
            "comment": self.comment,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FirewallRule":
        direction_value = data.get("direction")
        return cls(
            action=FirewallAction(str(data["action"])),
            protocol=data.get("protocol"),  # type: ignore[arg-type]
            src_cidr=data.get("src_cidr"),  # type: ignore[arg-type]
            dst_cidr=data.get("dst_cidr"),  # type: ignore[arg-type]
            dst_port_range=tuple(data["dst_port_range"]) if data.get("dst_port_range") else None,  # type: ignore[arg-type]
            src_port_range=tuple(data["src_port_range"]) if data.get("src_port_range") else None,  # type: ignore[arg-type]
            direction=Direction(direction_value) if direction_value else None,
            comment=str(data.get("comment", "")),
        )


class Firewall(NetworkFunction):
    """Ordered-rule firewall with connection tracking."""

    nf_type = "firewall"
    per_packet_cpu_us = 8.0
    base_state_mb = 0.5

    def __init__(
        self,
        name: str = "",
        rules: Optional[List[FirewallRule]] = None,
        default_policy: FirewallAction = FirewallAction.ACCEPT,
        stateful: bool = True,
        conntrack_limit: int = 10_000,
    ) -> None:
        super().__init__(name=name)
        self.rules: List[FirewallRule] = list(rules or [])
        self.default_policy = default_policy
        self.stateful = stateful
        self.conntrack_limit = conntrack_limit
        self._conntrack: Set[FlowKey] = set()
        self.accepted = 0
        self.dropped = 0
        self.conntrack_hits = 0

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if packet.ip is None:
            return [packet]
        key = packet.flow_key
        # Established-connection fast path: replies to client-initiated flows.
        if (
            self.stateful
            and context.direction is Direction.DOWNSTREAM
            and key is not None
            and key.reversed() in self._conntrack
        ):
            self.conntrack_hits += 1
            self.accepted += 1
            return [packet]

        verdict = self.default_policy
        for rule in self.rules:
            if rule.matches(packet, context.direction):
                verdict = rule.action
                break

        if verdict is FirewallAction.DROP:
            self.dropped += 1
            return []

        self.accepted += 1
        if self.stateful and context.direction is Direction.UPSTREAM and key is not None:
            if len(self._conntrack) < self.conntrack_limit:
                self._conntrack.add(key)
        return [packet]

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "rules": [rule.to_dict() for rule in self.rules],
                "default_policy": self.default_policy.value,
                "conntrack": sorted(
                    (key.src_ip, key.dst_ip, key.protocol, key.src_port, key.dst_port)
                    for key in self._conntrack
                ),
                "accepted": self.accepted,
                "dropped": self.dropped,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        rules = state.get("rules")
        if isinstance(rules, list):
            self.rules = [FirewallRule.from_dict(entry) for entry in rules]
        policy = state.get("default_policy")
        if isinstance(policy, str):
            self.default_policy = FirewallAction(policy)
        conntrack = state.get("conntrack")
        if isinstance(conntrack, list):
            self._conntrack = {
                FlowKey(src_ip=entry[0], dst_ip=entry[1], protocol=entry[2], src_port=entry[3], dst_port=entry[4])
                for entry in conntrack
            }
        self.accepted = int(state.get("accepted", self.accepted))
        self.dropped = int(state.get("dropped", self.dropped))

    @property
    def state_size_mb(self) -> float:
        # ~100 bytes per conntrack entry plus the rule set.
        return self.base_state_mb + len(self._conntrack) * 100 / 1e6 + len(self.rules) * 200 / 1e6

    @property
    def conntrack_size(self) -> int:
        return len(self._conntrack)

    # ----------------------------------------------------------- describe

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update(
            {
                "rules": len(self.rules),
                "default_policy": self.default_policy.value,
                "conntrack_entries": len(self._conntrack),
                "accepted": self.accepted,
                "dropped": self.dropped,
            }
        )
        return description
