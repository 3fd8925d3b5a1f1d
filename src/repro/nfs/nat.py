"""Source NAT.

Rewrites the client's private source address (and transport port) to the
station's public address on the way out, and reverses the translation for
return traffic.  The translation table is exported state: after a migration
the new station keeps honouring the old mappings so established flows keep
working -- one of the clearest demonstrations of why stateful migration
matters.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netem.packet import Packet, TCPHeader, UDPHeader
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


class NAT(NetworkFunction):
    """Port-translating source NAT."""

    nf_type = "nat"
    per_packet_cpu_us = 6.0

    def __init__(
        self,
        name: str = "",
        public_ip: str = "192.0.2.1",
        port_range: Tuple[int, int] = (20_000, 60_000),
    ) -> None:
        super().__init__(name=name)
        self.public_ip = public_ip
        self.port_range = port_range
        self._next_port = port_range[0]
        # (private_ip, private_port, proto) -> public_port
        self._outbound: Dict[Tuple[str, int, int], int] = {}
        # public_port -> (private_ip, private_port, proto)
        self._inbound: Dict[int, Tuple[str, int, int]] = {}
        self.translations_created = 0
        self.untranslatable_drops = 0

    # ------------------------------------------------------------- bindings

    def _allocate_port(self) -> int:
        low, high = self.port_range
        for _ in range(high - low + 1):
            candidate = self._next_port
            self._next_port += 1
            if self._next_port > high:
                self._next_port = low
            if candidate not in self._inbound:
                return candidate
        raise RuntimeError("NAT port range exhausted")

    def _bind(self, private_ip: str, private_port: int, protocol: int) -> int:
        key = (private_ip, private_port, protocol)
        existing = self._outbound.get(key)
        if existing is not None:
            return existing
        public_port = self._allocate_port()
        self._outbound[key] = public_port
        self._inbound[public_port] = key
        self.translations_created += 1
        return public_port

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if packet.ip is None or not isinstance(packet.l4, (TCPHeader, UDPHeader)):
            return [packet]
        if context.direction is Direction.UPSTREAM:
            public_port = self._bind(packet.ip.src, packet.l4.src_port, packet.ip.protocol)
            packet.metadata["nat_original_src"] = (packet.ip.src, packet.l4.src_port)
            packet.ip.src = self.public_ip
            packet.l4.src_port = public_port
            return [packet]
        # Downstream: reverse-translate traffic addressed to the public endpoint.
        if packet.ip.dst == self.public_ip:
            key = self._inbound.get(packet.l4.dst_port)
            if key is None:
                self.untranslatable_drops += 1
                return []
            private_ip, private_port, _ = key
            packet.ip.dst = private_ip
            packet.l4.dst_port = private_port
        return [packet]

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "public_ip": self.public_ip,
                "port_range": list(self.port_range),
                "next_port": self._next_port,
                "outbound": [
                    [private_ip, private_port, protocol, public_port]
                    for (private_ip, private_port, protocol), public_port in self._outbound.items()
                ],
                "translations_created": self.translations_created,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        self.public_ip = str(state.get("public_ip", self.public_ip))
        port_range = state.get("port_range")
        if isinstance(port_range, list) and len(port_range) == 2:
            self.port_range = (int(port_range[0]), int(port_range[1]))
        self._next_port = int(state.get("next_port", self._next_port))
        outbound = state.get("outbound")
        if isinstance(outbound, list):
            self._outbound = {}
            self._inbound = {}
            for private_ip, private_port, protocol, public_port in outbound:
                key = (str(private_ip), int(private_port), int(protocol))
                self._outbound[key] = int(public_port)
                self._inbound[int(public_port)] = key
        self.translations_created = int(state.get("translations_created", self.translations_created))

    @property
    def binding_count(self) -> int:
        return len(self._outbound)
