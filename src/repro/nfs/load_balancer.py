"""L4 connection load balancer.

Distributes a client's new connections towards a virtual IP across a pool of
backend servers, keeping an affinity table so every packet of an established
connection reaches the same backend and reverse-translating the responses.
The affinity table is exported state so connections survive NF roaming.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.netem.packet import Packet, TCPHeader, UDPHeader
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


class L4LoadBalancer(NetworkFunction):
    """Round-robin / least-connections L4 load balancer for one virtual IP."""

    nf_type = "load-balancer"
    per_packet_cpu_us = 7.0

    def __init__(
        self,
        name: str = "",
        virtual_ip: str = "198.51.100.10",
        backends: Sequence[str] = (),
        strategy: str = "round-robin",
    ) -> None:
        super().__init__(name=name)
        if strategy not in ("round-robin", "least-connections"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.virtual_ip = virtual_ip
        self.backends: List[str] = list(backends)
        self.strategy = strategy
        self._next_backend = 0
        # (client_ip, client_port, proto) -> backend ip
        self._affinity: Dict[Tuple[str, int, int], str] = {}
        self.connections_per_backend: Dict[str, int] = {backend: 0 for backend in self.backends}

    def _choose_backend(self) -> str:
        if not self.backends:
            raise RuntimeError("load balancer has no backends")
        if self.strategy == "least-connections":
            return min(self.backends, key=lambda b: self.connections_per_backend.get(b, 0))
        backend = self.backends[self._next_backend % len(self.backends)]
        self._next_backend += 1
        return backend

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if packet.ip is None or not isinstance(packet.l4, (TCPHeader, UDPHeader)):
            return [packet]
        if context.direction is Direction.UPSTREAM and packet.ip.dst == self.virtual_ip:
            key = (packet.ip.src, packet.l4.src_port, packet.ip.protocol)
            backend = self._affinity.get(key)
            if backend is None or backend not in self.backends:
                backend = self._choose_backend()
                self._affinity[key] = backend
                self.connections_per_backend[backend] = self.connections_per_backend.get(backend, 0) + 1
            packet.metadata["lb_virtual_ip"] = self.virtual_ip
            packet.ip.dst = backend
            return [packet]
        if context.direction is Direction.DOWNSTREAM and packet.ip.src in self.connections_per_backend:
            # Hide the backend behind the virtual IP on the way back.
            packet.ip.src = self.virtual_ip
        return [packet]

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "virtual_ip": self.virtual_ip,
                "backends": list(self.backends),
                "strategy": self.strategy,
                "next_backend": self._next_backend,
                "affinity": [
                    [client_ip, client_port, protocol, backend]
                    for (client_ip, client_port, protocol), backend in self._affinity.items()
                ],
                "connections_per_backend": dict(self.connections_per_backend),
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        self.virtual_ip = str(state.get("virtual_ip", self.virtual_ip))
        backends = state.get("backends")
        if isinstance(backends, list):
            self.backends = [str(b) for b in backends]
        self.strategy = str(state.get("strategy", self.strategy))
        self._next_backend = int(state.get("next_backend", self._next_backend))
        affinity = state.get("affinity")
        if isinstance(affinity, list):
            self._affinity = {
                (str(entry[0]), int(entry[1]), int(entry[2])): str(entry[3]) for entry in affinity
            }
        connections = state.get("connections_per_backend")
        if isinstance(connections, dict):
            self.connections_per_backend = {str(k): int(v) for k, v in connections.items()}

    @property
    def affinity_count(self) -> int:
        return len(self._affinity)
