"""DNS load balancer.

The demo's third NF.  It watches DNS answers flowing back to the client and
rewrites the A records of configured service names so that successive
resolutions are spread across a pool of backend addresses (round-robin or
weighted).  Keeping it at the edge means each cell can steer its local
clients to nearby or lightly-loaded backends.  The per-name rotation state is
exported so the rotation continues seamlessly after a migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.netem.packet import DNSQuery, DNSResponse, Packet
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


@dataclass
class BackendPool:
    """The rewrite targets for one service name."""

    name: str
    backends: List[str]
    weights: List[int] = field(default_factory=list)
    next_index: int = 0
    assignments: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.backends:
            raise ValueError(f"backend pool for {self.name!r} must not be empty")
        if self.weights and len(self.weights) != len(self.backends):
            raise ValueError("weights must align with backends")
        if not self.weights:
            self.weights = [1] * len(self.backends)
        # Expanded round-robin sequence honouring weights.
        self._sequence: List[str] = [
            backend
            for backend, weight in zip(self.backends, self.weights)
            for _ in range(max(1, weight))
        ]

    def next_backend(self) -> str:
        backend = self._sequence[self.next_index % len(self._sequence)]
        self.next_index += 1
        self.assignments[backend] = self.assignments.get(backend, 0) + 1
        return backend

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "backends": list(self.backends),
            "weights": list(self.weights),
            "next_index": self.next_index,
            "assignments": dict(self.assignments),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BackendPool":
        pool = cls(
            name=str(data["name"]),
            backends=list(data["backends"]),  # type: ignore[arg-type]
            weights=list(data.get("weights", [])),  # type: ignore[arg-type]
        )
        pool.next_index = int(data.get("next_index", 0))
        assignments = data.get("assignments", {})
        if isinstance(assignments, dict):
            pool.assignments = {str(k): int(v) for k, v in assignments.items()}
        return pool


class DNSLoadBalancer(NetworkFunction):
    """Rewrites DNS answers for configured names across backend pools."""

    nf_type = "dns-loadbalancer"
    per_packet_cpu_us = 10.0

    def __init__(
        self,
        name: str = "",
        pools: Optional[Dict[str, Sequence[str]]] = None,
        answers_per_response: int = 1,
    ) -> None:
        super().__init__(name=name)
        self.pools: Dict[str, BackendPool] = {}
        if pools:
            for service_name, backends in pools.items():
                self.add_pool(service_name, backends)
        self.answers_per_response = answers_per_response
        self.queries_seen = 0
        self.responses_rewritten = 0

    # --------------------------------------------------------------- pools

    def add_pool(self, service_name: str, backends: Sequence[str], weights: Optional[Sequence[int]] = None) -> None:
        self.pools[service_name] = BackendPool(
            name=service_name, backends=list(backends), weights=list(weights or [])
        )

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if isinstance(packet.app, DNSQuery) and context.direction is Direction.UPSTREAM:
            self.queries_seen += 1
            return [packet]
        if isinstance(packet.app, DNSResponse) and context.direction is Direction.DOWNSTREAM:
            pool = self.pools.get(packet.app.name)
            if pool is not None:
                rewritten = tuple(pool.next_backend() for _ in range(self.answers_per_response))
                packet.app = DNSResponse(
                    name=packet.app.name,
                    addresses=rewritten,
                    qtype=packet.app.qtype,
                    query_id=packet.app.query_id,
                    ttl=packet.app.ttl,
                )
                self.responses_rewritten += 1
            return [packet]
        return [packet]

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "pools": {service: pool.to_dict() for service, pool in self.pools.items()},
                "queries_seen": self.queries_seen,
                "responses_rewritten": self.responses_rewritten,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        pools = state.get("pools")
        if isinstance(pools, dict):
            self.pools = {str(service): BackendPool.from_dict(data) for service, data in pools.items()}
        self.queries_seen = int(state.get("queries_seen", self.queries_seen))
        self.responses_rewritten = int(state.get("responses_rewritten", self.responses_rewritten))

    def backend_distribution(self, service_name: str) -> Dict[str, int]:
        """How many answers each backend has received for a service (LB evidence)."""
        pool = self.pools.get(service_name)
        return dict(pool.assignments) if pool else {}
