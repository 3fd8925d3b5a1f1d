"""Service function chains.

The Manager "allows single or chain of NFs to be associated with" a client.
A :class:`ServiceChain` is an ordered list of :class:`NFSpec` entries
(function type plus deployment-time configuration).  Upstream traffic
traverses the chain first-to-last; downstream traffic traverses it in
reverse, matching middlebox semantics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

_chain_ids = itertools.count(1)


@dataclass(frozen=True)
class NFRequirements:
    """Per-instance resource demands for one NF of a chain.

    ``memory_mb`` of ``None`` defers to the NF catalogue's image default;
    ``cpu_units`` and ``bandwidth_mbps`` of zero mean "no declared demand",
    which every station trivially satisfies.
    """

    cpu_units: float = 0.0
    memory_mb: Optional[float] = None
    bandwidth_mbps: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "cpu_units": self.cpu_units,
            "memory_mb": self.memory_mb,
            "bandwidth_mbps": self.bandwidth_mbps,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NFRequirements":
        memory = data.get("memory_mb")
        return cls(
            cpu_units=float(data.get("cpu_units", 0.0)),  # type: ignore[arg-type]
            memory_mb=None if memory is None else float(memory),  # type: ignore[arg-type]
            bandwidth_mbps=float(data.get("bandwidth_mbps", 0.0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ChainSLO:
    """End-to-end service-level objectives for a whole chain.

    ``None`` means the dimension is unconstrained.  ``max_latency_s`` bounds
    the client→chain→uplink path latency an embedding may price in;
    ``min_bandwidth_mbps`` is the end-to-end rate the weakest link (radio or
    backhaul) must sustain.
    """

    max_latency_s: Optional[float] = None
    min_bandwidth_mbps: Optional[float] = None

    @property
    def constrained(self) -> bool:
        return self.max_latency_s is not None or self.min_bandwidth_mbps is not None


@dataclass(frozen=True)
class NFSpec:
    """One position in a chain: the NF type and its configuration."""

    nf_type: str
    config: Dict[str, Any] = field(default_factory=dict)
    instance_name: str = ""
    requirements: Optional[NFRequirements] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "nf_type": self.nf_type,
            "config": dict(self.config),
            "instance_name": self.instance_name,
        }
        if self.requirements is not None:
            data["requirements"] = self.requirements.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NFSpec":
        requirements = data.get("requirements")
        return cls(
            nf_type=str(data["nf_type"]),
            config=dict(data.get("config", {})),  # type: ignore[arg-type]
            instance_name=str(data.get("instance_name", "")),
            requirements=None
            if requirements is None
            else NFRequirements.from_dict(requirements),  # type: ignore[arg-type]
        )


class ServiceChain:
    """An ordered chain of NF specifications."""

    def __init__(
        self, specs: Sequence[NFSpec], name: str = "", slo: Optional[ChainSLO] = None
    ) -> None:
        if not specs:
            raise ValueError("a service chain needs at least one NF")
        self.chain_id = f"chain-{next(_chain_ids):04d}"
        self.name = name or self.chain_id
        self.specs: List[NFSpec] = list(specs)
        self.slo: Optional[ChainSLO] = slo

    # ------------------------------------------------------------ factories

    @classmethod
    def single(cls, nf_type: str, config: Optional[Dict[str, Any]] = None, name: str = "") -> "ServiceChain":
        """A chain with exactly one NF (the common demo case)."""
        return cls([NFSpec(nf_type=nf_type, config=dict(config or {}))], name=name or nf_type)

    @classmethod
    def of(cls, *nf_types: str, name: str = "") -> "ServiceChain":
        """A chain from bare NF type names with default configuration."""
        return cls([NFSpec(nf_type=nf_type) for nf_type in nf_types], name=name)

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[NFSpec]:
        return iter(self.specs)

    @property
    def nf_types(self) -> List[str]:
        return [spec.nf_type for spec in self.specs]

    def upstream_order(self) -> List[NFSpec]:
        """Order in which client-originated traffic traverses the chain."""
        return list(self.specs)

    def downstream_order(self) -> List[NFSpec]:
        """Order in which traffic towards the client traverses the chain."""
        return list(reversed(self.specs))

    def sub_chain(self, start: int, end: int) -> "ServiceChain":
        """A chain holding ``specs[start:end]`` — one embedding segment.

        Segments carry no SLO of their own: the SLO is an end-to-end property
        the embedding already priced before splitting.
        """
        if not 0 <= start < end <= len(self.specs):
            raise ValueError(f"invalid segment [{start}:{end}] of a {len(self.specs)}-NF chain")
        return ServiceChain(self.specs[start:end], name=f"{self.name}#seg{start}-{end}")

    # ------------------------------------------------------------ serialize

    def to_dicts(self) -> List[Dict[str, object]]:
        return [spec.to_dict() for spec in self.specs]

    @classmethod
    def from_dicts(cls, data: Sequence[Dict[str, object]], name: str = "") -> "ServiceChain":
        return cls([NFSpec.from_dict(entry) for entry in data], name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServiceChain({' -> '.join(self.nf_types)})"
