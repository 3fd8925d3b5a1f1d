"""Checkpoints of NF containers (CRIU-style).

GNF's demo restarts an *equivalent* function at the new cell ("an equivalent
function can be started on the newly assigned cell and removed from the
previous cell"), which is stateless migration.  Many useful NFs carry state
(firewall connection tracking, cache contents, rate-limiter buckets), so the
reproduction also implements stateful migration built on container
checkpoints -- the E5 migration benchmark compares both strategies.

A checkpoint captures the NF's exported state and the container's resident
memory size, and its :attr:`Checkpoint.size_mb` is what a stateful migration
ships between stations.  There is no container-level restore: the state is
restored by importing it into the chain freshly deployed at the new station
(``GNFAgent.deploy_chain(..., nf_states=...)``), and the transfer time comes
from ``StateTransferService.estimate_transfer_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.containers.container import Container


@dataclass
class Checkpoint:
    """A container's memory size and its NF's exported state."""

    memory_mb: float
    nf_state: Dict[str, object] = field(default_factory=dict)

    @property
    def size_mb(self) -> float:
        """Bytes that must travel to the destination station, in MB.

        Dominated by resident memory pages; the serialized NF state adds a
        small, size-proportional overhead.
        """
        state_overhead_mb = 0.001 * len(str(self.nf_state))
        return self.memory_mb + state_overhead_mb


class CheckpointEngine:
    """Produces checkpoints from containers."""

    freeze_base_s = 0.02
    dump_per_mb_s = 0.004

    def checkpoint_duration_s(self, container: Container) -> float:
        """Time to freeze the container and dump its memory to disk."""
        return self.freeze_base_s + self.dump_per_mb_s * container.memory_footprint_mb

    def create(self, container: Container) -> Checkpoint:
        """Capture the container's state (the caller handles timing/transitions)."""
        nf_state: Dict[str, object] = {}
        nf = container.network_function
        if nf is not None and hasattr(nf, "export_state"):
            nf_state = nf.export_state()
        return Checkpoint(memory_mb=container.memory_footprint_mb, nf_state=nf_state)
