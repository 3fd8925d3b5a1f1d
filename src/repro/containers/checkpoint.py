"""Checkpoint/restore of NF containers (CRIU-style).

GNF's demo restarts an *equivalent* function at the new cell ("an equivalent
function can be started on the newly assigned cell and removed from the
previous cell"), which is stateless migration.  Many useful NFs carry state
(firewall connection tracking, cache contents, rate-limiter buckets), so the
reproduction also implements stateful migration built on container
checkpoint/restore -- the E5 migration benchmark compares both strategies.

A checkpoint captures the NF's exported state, the namespace contents and the
resident memory size; the transfer time between stations is derived from the
checkpoint size and the inter-station path bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.containers.container import Container


@dataclass
class Checkpoint:
    """A serialized container ready to be restored elsewhere."""

    container_name: str
    image_reference: str
    created_at: float
    memory_mb: float
    nf_state: Dict[str, object] = field(default_factory=dict)
    network_namespace: Dict[str, object] = field(default_factory=dict)
    mount_namespace: Dict[str, object] = field(default_factory=dict)
    labels: Dict[str, str] = field(default_factory=dict)

    @property
    def size_mb(self) -> float:
        """Bytes that must travel to the destination station, in MB.

        Dominated by resident memory pages; the serialized NF state adds a
        small, size-proportional overhead.
        """
        state_overhead_mb = 0.001 * len(str(self.nf_state))
        return self.memory_mb + state_overhead_mb

    def transfer_time_s(self, bandwidth_bps: float, rtt_s: float = 0.0) -> float:
        """Time to copy this checkpoint over a path with the given bandwidth."""
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        return rtt_s + (self.size_mb * 8 * 1_000_000) / bandwidth_bps


class CheckpointEngine:
    """Produces checkpoints from containers and applies them after restore."""

    freeze_base_s = 0.02
    dump_per_mb_s = 0.004

    def __init__(self) -> None:
        self.restores_applied = 0

    def checkpoint_duration_s(self, container: Container) -> float:
        """Time to freeze the container and dump its memory to disk."""
        return self.freeze_base_s + self.dump_per_mb_s * container.memory_footprint_mb

    def create(self, container: Container, now: float) -> Checkpoint:
        """Capture the container's state (the caller handles timing/transitions)."""
        nf_state: Dict[str, object] = {}
        nf = container.network_function
        if nf is not None and hasattr(nf, "export_state"):
            nf_state = nf.export_state()
        return Checkpoint(
            container_name=container.name,
            image_reference=container.image.reference,
            created_at=now,
            memory_mb=container.memory_footprint_mb,
            nf_state=nf_state,
            network_namespace=container.network_namespace.serialize(),
            mount_namespace=container.mount_namespace.serialize(),
            labels=dict(container.labels),
        )

    def restore_duration_s(self, checkpoint: Checkpoint) -> float:
        """Time to map the checkpoint back into memory and thaw the processes."""
        return self.freeze_base_s + self.dump_per_mb_s * checkpoint.memory_mb

    def apply(self, checkpoint: Checkpoint, container: Container) -> None:
        """Inject the checkpointed NF state into a freshly restored container."""
        nf = container.network_function
        if nf is not None and hasattr(nf, "import_state") and checkpoint.nf_state:
            nf.import_state(checkpoint.nf_state)
        container.labels.update(checkpoint.labels)
        self.restores_applied += 1
