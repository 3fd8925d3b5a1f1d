"""CPU and memory accounting (the cgroup view of an edge station).

The paper's density claim ("commodity compute devices ... are now able to
host up to hundreds of NFs") is fundamentally about memory and CPU
accounting: containers share the host kernel, so their per-instance overhead
is tiny compared to VMs.  :class:`ResourceAccount` models a station's cgroup
hierarchy -- admission control against physical memory, share-based CPU
scheduling and utilization reporting for the Manager's monitoring view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


class AdmissionError(RuntimeError):
    """Raised when a container cannot be admitted (insufficient resources)."""


@dataclass(frozen=True)
class ResourceRequest:
    """Resources requested for one container (or VM, in the baseline)."""

    memory_mb: float
    cpu_shares: int = 256

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise ValueError(f"memory_mb must be positive, got {self.memory_mb}")
        if self.cpu_shares <= 0:
            raise ValueError(f"cpu_shares must be positive, got {self.cpu_shares}")


@dataclass
class CgroupEntry:
    """Accounting record for one admitted workload."""

    owner: str
    request: ResourceRequest
    cpu_seconds_consumed: float = 0.0

    @property
    def memory_mb(self) -> float:
        return self.request.memory_mb


class ResourceAccount:
    """Admission control and usage accounting for one station.

    Parameters
    ----------
    cpu_mhz:
        Total CPU capacity (sum over cores) in MHz.
    memory_mb:
        Physical memory in MB.
    system_reserved_mb:
        Memory reserved for the host OS + Agent and never handed to workloads
        (OpenWRT plus the Agent daemon on the demo routers).
    """

    def __init__(self, cpu_mhz: float, memory_mb: float, system_reserved_mb: float = 48.0) -> None:
        if cpu_mhz <= 0 or memory_mb <= 0:
            raise ValueError("cpu_mhz and memory_mb must be positive")
        if system_reserved_mb >= memory_mb:
            raise ValueError("system reservation cannot exceed physical memory")
        self.cpu_mhz = cpu_mhz
        self.memory_mb = memory_mb
        self.system_reserved_mb = system_reserved_mb
        self._entries: Dict[str, CgroupEntry] = {}
        #: Sum of the admitted reservations.  ``admit``/``release`` re-sum it in admission
        #: order: a running ``+=``/``-=`` would reorder the floats placement decides on.
        self.allocated_memory_mb = 0.0
        #: CPU seconds of released workloads, so the station total never goes down.
        self._released_cpu_seconds = 0.0
        self.admission_failures = 0

    # --------------------------------------------------------- admission

    @property
    def allocatable_memory_mb(self) -> float:
        """Memory available to workloads in total."""
        return self.memory_mb - self.system_reserved_mb

    @property
    def free_memory_mb(self) -> float:
        return self.allocatable_memory_mb - self.allocated_memory_mb

    @property
    def total_cpu_shares(self) -> int:
        return sum(entry.request.cpu_shares for entry in self._entries.values())

    def can_admit(self, request: ResourceRequest) -> bool:
        """True if the request fits in the remaining memory."""
        return request.memory_mb <= self.free_memory_mb

    def admit(self, owner: str, request: ResourceRequest) -> CgroupEntry:
        """Reserve resources for ``owner`` or raise :class:`AdmissionError`."""
        if owner in self._entries:
            raise AdmissionError(f"{owner!r} already has a cgroup entry")
        if not self.can_admit(request):
            self.admission_failures += 1
            raise AdmissionError(
                f"cannot admit {owner!r}: needs {request.memory_mb:.1f} MB, "
                f"only {self.free_memory_mb:.1f} MB free"
            )
        entry = CgroupEntry(owner=owner, request=request)
        self._entries[owner] = entry
        self.allocated_memory_mb = sum(e.memory_mb for e in self._entries.values())
        return entry

    def release(self, owner: str) -> None:
        """Free the resources held by ``owner`` (no-op if unknown)."""
        entry = self._entries.pop(owner, None)
        if entry is not None:
            self._released_cpu_seconds += entry.cpu_seconds_consumed
            self.allocated_memory_mb = sum(e.memory_mb for e in self._entries.values())

    def entry(self, owner: str) -> Optional[CgroupEntry]:
        return self._entries.get(owner)

    def owners(self) -> List[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # --------------------------------------------------------------- usage

    def charge_cpu(self, owner: str, cpu_seconds: float) -> None:
        """Record CPU time consumed by a workload (per-packet NF processing)."""
        entry = self._entries.get(owner)
        if entry is not None:
            entry.cpu_seconds_consumed += cpu_seconds

    def cpu_seconds(self, owner: str) -> float:
        entry = self._entries.get(owner)
        return entry.cpu_seconds_consumed if entry is not None else 0.0

    def total_cpu_seconds(self) -> float:
        """Cumulative CPU seconds charged on this station (released workloads included)."""
        return self._released_cpu_seconds + sum(entry.cpu_seconds_consumed for entry in self._entries.values())

    def cpu_share_fraction(self, owner: str) -> float:
        """Fraction of CPU the owner is entitled to under contention."""
        total = self.total_cpu_shares
        entry = self._entries.get(owner)
        if entry is None or total == 0:
            return 0.0
        return entry.request.cpu_shares / total

    # ------------------------------------------------------------ snapshot

    def memory_utilization(self) -> float:
        """Fraction of allocatable memory currently reserved."""
        if self.allocatable_memory_mb <= 0:
            return 1.0
        return self.allocated_memory_mb / self.allocatable_memory_mb

    def snapshot(self) -> Dict[str, float]:
        """Usage summary included in Agent heartbeats."""
        return {
            "cpu_mhz": self.cpu_mhz,
            "memory_mb": self.memory_mb,
            "allocatable_memory_mb": self.allocatable_memory_mb,
            "allocated_memory_mb": self.allocated_memory_mb,
            "free_memory_mb": self.free_memory_mb,
            "memory_utilization": self.memory_utilization(),
            "workloads": float(len(self._entries)),
            "total_cpu_seconds": self.total_cpu_seconds(),
            "admission_failures": float(self.admission_failures),
        }
