"""Namespace records for containers.

Containers isolate processes, network state and filesystems through kernel
namespaces ("allowing each container to use the host OS kernel to isolate
processes, network routing tables, and their associated resources").  The
reproduction keeps explicit namespace objects so that tests and the
checkpoint engine can assert exactly what state belongs to a container and
what travels with it during migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class NetworkNamespace:
    """Per-container network state: interfaces and a routing table."""

    name: str
    interface_names: List[str] = field(default_factory=list)
    routes: Dict[str, str] = field(default_factory=dict)  # destination CIDR -> via interface

    def add_interface(self, interface_name: str) -> None:
        if interface_name not in self.interface_names:
            self.interface_names.append(interface_name)

    def remove_interface(self, interface_name: str) -> None:
        if interface_name in self.interface_names:
            self.interface_names.remove(interface_name)

    def add_route(self, destination: str, via_interface: str) -> None:
        self.routes[destination] = via_interface

    def serialize(self) -> Dict[str, object]:
        """State captured by checkpoints."""
        return {
            "name": self.name,
            "interfaces": list(self.interface_names),
            "routes": dict(self.routes),
        }


@dataclass
class PidNamespace:
    """Per-container process tree (just enough to model footprint and restore)."""

    name: str
    processes: Dict[int, str] = field(default_factory=dict)
    _next_pid: int = 1

    def spawn(self, command: str) -> int:
        pid = self._next_pid
        self._next_pid += 1
        self.processes[pid] = command
        return pid

    def kill(self, pid: int) -> bool:
        return self.processes.pop(pid, None) is not None

    def kill_all(self) -> int:
        count = len(self.processes)
        self.processes.clear()
        return count

    @property
    def process_count(self) -> int:
        return len(self.processes)


@dataclass
class MountNamespace:
    """Per-container filesystem view: the image layers plus a writable layer."""

    name: str
    lower_layers: List[str] = field(default_factory=list)
    upper_layer_mb: float = 0.0

    def mount_layers(self, layer_digests: List[str]) -> None:
        self.lower_layers = list(layer_digests)

    def write(self, megabytes: float) -> None:
        """Grow the writable layer (e.g. logs, cache objects)."""
        if megabytes < 0:
            raise ValueError("cannot write a negative amount")
        self.upper_layer_mb += megabytes

    def serialize(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "lower_layers": list(self.lower_layers),
            "upper_layer_mb": self.upper_layer_mb,
        }
