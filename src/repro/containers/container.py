"""The container object and its lifecycle state machine.

Agents drive containers through the same lifecycle LXC/Docker would expose:
``CREATED -> STARTING -> RUNNING -> STOPPING -> STOPPED`` with pause,
checkpoint and failure excursions.  Keeping the state machine explicit (and
strict) lets the Manager reason about "unexpected or inconsistent NF state"
notifications and lets tests assert that migration never leaves a container
in limbo.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.containers.cgroups import ResourceRequest
from repro.containers.image import ContainerImage
from repro.containers.namespaces import MountNamespace, NetworkNamespace, PidNamespace

_container_ids = itertools.count(1)


class ContainerState(enum.Enum):
    """Lifecycle states of a container."""

    CREATED = "created"
    STARTING = "starting"
    RUNNING = "running"
    PAUSED = "paused"
    CHECKPOINTING = "checkpointing"
    STOPPING = "stopping"
    STOPPED = "stopped"
    FAILED = "failed"


#: Legal state transitions.  ``FAILED`` is reachable from every live state.
_VALID_TRANSITIONS: Dict[ContainerState, Tuple[ContainerState, ...]] = {
    ContainerState.CREATED: (ContainerState.STARTING, ContainerState.STOPPED, ContainerState.FAILED),
    ContainerState.STARTING: (ContainerState.RUNNING, ContainerState.FAILED),
    ContainerState.RUNNING: (
        ContainerState.PAUSED,
        ContainerState.CHECKPOINTING,
        ContainerState.STOPPING,
        ContainerState.FAILED,
    ),
    ContainerState.PAUSED: (ContainerState.RUNNING, ContainerState.STOPPING, ContainerState.FAILED),
    ContainerState.CHECKPOINTING: (ContainerState.RUNNING, ContainerState.STOPPING, ContainerState.FAILED),
    ContainerState.STOPPING: (ContainerState.STOPPED, ContainerState.FAILED),
    ContainerState.STOPPED: (),
    ContainerState.FAILED: (),
}


class InvalidTransitionError(RuntimeError):
    """Raised on an illegal lifecycle transition."""


@dataclass
class StateChange:
    """One entry of the container's state history."""

    time: float
    old_state: ContainerState
    new_state: ContainerState
    reason: str = ""


class Container:
    """A single NF container instance on one station."""

    def __init__(
        self,
        name: str,
        image: ContainerImage,
        request: ResourceRequest,
        created_at: float = 0.0,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.container_id = f"c{next(_container_ids):06d}"
        self.name = name
        self.image = image
        self.request = request
        self.labels: Dict[str, str] = dict(labels or {})
        self.state = ContainerState.CREATED
        self.history: List[StateChange] = []
        self.created_at = created_at
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        # Namespaces mirror what a real container engine would set up.
        self.network_namespace = NetworkNamespace(name=f"netns-{self.container_id}")
        self.pid_namespace = PidNamespace(name=f"pidns-{self.container_id}")
        self.mount_namespace = MountNamespace(name=f"mntns-{self.container_id}")
        self.mount_namespace.mount_layers([layer.digest for layer in image.layers])
        # The network function instance the Agent attaches once RUNNING.
        self.network_function = None
        # Switch ports occupied by this container's veth pairs (set by the Agent).
        self.ingress_port: Optional[int] = None
        self.egress_port: Optional[int] = None

    # ----------------------------------------------------------- lifecycle

    def _transition(self, new_state: ContainerState, time: float, reason: str = "") -> None:
        allowed = _VALID_TRANSITIONS[self.state]
        if new_state not in allowed:
            raise InvalidTransitionError(
                f"container {self.name!r}: illegal transition {self.state.value} -> {new_state.value}"
            )
        self.history.append(StateChange(time=time, old_state=self.state, new_state=new_state, reason=reason))
        self.state = new_state

    def mark_starting(self, time: float) -> None:
        self._transition(ContainerState.STARTING, time, "start requested")
        self.pid_namespace.spawn(f"/usr/bin/{self.image.name.split('/')[-1]}")

    def mark_running(self, time: float) -> None:
        self._transition(ContainerState.RUNNING, time, "boot complete")
        self.started_at = time

    def mark_paused(self, time: float) -> None:
        self._transition(ContainerState.PAUSED, time, "paused")

    def mark_unpaused(self, time: float) -> None:
        if self.state is not ContainerState.PAUSED:
            raise InvalidTransitionError(f"container {self.name!r} is not paused")
        self._transition(ContainerState.RUNNING, time, "unpaused")

    def mark_checkpointing(self, time: float) -> None:
        self._transition(ContainerState.CHECKPOINTING, time, "checkpoint started")

    def mark_checkpoint_done(self, time: float) -> None:
        if self.state is not ContainerState.CHECKPOINTING:
            raise InvalidTransitionError(f"container {self.name!r} is not checkpointing")
        self._transition(ContainerState.RUNNING, time, "checkpoint complete")

    def mark_stopping(self, time: float) -> None:
        if self.state is ContainerState.CREATED:
            # A never-started container can be discarded directly.
            self._transition(ContainerState.STOPPED, time, "discarded before start")
            self.stopped_at = time
            return
        self._transition(ContainerState.STOPPING, time, "stop requested")

    def mark_stopped(self, time: float) -> None:
        self._transition(ContainerState.STOPPED, time, "stopped")
        self.pid_namespace.kill_all()
        self.stopped_at = time

    def mark_failed(self, time: float, reason: str = "") -> None:
        self._transition(ContainerState.FAILED, time, reason or "failure")
        self.pid_namespace.kill_all()
        self.stopped_at = time

    # ------------------------------------------------------------- queries

    @property
    def is_running(self) -> bool:
        return self.state is ContainerState.RUNNING

    @property
    def is_terminal(self) -> bool:
        return self.state in (ContainerState.STOPPED, ContainerState.FAILED)

    @property
    def memory_footprint_mb(self) -> float:
        """Resident memory: the cgroup reservation plus the writable layer."""
        return self.request.memory_mb + self.mount_namespace.upper_layer_mb

    def uptime(self, now: float) -> float:
        """Seconds spent running (0 if never started)."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else now
        return max(0.0, end - self.started_at)

    def boot_latency(self) -> Optional[float]:
        """Time from creation to RUNNING, if the container ever got there."""
        if self.started_at is None:
            return None
        return self.started_at - self.created_at

    def describe(self) -> Dict[str, object]:
        """Status document the Agent reports to the Manager."""
        return {
            "id": self.container_id,
            "name": self.name,
            "image": self.image.reference,
            "state": self.state.value,
            "memory_mb": self.memory_footprint_mb,
            "cpu_shares": self.request.cpu_shares,
            "labels": dict(self.labels),
            "created_at": self.created_at,
            "started_at": self.started_at,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Container({self.name!r}, {self.image.reference}, {self.state.value})"
