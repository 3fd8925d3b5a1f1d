"""The per-station container engine.

Each GNF Agent drives one :class:`ContainerRuntime` -- the equivalent of the
LXC tooling on the demo's OpenWRT routers.  The runtime owns the station's
resource accounting, its local image/layer cache and the timing model for
every lifecycle operation (create, boot, stop, checkpoint, restore).

The same class also powers the VM-based NFV baseline: the baseline simply
instantiates it with :meth:`RuntimeTimings.for_vms` and much larger images
and memory reservations, which is exactly the difference the paper's
"lightweight containers vs. resource-hungry VMs" argument rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.containers.cgroups import AdmissionError, ResourceAccount, ResourceRequest
from repro.containers.checkpoint import Checkpoint, CheckpointEngine
from repro.containers.container import Container, ContainerState
from repro.containers.image import ContainerImage, ImageRegistry
from repro.netem.simulator import Simulator


@dataclass(frozen=True)
class RuntimeTimings:
    """Latency model of the virtualization layer.

    ``cpu_scale`` multiplies every duration, capturing how much slower a
    router-class MIPS SoC is than an x86 edge server at the same operations.
    """

    create_s: float
    base_start_s: float
    start_per_image_mb_s: float
    stop_s: float
    cpu_scale: float = 1.0

    def scaled(self, value: float) -> float:
        return value * self.cpu_scale

    def start_duration_s(self, image: ContainerImage) -> float:
        """Boot latency for an already-pulled image."""
        return self.scaled(self.base_start_s + self.start_per_image_mb_s * image.size_mb)

    def create_duration_s(self) -> float:
        return self.scaled(self.create_s)

    def stop_duration_s(self) -> float:
        return self.scaled(self.stop_s)

    @classmethod
    def for_containers(cls, cpu_scale: float = 1.0) -> "RuntimeTimings":
        """Linux-container timings (sub-second boots, calibrated to the GNF/ISCC'15 numbers)."""
        return cls(
            create_s=0.010,
            base_start_s=0.150,
            start_per_image_mb_s=0.004,
            stop_s=0.050,
            cpu_scale=cpu_scale,
        )

    @classmethod
    def for_vms(cls, cpu_scale: float = 1.0) -> "RuntimeTimings":
        """Hypervisor/VM timings (tens of seconds to boot a guest kernel + userspace)."""
        return cls(
            create_s=0.500,
            base_start_s=18.0,
            start_per_image_mb_s=0.015,
            stop_s=3.0,
            cpu_scale=cpu_scale,
        )

    @classmethod
    def for_station_profile(cls, profile_name: str) -> "RuntimeTimings":
        """Container timings scaled by station class (router vs server)."""
        if profile_name == "router-class":
            return cls.for_containers(cpu_scale=2.5)
        return cls.for_containers(cpu_scale=0.6)


class ContainerRuntime:
    """Create, boot, stop, checkpoint and restore containers on one station."""

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        resources: ResourceAccount,
        registry: Optional[ImageRegistry] = None,
        timings: Optional[RuntimeTimings] = None,
        pull_bandwidth_bps: float = 100e6,
        per_container_overhead_mb: float = 1.5,
    ) -> None:
        self.simulator = simulator
        self.name = name
        self.resources = resources
        self.registry = registry
        self.timings = timings or RuntimeTimings.for_containers()
        self.pull_bandwidth_bps = pull_bandwidth_bps
        #: Memory the engine itself spends per container (netns, veth, conmon).
        self.per_container_overhead_mb = per_container_overhead_mb
        self.checkpoint_engine = CheckpointEngine()
        #: Every container created here and not destroyed, terminal ones included.
        self.containers: Dict[str, Container] = {}
        #: Those not yet made terminal, in creation order: what periodic readers walk.
        self._live: Dict[str, Container] = {}
        self.image_cache: Dict[str, ContainerImage] = {}
        self.layer_cache: Set[str] = set()
        self.pulls_performed = 0
        self.pull_seconds_total = 0.0
        self.containers_started = 0
        self.containers_failed = 0

    # --------------------------------------------------------------- images

    def cache_image(self, image: ContainerImage) -> None:
        """Pre-seed the local cache (images baked into the station's flash)."""
        self.image_cache[image.reference] = image
        self.layer_cache.update(layer.digest for layer in image.layers)

    def ensure_image(self, reference: str) -> Tuple[ContainerImage, float]:
        """Return the image and how long obtaining it takes (0 when cached)."""
        if ":" not in reference:
            reference = f"{reference}:latest"
        cached = self.image_cache.get(reference)
        if cached is not None:
            return cached, 0.0
        if self.registry is None:
            raise KeyError(f"image {reference!r} not cached and no registry configured")
        image, pull_time = self.registry.pull_time_s(
            reference, self.pull_bandwidth_bps, cached_layers=self.layer_cache
        )
        self.cache_image(image)
        self.pulls_performed += 1
        self.pull_seconds_total += pull_time
        return image, pull_time

    # ------------------------------------------------------------ lifecycle

    def create(
        self,
        image: ContainerImage,
        name: str,
        request: Optional[ResourceRequest] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> Container:
        """Admit and create a container (synchronously; boot is separate)."""
        if name in self.containers:
            raise ValueError(f"runtime {self.name}: container {name!r} already exists")
        effective_request = request or ResourceRequest(
            memory_mb=image.default_memory_mb + self.per_container_overhead_mb,
            cpu_shares=image.default_cpu_shares,
        )
        self.resources.admit(name, effective_request)
        container = Container(
            name=name,
            image=image,
            request=effective_request,
            created_at=self.simulator.now,
            labels=labels,
        )
        self.containers[name] = container
        self._live[name] = container
        return container

    def start(
        self,
        container: Container,
        on_running: Optional[Callable[[Container], None]] = None,
    ) -> float:
        """Boot a created container; returns the boot duration."""
        container.mark_starting(self.simulator.now)
        duration = self.timings.create_duration_s() + self.timings.start_duration_s(container.image)

        def _finish() -> None:
            if container.state is ContainerState.STARTING:
                container.mark_running(self.simulator.now)
                self.containers_started += 1
                if on_running is not None:
                    on_running(container)

        self.simulator.schedule(duration, _finish)
        return duration

    def stop(
        self,
        container: Container,
        on_stopped: Optional[Callable[[Container], None]] = None,
    ) -> float:
        """Stop a container and release its resources; returns the stop duration."""
        container.mark_stopping(self.simulator.now)
        if container.state is ContainerState.STOPPED:
            # Never-started container: discarded immediately.
            self._retire(container)
            if on_stopped is not None:
                self.simulator.schedule(0.0, on_stopped, container)
            return 0.0
        duration = self.timings.stop_duration_s()

        def _finish() -> None:
            if container.state is ContainerState.STOPPING:
                container.mark_stopped(self.simulator.now)
                self._retire(container)
                if on_stopped is not None:
                    on_stopped(container)

        self.simulator.schedule(duration, _finish)
        return duration

    def fail(self, container: Container, reason: str = "") -> None:
        """Mark a container as failed (failure injection) and free its resources."""
        container.mark_failed(self.simulator.now, reason)
        self._retire(container)
        self.containers_failed += 1

    def destroy(self, container: Container) -> None:
        """Forget a terminal container."""
        if not container.is_terminal:
            raise RuntimeError(f"cannot destroy container {container.name!r} in state {container.state.value}")
        self._retire(container)
        self.containers.pop(container.name, None)

    def _retire(self, container: Container) -> None:
        """Free a terminal container's resources and drop it from the live walk."""
        self.resources.release(container.name)
        self._live.pop(container.name, None)

    # ------------------------------------------------------ checkpoint/restore

    def checkpoint(self, container: Container) -> Tuple[Checkpoint, float]:
        """Checkpoint a running container; returns (checkpoint, dump duration)."""
        container.mark_checkpointing(self.simulator.now)
        duration = self.timings.scaled(self.checkpoint_engine.checkpoint_duration_s(container))
        checkpoint = self.checkpoint_engine.create(container, self.simulator.now)
        self.simulator.schedule(duration, self._finish_checkpoint, container)
        return checkpoint, duration

    def _finish_checkpoint(self, container: Container) -> None:
        if container.state is ContainerState.CHECKPOINTING:
            container.mark_checkpoint_done(self.simulator.now)

    def restore(
        self,
        checkpoint: Checkpoint,
        name: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        on_running: Optional[Callable[[Container], None]] = None,
    ) -> Tuple[Container, float]:
        """Create and boot a container from a checkpoint; returns (container, duration)."""
        image, pull_time = self.ensure_image(checkpoint.image_reference)
        container = self.create(
            image,
            name=name or checkpoint.container_name,
            request=ResourceRequest(
                memory_mb=max(image.default_memory_mb, checkpoint.memory_mb),
                cpu_shares=image.default_cpu_shares,
            ),
            labels=labels or dict(checkpoint.labels),
        )
        restore_duration = self.timings.scaled(self.checkpoint_engine.restore_duration_s(checkpoint))
        container.mark_starting(self.simulator.now)
        total = pull_time + restore_duration

        def _finish() -> None:
            if container.state is ContainerState.STARTING:
                container.mark_running(self.simulator.now)
                self.containers_started += 1
                self.checkpoint_engine.apply(checkpoint, container)
                if on_running is not None:
                    on_running(container)

        self.simulator.schedule(total, _finish)
        return container, total

    # --------------------------------------------------------------- queries

    def container(self, name: str) -> Container:
        return self.containers[name]

    def running_containers(self) -> List[Container]:
        return [c for c in self._live.values() if c.is_running]

    @property
    def running_count(self) -> int:
        return len(self.running_containers())

    def can_fit(self, image: ContainerImage) -> bool:
        """Would a container of this image pass admission right now?"""
        request = ResourceRequest(
            memory_mb=image.default_memory_mb + self.per_container_overhead_mb,
            cpu_shares=image.default_cpu_shares,
        )
        return self.resources.can_admit(request)

    def charge_cpu(self, container_name: str, cpu_seconds: float) -> None:
        """Attribute NF packet-processing CPU time to a container."""
        self.resources.charge_cpu(container_name, cpu_seconds)

    def utilization(self) -> Dict[str, float]:
        """Resource snapshot included in Agent heartbeats."""
        snapshot = self.resources.snapshot()
        snapshot.update(
            {
                "containers_total": float(len(self.containers)),
                "containers_running": float(self.running_count),
                "images_cached": float(len(self.image_cache)),
                "pulls_performed": float(self.pulls_performed),
            }
        )
        return snapshot
