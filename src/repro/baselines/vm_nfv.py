"""VM-based NFV baseline.

Section 2: existing NF platforms "either rely on specialised hypervisors or
utilise commodity x86 servers using resource-hungry Virtual Machines,
preventing their use in future wide-area and 5G networks where high network
function density and mobility is paramount".

This baseline runs the *same* NF catalogue through the same
:class:`~repro.containers.runtime.ContainerRuntime` engine but parameterised
like a hypervisor: guest images of hundreds of MB, per-instance memory
reservations of hundreds of MB (a guest kernel + userspace per NF) and boot
times measured in tens of seconds.  Benchmarks E2 (instantiation latency) and
E3 (NF density per host) compare it against the container figures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.containers.cgroups import AdmissionError, ResourceAccount
from repro.containers.image import ContainerImage, ImageRegistry
from repro.containers.runtime import ContainerRuntime, RuntimeTimings
from repro.netem.simulator import Simulator
from repro.netem.topology import StationProfile

#: Per-NF-type VM sizing: (image size MB, guest memory MB).
VM_SIZING: Dict[str, Tuple[float, float]] = {
    "firewall": (350.0, 256.0),
    "http-filter": (400.0, 384.0),
    "dns-loadbalancer": (350.0, 256.0),
    "rate-limiter": (300.0, 256.0),
    "nat": (300.0, 256.0),
    "cache": (450.0, 512.0),
    "ids": (500.0, 512.0),
    "flow-monitor": (300.0, 256.0),
    "load-balancer": (350.0, 256.0),
}

DEFAULT_VM_SIZING: Tuple[float, float] = (400.0, 384.0)


def vm_image_for(nf_type: str) -> ContainerImage:
    """Build the VM guest image equivalent of an NF container image."""
    image_size_mb, memory_mb = VM_SIZING.get(nf_type, DEFAULT_VM_SIZING)
    return ContainerImage.build(
        name=f"vm/{nf_type}",
        size_mb=image_size_mb,
        nf_class=f"repro.nfs.{nf_type.replace('-', '_')}",
        default_memory_mb=memory_mb,
        default_cpu_shares=1024,
        layer_count=1,
        description=f"full guest image packaging the {nf_type} NF",
    )


class VMNFVBaseline:
    """A VM-based NFV host with the same external API as the container runtime."""

    hypervisor_overhead_mb = 512.0

    def __init__(
        self,
        simulator: Simulator,
        profile: Optional[StationProfile] = None,
        pull_bandwidth_bps: float = 100e6,
    ) -> None:
        self.simulator = simulator
        self.profile = profile or StationProfile.server_class()
        registry = ImageRegistry(name="vm-image-store")
        for nf_type in VM_SIZING:
            registry.push(vm_image_for(nf_type))
        # The hypervisor itself consumes a fixed slice of the host.
        reserved = min(self.hypervisor_overhead_mb, self.profile.memory_mb * 0.5)
        resources = ResourceAccount(
            cpu_mhz=self.profile.cpu_mhz,
            memory_mb=self.profile.memory_mb,
            system_reserved_mb=reserved,
        )
        cpu_scale = 2.5 if self.profile.name == "router-class" else 1.0
        self.runtime = ContainerRuntime(
            simulator,
            name=f"vm-nfv-{self.profile.name}",
            resources=resources,
            registry=registry,
            timings=RuntimeTimings.for_vms(cpu_scale=cpu_scale),
            pull_bandwidth_bps=pull_bandwidth_bps,
            per_container_overhead_mb=64.0,  # per-VM device model / QEMU overhead
        )
        self._instance_counter = 0

    # ------------------------------------------------------------ operations

    def supports(self, nf_type: str) -> bool:
        return nf_type in VM_SIZING

    def instantiate(self, nf_type: str, warm: bool = True) -> Tuple[object, float]:
        """Create and boot one NF VM; returns (vm, total latency in seconds).

        ``warm=False`` forces an image pull from the VM image store first.
        """
        image = vm_image_for(nf_type)
        if warm:
            self.runtime.cache_image(image)
        resolved, pull_time = self.runtime.ensure_image(image.reference)
        self._instance_counter += 1
        vm = self.runtime.create(resolved, name=f"vm-{nf_type}-{self._instance_counter}")
        boot_time = self.runtime.start(vm)
        return vm, pull_time + boot_time

    def max_density(self, nf_type: str) -> int:
        """How many NF VMs of this type fit on the host before admission fails."""
        image = vm_image_for(nf_type)
        self.runtime.cache_image(image)
        count = 0
        while True:
            try:
                self._instance_counter += 1
                self.runtime.create(image, name=f"density-{nf_type}-{self._instance_counter}")
                count += 1
            except AdmissionError:
                return count
