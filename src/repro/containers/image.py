"""Container images and the central NF repository.

The paper: "the Manager notifies the closest Agent that retrieves (if not
already hosted locally) the NF from a central repository and starts it in a
container."  The :class:`ImageRegistry` is that repository; images carry a
size (which determines pull time over the emulated backhaul), the NF class
they package, and default resource requirements.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ImageLayer:
    """One content-addressed layer of an image."""

    digest: str
    size_mb: float

    @classmethod
    def from_content(cls, content: str, size_mb: float) -> "ImageLayer":
        digest = hashlib.sha256(content.encode("utf-8")).hexdigest()[:16]
        return cls(digest=digest, size_mb=size_mb)


@dataclass(frozen=True)
class ContainerImage:
    """An NF container image stored in the central repository."""

    name: str
    tag: str = "latest"
    layers: Tuple[ImageLayer, ...] = ()
    nf_class: str = ""
    default_memory_mb: float = 8.0
    default_cpu_shares: int = 256
    description: str = ""

    @property
    def reference(self) -> str:
        """The ``name:tag`` reference Agents use when requesting the image."""
        return f"{self.name}:{self.tag}"

    @property
    def size_mb(self) -> float:
        """Total compressed size of all layers."""
        return sum(layer.size_mb for layer in self.layers)

    @classmethod
    def build(
        cls,
        name: str,
        size_mb: float,
        nf_class: str,
        tag: str = "latest",
        default_memory_mb: float = 8.0,
        default_cpu_shares: int = 256,
        layer_count: int = 3,
        description: str = "",
    ) -> "ContainerImage":
        """Construct an image split into ``layer_count`` equal layers."""
        if size_mb <= 0:
            raise ValueError(f"image size must be positive, got {size_mb}")
        if layer_count <= 0:
            raise ValueError(f"layer_count must be positive, got {layer_count}")
        per_layer = size_mb / layer_count
        layers = tuple(
            ImageLayer.from_content(f"{name}:{tag}:layer{index}", per_layer)
            for index in range(layer_count)
        )
        return cls(
            name=name,
            tag=tag,
            layers=layers,
            nf_class=nf_class,
            default_memory_mb=default_memory_mb,
            default_cpu_shares=default_cpu_shares,
            description=description,
        )


class ImageNotFoundError(KeyError):
    """Raised when an Agent requests an image the repository does not hold."""


class ImageRegistry:
    """The central NF repository Agents pull images from.

    Pull time is modelled from the image size and the bandwidth of the path
    between the repository (in the core) and the pulling station, plus a
    fixed per-request overhead (TLS handshake, manifest resolution).  Layers
    already present in the puller's local cache are skipped, exactly like a
    real registry's layer deduplication.
    """

    def __init__(self, name: str = "gnf-repository", request_overhead_s: float = 0.05) -> None:
        self.name = name
        self.request_overhead_s = request_overhead_s
        self._images: Dict[str, ContainerImage] = {}

    # ------------------------------------------------------------- catalog

    def push(self, image: ContainerImage) -> ContainerImage:
        """Publish an image (overwrites any previous image with the same reference)."""
        self._images[image.reference] = image
        return image

    def get(self, reference: str) -> ContainerImage:
        """Resolve a reference; a bare name implies ``:latest``."""
        if ":" not in reference:
            reference = f"{reference}:latest"
        try:
            return self._images[reference]
        except KeyError as exc:
            raise ImageNotFoundError(reference) from exc

    def __contains__(self, reference: str) -> bool:
        if ":" not in reference:
            reference = f"{reference}:latest"
        return reference in self._images

    def catalog(self) -> List[str]:
        """All published image references."""
        return sorted(self._images)

    # ----------------------------------------------------------------- pull

    def pull_time_s(
        self,
        reference: str,
        bandwidth_bps: float,
        cached_layers: Optional[set] = None,
    ) -> Tuple[ContainerImage, float]:
        """Return the image and the time a pull over ``bandwidth_bps`` takes."""
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        image = self.get(reference)
        cached = cached_layers or set()
        missing_mb = sum(layer.size_mb for layer in image.layers if layer.digest not in cached)
        transfer_s = (missing_mb * 8 * 1_000_000) / bandwidth_bps
        return image, self.request_overhead_s + transfer_s


def default_nf_images() -> List[ContainerImage]:
    """The NF image catalogue shipped with the reproduction.

    Sizes follow the paper's emphasis on *small* single-purpose containers
    (an Alpine-based iptables or nfqueue tool image is single-digit MB), and
    each image names the :mod:`repro.nfs` class it packages.
    """
    return [
        ContainerImage.build(
            "gnf/firewall", size_mb=4.0, nf_class="repro.nfs.firewall.Firewall",
            default_memory_mb=6.0, description="iptables-based packet firewall",
        ),
        ContainerImage.build(
            "gnf/http-filter", size_mb=6.0, nf_class="repro.nfs.http_filter.HTTPFilter",
            default_memory_mb=10.0, description="HTTP URL/content filter",
        ),
        ContainerImage.build(
            "gnf/dns-loadbalancer", size_mb=5.0, nf_class="repro.nfs.dns_loadbalancer.DNSLoadBalancer",
            default_memory_mb=8.0, description="DNS load balancer",
        ),
        ContainerImage.build(
            "gnf/rate-limiter", size_mb=3.0, nf_class="repro.nfs.rate_limiter.RateLimiter",
            default_memory_mb=4.0, description="tc-style token bucket rate limiter",
        ),
        ContainerImage.build(
            "gnf/nat", size_mb=4.0, nf_class="repro.nfs.nat.NAT",
            default_memory_mb=6.0, description="source NAT",
        ),
        ContainerImage.build(
            "gnf/cache", size_mb=12.0, nf_class="repro.nfs.cache.EdgeCache",
            default_memory_mb=32.0, description="edge HTTP object cache",
        ),
        ContainerImage.build(
            "gnf/ids", size_mb=10.0, nf_class="repro.nfs.ids.IntrusionDetector",
            default_memory_mb=16.0, description="signature-based intrusion detector",
        ),
        ContainerImage.build(
            "gnf/flow-monitor", size_mb=3.0, nf_class="repro.nfs.flow_monitor.FlowMonitor",
            default_memory_mb=4.0, description="passive per-flow monitor",
        ),
        ContainerImage.build(
            "gnf/load-balancer", size_mb=5.0, nf_class="repro.nfs.load_balancer.L4LoadBalancer",
            default_memory_mb=8.0, description="L4 connection load balancer",
        ),
        ContainerImage.build(
            "gnf/amf", size_mb=8.0, nf_class="repro.nfs.mobile_core.AMFFunction",
            default_memory_mb=8.0, description="AMF-like access/mobility control NF",
        ),
        ContainerImage.build(
            "gnf/smf", size_mb=9.0, nf_class="repro.nfs.mobile_core.SMFFunction",
            default_memory_mb=12.0, description="SMF-like session management NF",
        ),
        ContainerImage.build(
            "gnf/upf", size_mb=7.0, nf_class="repro.nfs.mobile_core.UPFFunction",
            default_memory_mb=8.0, description="UPF-like user plane NF with edge breakout",
        ),
    ]
