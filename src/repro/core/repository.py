"""The NF catalogue: function types -> container images -> NF classes.

The paper's central repository stores the NF container images Agents pull on
demand.  :class:`NFRepository` couples the image registry from
:mod:`repro.containers.image` with the configuration needed to turn a pulled
image into a running function (its :mod:`repro.nfs` class and default
constructor arguments), mirroring how the real GNF repository associates
image names with the NF binaries they package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.containers.image import ContainerImage, ImageRegistry, default_nf_images
from repro.core.errors import CatalogError


@dataclass
class CatalogEntry:
    """One NF type the provider can deploy."""

    nf_type: str
    image: ContainerImage
    default_config: Dict[str, Any] = field(default_factory=dict)
    description: str = ""

    @property
    def image_reference(self) -> str:
        return self.image.reference

    @property
    def nf_class(self) -> str:
        return self.image.nf_class


class NFRepository:
    """The provider's catalogue of deployable NF types."""

    def __init__(self) -> None:
        self.registry = ImageRegistry()
        self._catalog: Dict[str, CatalogEntry] = {}

    # -------------------------------------------------------------- catalog

    def register(
        self,
        nf_type: str,
        image: ContainerImage,
        default_config: Optional[Dict[str, Any]] = None,
        description: str = "",
    ) -> CatalogEntry:
        """Publish the image and record how to instantiate the NF it packages."""
        self.registry.push(image)
        entry = CatalogEntry(
            nf_type=nf_type,
            image=image,
            default_config=dict(default_config or {}),
            description=description or image.description,
        )
        self._catalog[nf_type] = entry
        return entry

    def lookup(self, nf_type: str) -> CatalogEntry:
        try:
            return self._catalog[nf_type]
        except KeyError as exc:
            raise CatalogError(
                f"unknown NF type {nf_type!r}; known types: {sorted(self._catalog)}"
            ) from exc

    def __contains__(self, nf_type: str) -> bool:
        return nf_type in self._catalog

    def types(self) -> List[str]:
        return sorted(self._catalog)

    def describe(self) -> List[Dict[str, object]]:
        """Catalogue listing shown by the UI."""
        return [
            {
                "nf_type": entry.nf_type,
                "image": entry.image_reference,
                "image_size_mb": entry.image.size_mb,
                "default_memory_mb": entry.image.default_memory_mb,
                "description": entry.description,
            }
            for entry in self._catalog.values()
        ]

    # ------------------------------------------------------------- defaults

    @classmethod
    def with_default_catalog(cls) -> "NFRepository":
        """A repository pre-loaded with the GNF NF images used by the demo."""
        repository = cls()
        type_by_image = {
            "gnf/firewall": "firewall",
            "gnf/http-filter": "http-filter",
            "gnf/dns-loadbalancer": "dns-loadbalancer",
            "gnf/rate-limiter": "rate-limiter",
            "gnf/nat": "nat",
            "gnf/cache": "cache",
            "gnf/ids": "ids",
            "gnf/flow-monitor": "flow-monitor",
            "gnf/load-balancer": "load-balancer",
            "gnf/amf": "amf",
            "gnf/smf": "smf",
            "gnf/upf": "upf",
        }
        for image in default_nf_images():
            nf_type = type_by_image.get(image.name)
            if nf_type is not None:
                repository.register(nf_type, image, description=image.description)
        return repository
