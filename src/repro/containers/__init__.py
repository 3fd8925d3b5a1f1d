"""Container runtime substrate.

GNF encapsulates every network function in a lightweight Linux container.
Since the reproduction runs offline with no container engine available, this
package provides a faithful *simulated* runtime whose externally visible
behaviour (instantiation latency, image pulls from a central repository,
memory/CPU accounting, veth wiring, checkpoints for migration,
lifecycle state machine) matches what the GNF Agent exercises on the demo's
OpenWRT routers.

Modules
-------
* :mod:`repro.containers.image` -- images, layers and the central registry.
* :mod:`repro.containers.cgroups` -- CPU/memory accounting and admission.
* :mod:`repro.containers.namespaces` -- network/PID/mount namespace records.
* :mod:`repro.containers.container` -- the container object and its state
  machine.
* :mod:`repro.containers.checkpoint` -- CRIU-style checkpoints used by
  stateful NF migration.
* :mod:`repro.containers.runtime` -- the per-station container engine.
"""

from repro.containers.image import ContainerImage, ImageLayer, ImageRegistry
from repro.containers.cgroups import ResourceAccount, ResourceRequest, AdmissionError
from repro.containers.namespaces import NetworkNamespace, PidNamespace, MountNamespace
from repro.containers.container import Container, ContainerState, InvalidTransitionError
from repro.containers.checkpoint import Checkpoint, CheckpointEngine
from repro.containers.runtime import ContainerRuntime, RuntimeTimings

__all__ = [
    "ContainerImage",
    "ImageLayer",
    "ImageRegistry",
    "ResourceAccount",
    "ResourceRequest",
    "AdmissionError",
    "NetworkNamespace",
    "PidNamespace",
    "MountNamespace",
    "Container",
    "ContainerState",
    "InvalidTransitionError",
    "Checkpoint",
    "CheckpointEngine",
    "ContainerRuntime",
    "RuntimeTimings",
]
