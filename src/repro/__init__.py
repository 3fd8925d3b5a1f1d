"""Glasgow Network Functions (GNF) reproduction.

A pure-Python reproduction of *"Roaming Edge vNFs using Glasgow Network
Functions"* (Cziva, Jouet, Pezaros -- SIGCOMM 2016 demo): a container-based
NFV framework for the network edge in which lightweight network functions
follow mobile clients as they roam between wireless cells.

The package is organised as the paper's system plus every substrate it runs
on:

* :mod:`repro.core` -- the GNF Manager, Agents, UI, NF repository, service
  chains, placement, scheduling and the migration engine.
* :mod:`repro.containers` -- the simulated container runtime (images,
  cgroups, namespaces, veth wiring, checkpoint/restore).
* :mod:`repro.netem` -- the discrete-event network emulator (packets, links,
  software switches, topologies, traffic generators).
* :mod:`repro.wireless` -- cells, mobile clients, mobility models and
  RSSI-driven handover.
* :mod:`repro.nfs` -- the network functions themselves (firewall, HTTP
  filter, DNS load balancer, rate limiter, NAT, cache, IDS, ...).
* :mod:`repro.baselines` -- VM-based NFV, centralised NFV and no-migration
  baselines used by the benchmarks.
* :mod:`repro.telemetry` / :mod:`repro.analysis` -- metrics plumbing and
  result summarisation.

Quickstart
----------
>>> from repro import GNFTestbed, TestbedConfig
>>> testbed = GNFTestbed(TestbedConfig(station_count=2))
>>> phone = testbed.add_client("phone", position=(0.0, 0.0))
>>> testbed.start(); _ = testbed.run(1.0)
>>> assignment = testbed.manager.attach_nf(phone.ip, "firewall")
>>> _ = testbed.run(5.0)
>>> assignment.state.value
'active'
"""

from repro.core import (
    Assignment,
    AssignmentState,
    GNFAgent,
    GNFDashboard,
    GNFManager,
    GNFTestbed,
    MigrationRecord,
    NFRepository,
    ServiceChain,
    TestbedConfig,
    TimeSchedule,
    TrafficSelector,
)

__version__ = "1.0.0"

__all__ = [
    "GNFTestbed",
    "TestbedConfig",
    "GNFManager",
    "GNFAgent",
    "GNFDashboard",
    "MigrationRecord",
    "NFRepository",
    "ServiceChain",
    "TrafficSelector",
    "TimeSchedule",
    "Assignment",
    "AssignmentState",
    "__version__",
]
