"""Network function implementations.

The demo ships three NFs (an iptables-based packet firewall, an HTTP filter
and a DNS load balancer, Section 4); the GNF catalogue on github.com/glanf
contains several more.  This package implements them as pure packet
processors over the :mod:`repro.netem.packet` model:

* :mod:`repro.nfs.base` -- the ``NetworkFunction`` contract (process,
  notifications, exportable state for migration).
* :mod:`repro.nfs.firewall` -- ordered-rule stateful firewall.
* :mod:`repro.nfs.http_filter` -- URL / content-type filter.
* :mod:`repro.nfs.dns_loadbalancer` -- rewrites DNS answers across a backend
  pool.
* :mod:`repro.nfs.rate_limiter` -- token-bucket policer.
* :mod:`repro.nfs.nat` -- source NAT.
* :mod:`repro.nfs.cache` -- edge HTTP object cache.
* :mod:`repro.nfs.ids` -- signature/anomaly intrusion detector (the source of
  the Manager notifications described in Section 3).
* :mod:`repro.nfs.flow_monitor` -- passive per-flow statistics.
* :mod:`repro.nfs.load_balancer` -- L4 connection load balancer.
* :mod:`repro.nfs.mobile_core` -- AMF/SMF-like control NFs and a UPF-like
  user-plane NF with edge breakout (the mobile-core service bundle).

``create_nf`` instantiates an NF from the dotted class path stored in a
container image, which is how Agents turn a pulled image into a running
function; ``nf_entry_problem`` is the spec-time check that an entry's type and
config keys will construct.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from typing import Any, Dict, FrozenSet, Mapping, Optional, Type

from repro.nfs.base import NetworkFunction, ProcessingContext, Direction, NFNotification
from repro.nfs.firewall import Firewall, FirewallRule, FirewallAction
from repro.nfs.http_filter import HTTPFilter
from repro.nfs.dns_loadbalancer import DNSLoadBalancer
from repro.nfs.rate_limiter import RateLimiter
from repro.nfs.nat import NAT
from repro.nfs.cache import EdgeCache
from repro.nfs.ids import IntrusionDetector
from repro.nfs.flow_monitor import FlowMonitor
from repro.nfs.load_balancer import L4LoadBalancer
from repro.nfs.mobile_core import AMFFunction, SMFFunction, UPFFunction

#: Human-friendly catalogue used by examples and the UI.
NF_CATALOG: Dict[str, Type[NetworkFunction]] = {
    "firewall": Firewall,
    "http-filter": HTTPFilter,
    "dns-loadbalancer": DNSLoadBalancer,
    "rate-limiter": RateLimiter,
    "nat": NAT,
    "cache": EdgeCache,
    "ids": IntrusionDetector,
    "flow-monitor": FlowMonitor,
    "load-balancer": L4LoadBalancer,
    "amf": AMFFunction,
    "smf": SMFFunction,
    "upf": UPFFunction,
}


@functools.lru_cache(maxsize=None)
def _config_keys(nf_class: Type[NetworkFunction]) -> Optional[FrozenSet[str]]:
    """The keywords ``nf_class`` takes from a config; None when it takes any.

    ``name`` is excluded: the Agent passes it from the container name.
    """
    keys = set()
    for parameter in inspect.signature(nf_class).parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind is not inspect.Parameter.VAR_POSITIONAL:
            keys.add(parameter.name)
    return frozenset(keys - {"name"})


def nf_entry_problem(nf_type: str, config: Mapping[str, Any]) -> Optional[str]:
    """Why an Agent could not build ``nf_type`` from ``config``; None if it can.

    The type must be catalogued in :data:`NF_CATALOG` and every config key
    must be a parameter of its constructor.  Spec validation calls this so a
    bad chain or bundle entry fails at ``validate()``, not mid-run.
    """
    nf_class = NF_CATALOG.get(nf_type)
    if nf_class is None:
        return f"unknown NF type {nf_type!r}; known types: {sorted(NF_CATALOG)}"
    if not config:
        return None
    accepted = _config_keys(nf_class)
    unknown = [] if accepted is None else sorted(set(config) - accepted)
    if unknown:
        return f"{nf_type} takes no config key {unknown}; it takes {sorted(accepted)}"
    return None


def create_nf(class_path: str, **kwargs: Any) -> NetworkFunction:
    """Instantiate a network function from its dotted class path.

    ``class_path`` is the ``nf_class`` recorded in a container image, e.g.
    ``"repro.nfs.firewall.Firewall"``.  Keyword arguments are forwarded to
    the NF constructor (deployment-time configuration from the Manager).
    """
    module_name, _, class_name = class_path.rpartition(".")
    if not module_name:
        raise ValueError(f"invalid NF class path {class_path!r}")
    module = importlib.import_module(module_name)
    nf_class = getattr(module, class_name)
    if not issubclass(nf_class, NetworkFunction):
        raise TypeError(f"{class_path} is not a NetworkFunction")
    return nf_class(**kwargs)


__all__ = [
    "NetworkFunction",
    "ProcessingContext",
    "Direction",
    "NFNotification",
    "Firewall",
    "FirewallRule",
    "FirewallAction",
    "HTTPFilter",
    "DNSLoadBalancer",
    "RateLimiter",
    "NAT",
    "EdgeCache",
    "IntrusionDetector",
    "FlowMonitor",
    "L4LoadBalancer",
    "AMFFunction",
    "SMFFunction",
    "UPFFunction",
    "NF_CATALOG",
    "create_nf",
    "nf_entry_problem",
]
