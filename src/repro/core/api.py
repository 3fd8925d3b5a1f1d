"""Control-plane messages and the Manager <-> Agent control channel.

Section 3: the Manager "keep[s] a connection with all the Agents in the
network" and exposes "a set of APIs to control the state of NFs' containers
across all stations".  The reproduction models that connection as a
:class:`ControlChannel` with the one-way latency of the management path
(station <-> gateway <-> core), and the Agent -> Manager reports as three
message dataclasses -- :class:`AgentHeartbeat`, :class:`ClientEvent` and
:class:`NFNotificationMessage` -- so control-plane traffic volume and latency
are measurable (benchmark E7).  The Manager -> Agent direction is a direct
call on the Agent delivered over the channel; it has no message type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.netem.simulator import Simulator


@dataclass
class AgentHeartbeat:
    """Agent -> Manager: periodic station state report."""

    station_name: str
    time: float
    resources: Dict[str, float] = field(default_factory=dict)
    switch: Dict[str, float] = field(default_factory=dict)
    #: Per-NF statistics: the Agent leaves this empty, and it stays only
    #: because the perf harness's heartbeat probe passes an empty dict.
    nf_stats: Dict[str, Dict[str, object]] = field(default_factory=dict)
    connected_clients: List[str] = field(default_factory=list)
    #: Station-wide edge-cache totals (hits, misses, evictions, bytes served
    #: locally), aggregated by the Agent's collector source; the sharded and
    #: federated frontends stream the deltas into the rollup tree.
    cache: Dict[str, float] = field(default_factory=dict)


@dataclass
class ClientEvent:
    """Agent -> Manager: a client (dis)connected from a cell on this station."""

    station_name: str
    client_ip: str
    client_name: str
    event: str  # "connected" | "disconnected"
    time: float


@dataclass
class NFNotificationMessage:
    """Agent -> Manager: an NF raised a notification (intrusion, anomaly...)."""

    station_name: str
    nf_name: str
    severity: str
    message: str
    time: float
    details: Dict[str, object] = field(default_factory=dict)


class ControlChannel:
    """A latency-modelled, loss-free control connection to one Agent.

    ``call`` delivers a callback on the remote side after the one-way
    latency; both directions share the same latency figure (the management
    VLAN between the core and the station).
    """

    def __init__(self, simulator: Simulator, latency_s: float, name: str = "control") -> None:
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative, got {latency_s}")
        self.simulator = simulator
        self.latency_s = latency_s
        self.name = name
        self.messages_delivered = 0
        self.bytes_estimate = 0

    def call(self, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> None:
        """Invoke ``callback`` on the far side after the control-plane latency."""
        self.messages_delivered += 1
        # Rough control message size for the traffic accounting in E7.
        self.bytes_estimate += 512
        self.simulator.schedule(self.latency_s, callback, *args, **kwargs)

    def sender(self, callback: Callable[[Any], None]) -> Callable[[Any], None]:
        """A one-argument sender delivering each message via :meth:`call`.

        Agents hold senders rather than (channel, callback) pairs so the
        transport is swappable: the sharded control plane hands out
        bus-coalescing senders with the same signature.
        """

        def send(message: Any) -> None:
            self.call(callback, message)

        return send

    def stats(self) -> Dict[str, float]:
        return {
            "latency_s": self.latency_s,
            "messages_delivered": float(self.messages_delivered),
            "bytes_estimate": float(self.bytes_estimate),
        }
