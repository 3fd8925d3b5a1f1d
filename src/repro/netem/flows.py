"""Flow bookkeeping.

The Manager's UI shows per-client "network traffic" statistics and several
NFs (flow monitor, rate limiter, IDS) need per-flow state.  ``FlowTracker``
provides that: it observes packets at some vantage point and maintains
per-flow counters plus idle-timeout expiry, the same role conntrack plays on
the paper's home routers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netem.packet import FlowKey, Packet


@dataclass
class Flow:
    """Counters for one unidirectional five-tuple flow."""

    key: FlowKey
    packets: int = 0
    bytes: int = 0
    first_seen: float = 0.0
    last_seen: float = 0.0

    @property
    def duration(self) -> float:
        return max(0.0, self.last_seen - self.first_seen)

    def throughput_bps(self) -> float:
        """Average throughput over the flow lifetime in bits per second."""
        if self.duration <= 0:
            return 0.0
        return self.bytes * 8 / self.duration


class FlowTracker:
    """Tracks flows observed at a single vantage point.

    Parameters
    ----------
    idle_timeout_s:
        Flows not seen for this long are expired by :meth:`expire_idle`.
    bidirectional:
        If True, both directions of a connection are folded into one entry
        keyed by the canonical five-tuple.
    """

    def __init__(self, idle_timeout_s: float = 30.0, bidirectional: bool = False) -> None:
        self.idle_timeout_s = idle_timeout_s
        self.bidirectional = bidirectional
        self._flows: Dict[FlowKey, Flow] = {}
        self.total_packets = 0
        self.total_bytes = 0
        self.expired_flows = 0

    def observe(self, packet: Packet, now: float) -> Optional[Flow]:
        """Record a packet; returns the flow entry it was accounted to."""
        key = packet.flow_key
        if key is None:
            return None
        if self.bidirectional:
            key = key.canonical()
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(key=key, first_seen=now, last_seen=now)
            self._flows[key] = flow
        flow.packets += 1
        flow.bytes += packet.size_bytes
        flow.last_seen = now
        self.total_packets += 1
        self.total_bytes += packet.size_bytes
        return flow

    def expire_idle(self, now: float) -> List[Flow]:
        """Drop flows idle for longer than the timeout; returns the expired ones."""
        expired = [
            flow
            for flow in self._flows.values()
            if now - flow.last_seen > self.idle_timeout_s
        ]
        for flow in expired:
            del self._flows[flow.key]
        self.expired_flows += len(expired)
        return expired

    def flow(self, key: FlowKey) -> Optional[Flow]:
        if self.bidirectional:
            key = key.canonical()
        return self._flows.get(key)

    def active_flows(self) -> List[Flow]:
        return list(self._flows.values())

    def top_flows(self, count: int = 10) -> List[Flow]:
        """The ``count`` largest flows by byte volume (for the UI's top-talkers)."""
        return sorted(self._flows.values(), key=lambda flow: flow.bytes, reverse=True)[:count]

    def __len__(self) -> int:
        return len(self._flows)

    def snapshot(self) -> Dict[str, float]:
        """Aggregate statistics suitable for telemetry export."""
        return {
            "active_flows": float(len(self._flows)),
            "total_packets": float(self.total_packets),
            "total_bytes": float(self.total_bytes),
            "expired_flows": float(self.expired_flows),
        }
