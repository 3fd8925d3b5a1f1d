"""Passive per-flow monitor.

The demo UI shows "real-time statistics (network traffic, CPU load, memory
usage)"; the per-client network-traffic portion comes from a monitor NF like
this one.  It never modifies traffic -- it only feeds the Agent/Manager
telemetry pipeline with per-flow counters and top-talker summaries.
"""

from __future__ import annotations

from typing import Dict, List

from repro.netem.flows import FlowTracker
from repro.netem.packet import Packet
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


class FlowMonitor(NetworkFunction):
    """Accounts every packet into a :class:`~repro.netem.flows.FlowTracker`."""

    nf_type = "flow-monitor"
    per_packet_cpu_us = 3.0

    def __init__(
        self,
        name: str = "",
        idle_timeout_s: float = 30.0,
        top_talker_count: int = 5,
    ) -> None:
        super().__init__(name=name)
        self.tracker = FlowTracker(idle_timeout_s=idle_timeout_s, bidirectional=True)
        self.top_talker_count = top_talker_count
        self.upstream_bytes = 0
        self.downstream_bytes = 0
        self._next_expiry_at = 0.0

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if context.now >= self._next_expiry_at:
            # Opportunistic TTL sweep on the dataplane clock, so trackers on
            # stations whose Agent collector is stopped still shed idle flows.
            self.tracker.expire_idle(context.now)
            self._next_expiry_at = context.now + self.tracker.idle_timeout_s / 2.0
        self.tracker.observe(packet, context.now)
        if context.direction is Direction.UPSTREAM:
            self.upstream_bytes += packet.size_bytes
        else:
            self.downstream_bytes += packet.size_bytes
        return [packet]

    # --------------------------------------------------------------- stats

    def top_talkers(self) -> List[Dict[str, object]]:
        """The largest flows by bytes, rendered for the UI."""
        return [
            {
                "src": flow.key.src_ip,
                "dst": flow.key.dst_ip,
                "protocol": flow.key.protocol,
                "packets": flow.packets,
                "bytes": flow.bytes,
            }
            for flow in self.tracker.top_flows(self.top_talker_count)
        ]

    def traffic_summary(self) -> Dict[str, float]:
        summary = self.tracker.snapshot()
        summary.update(
            {
                "upstream_bytes": float(self.upstream_bytes),
                "downstream_bytes": float(self.downstream_bytes),
            }
        )
        return summary

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "upstream_bytes": self.upstream_bytes,
                "downstream_bytes": self.downstream_bytes,
                "active_flows": len(self.tracker),
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        self.upstream_bytes = int(state.get("upstream_bytes", self.upstream_bytes))
        self.downstream_bytes = int(state.get("downstream_bytes", self.downstream_bytes))
