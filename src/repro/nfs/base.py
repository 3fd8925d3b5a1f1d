"""The network-function contract.

Every GNF network function is a packet processor with four obligations:

1. ``process(packet, context)`` returns the packets to emit (an empty list
   drops the packet; returning extra packets injects responses such as an
   HTTP 403 or a cached object).
2. It accounts its own traffic counters, which its exported state carries.
3. It may emit *notifications* ("an intrusion attempt or detected malware",
   Section 3) which the Agent relays to the Manager.
4. It can export and import its state, which is what makes stateful NF
   migration possible when the client roams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.netem.packet import Packet


class Direction(enum.Enum):
    """Which way a packet is heading relative to the client the NF serves."""

    UPSTREAM = "upstream"      # client -> network
    DOWNSTREAM = "downstream"  # network -> client


@dataclass
class ProcessingContext:
    """Per-packet context the Agent hands to the NF."""

    now: float
    direction: Direction
    client_ip: str = ""
    station_name: str = ""


@dataclass
class NFNotification:
    """An event the NF wants the provider to review (relayed Agent -> Manager)."""

    time: float
    nf_name: str
    severity: str
    message: str
    details: Dict[str, object] = field(default_factory=dict)


NotificationSink = Callable[[NFNotification], None]


class NetworkFunction:
    """Base class for every NF.

    Subclasses implement :meth:`_process` and may override
    :meth:`export_state` / :meth:`import_state` when they carry state worth
    migrating.
    """

    #: CPU cost of processing one packet on the reference (server-class) CPU.
    per_packet_cpu_us: float = 5.0
    nf_type: str = "generic"

    def __init__(self, name: str = "") -> None:
        self.name = name or f"{self.nf_type}-nf"
        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.notifications: List[NFNotification] = []
        self.notification_sink: Optional[NotificationSink] = None

    # ------------------------------------------------------------ dataplane

    def process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        """Process one packet and return the packets to emit."""
        self.packets_in += 1
        self.bytes_in += packet.size_bytes
        outputs = self._process(packet, context)
        if not outputs:
            self.packets_dropped += 1
        for output in outputs:
            self.packets_out += 1
            self.bytes_out += output.size_bytes
        return outputs

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        """Default behaviour: pass the packet through unchanged."""
        return [packet]

    def process_batch(self, packets: Sequence[Packet], context: ProcessingContext) -> List[Packet]:
        """Identical to calling :meth:`process` on each packet in order."""
        outputs: List[Packet] = []
        for packet in packets:
            outputs.extend(self.process(packet, context))
        return outputs

    # -------------------------------------------------------- notifications

    def emit_notification(
        self,
        now: float,
        severity: str,
        message: str,
        details: Optional[Dict[str, object]] = None,
    ) -> NFNotification:
        """Record (and, if a sink is attached, immediately deliver) an event."""
        notification = NFNotification(
            time=now, nf_name=self.name, severity=severity, message=message, details=details or {}
        )
        self.notifications.append(notification)
        if self.notification_sink is not None:
            self.notification_sink(notification)
        return notification

    def drain_notifications(self) -> List[NFNotification]:
        """Remove and return all queued notifications (used by Agent heartbeats)."""
        drained = list(self.notifications)
        self.notifications.clear()
        return drained

    # ----------------------------------------------------------- migration

    def export_state(self) -> Dict[str, object]:
        """Serializable state to carry across a migration.

        This is what every migration sizes and moves (``Checkpoint.size_mb``,
        ``MigrationEngine.serialized_state_mb``); the new station restores it
        through :meth:`import_state`.  The base implementation exports only
        counters; stateful NFs override this to include their tables
        (conntrack, cache contents, buckets...).
        """
        return {"counters": self.counters()}

    def import_state(self, state: Dict[str, object]) -> None:
        """Restore previously exported state after a migration."""
        counters = state.get("counters")
        if isinstance(counters, dict):
            self.packets_in = int(counters.get("packets_in", self.packets_in))
            self.packets_out = int(counters.get("packets_out", self.packets_out))
            self.packets_dropped = int(counters.get("packets_dropped", self.packets_dropped))
            self.bytes_in = int(counters.get("bytes_in", self.bytes_in))
            self.bytes_out = int(counters.get("bytes_out", self.bytes_out))

    # --------------------------------------------------------------- stats

    def counters(self) -> Dict[str, int]:
        return {
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "packets_dropped": self.packets_dropped,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"
