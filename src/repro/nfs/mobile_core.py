"""Mobile-core network functions (AMF/SMF/UPF-shaped).

The charmed-OSM OAI bundle deploys a 5G core as per-NF operators from a
single declarative bundle; the ``mobile-core`` ServiceBundle in
:mod:`repro.core.bundles` mirrors that shape at the wireless edge.  These
are deliberately *edge-sized* analogues, not 3GPP implementations:

* :class:`AMFFunction` -- access-and-mobility control.  Tracks client
  registrations keyed by IP and emits heartbeat-style signalling
  notifications at a configurable cadence, which is the control-plane
  chatter the Manager's notification pipeline carries.
* :class:`SMFFunction` -- session management.  Maintains a per-flow
  session table that grows with traffic, so its migratable state scales
  with load (the property the rolling-upgrade bench E15 leans on).
* :class:`UPFFunction` -- the user-plane function.  With
  ``edge_breakout`` enabled, upstream traffic on the configured breakout
  ports is terminated at the station instead of traversing the backhaul
  -- the UPF-at-edge ablation the roadmap names.

All three export/import their tables, so bundle upgrades can precopy
their state through the MigrationEngine exactly like any other NF.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netem.packet import Packet
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


class AMFFunction(NetworkFunction):
    """AMF-like control NF: client registration plus periodic signalling."""

    nf_type = "amf"
    per_packet_cpu_us = 4.0

    def __init__(
        self,
        name: str = "",
        signalling_interval_s: float = 5.0,
        registration_ttl_s: float = 120.0,
    ) -> None:
        super().__init__(name=name)
        if signalling_interval_s <= 0:
            raise ValueError(
                f"signalling_interval_s must be positive, got {signalling_interval_s}"
            )
        self.signalling_interval_s = signalling_interval_s
        self.registration_ttl_s = registration_ttl_s
        #: client_ip -> last time we saw upstream traffic from it.
        self._registrations: Dict[str, float] = {}
        self.registrations_total = 0
        self.signalling_events = 0
        self._next_signal_at = 0.0

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        client_ip = context.client_ip or (packet.ip.src if packet.ip else "")
        if client_ip and context.direction is Direction.UPSTREAM:
            if client_ip not in self._registrations:
                self.registrations_total += 1
            self._registrations[client_ip] = context.now
        if context.now >= self._next_signal_at:
            # Heartbeat-style NGAP-ish signalling: the Agent relays this to
            # the Manager like any other NF notification.
            self._expire_registrations(context.now)
            self.signalling_events += 1
            self.emit_notification(
                context.now,
                severity="info",
                message="amf-signalling",
                details={"registered": len(self._registrations)},
            )
            self._next_signal_at = context.now + self.signalling_interval_s
        return [packet]

    def _expire_registrations(self, now: float) -> None:
        expired = [
            ip
            for ip, seen_at in self._registrations.items()
            if now - seen_at > self.registration_ttl_s
        ]
        for ip in expired:
            del self._registrations[ip]

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "registrations": dict(self._registrations),
                "registrations_total": self.registrations_total,
                "signalling_events": self.signalling_events,
                "next_signal_at": self._next_signal_at,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        registrations = state.get("registrations")
        if isinstance(registrations, dict):
            self._registrations = {str(ip): float(at) for ip, at in registrations.items()}
        self.registrations_total = int(state.get("registrations_total", self.registrations_total))
        self.signalling_events = int(state.get("signalling_events", self.signalling_events))
        self._next_signal_at = float(state.get("next_signal_at", self._next_signal_at))


class SMFFunction(NetworkFunction):
    """SMF-like control NF: a per-flow session table that grows with load."""

    nf_type = "smf"
    per_packet_cpu_us = 6.0

    def __init__(self, name: str = "", session_ttl_s: float = 60.0) -> None:
        super().__init__(name=name)
        self.session_ttl_s = session_ttl_s
        #: flow key -> (established_at, last_seen_at, packets).
        self._sessions: Dict[str, Tuple[float, float, int]] = {}
        self.sessions_established = 0
        self._next_expiry_at = 0.0

    # ------------------------------------------------------------ dataplane

    @staticmethod
    def _session_key(packet: Packet) -> str:
        src_port = dst_port = 0
        if packet.l4 is not None:
            src_port = packet.l4.src_port
            dst_port = packet.l4.dst_port
        src = packet.ip.src if packet.ip else ""
        dst = packet.ip.dst if packet.ip else ""
        return f"{src}:{src_port}->{dst}:{dst_port}"

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if context.now >= self._next_expiry_at:
            self._expire_sessions(context.now)
            self._next_expiry_at = context.now + self.session_ttl_s / 2.0
        key = self._session_key(packet)
        entry = self._sessions.get(key)
        if entry is None:
            self._sessions[key] = (context.now, context.now, 1)
            self.sessions_established += 1
        else:
            self._sessions[key] = (entry[0], context.now, entry[2] + 1)
        return [packet]

    def _expire_sessions(self, now: float) -> None:
        expired = [
            key
            for key, (_, last_seen, _) in self._sessions.items()
            if now - last_seen > self.session_ttl_s
        ]
        for key in expired:
            del self._sessions[key]

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "sessions": {key: list(entry) for key, entry in self._sessions.items()},
                "sessions_established": self.sessions_established,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        sessions = state.get("sessions")
        if isinstance(sessions, dict):
            self._sessions = {
                str(key): (float(entry[0]), float(entry[1]), int(entry[2]))
                for key, entry in sessions.items()
            }
        self.sessions_established = int(state.get("sessions_established", self.sessions_established))


class UPFFunction(NetworkFunction):
    """UPF-like user-plane NF with optional edge breakout steering.

    With ``edge_breakout`` on, upstream packets whose destination port is in
    ``breakout_ports`` terminate at the station (the packet is absorbed, as
    if a local peering/service answered it) instead of riding the backhaul.
    Byte counters split tunneled vs broken-out traffic so the backhaul
    saving is directly observable.
    """

    nf_type = "upf"
    per_packet_cpu_us = 2.0

    def __init__(
        self,
        name: str = "",
        edge_breakout: bool = False,
        breakout_ports: tuple = (8080,),
    ) -> None:
        super().__init__(name=name)
        self.edge_breakout = edge_breakout
        self.breakout_ports = tuple(int(port) for port in breakout_ports)
        self.tunneled_packets = 0
        self.tunneled_bytes = 0
        self.breakout_packets = 0
        self.breakout_bytes = 0

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if (
            self.edge_breakout
            and context.direction is Direction.UPSTREAM
            and packet.l4 is not None
            and packet.l4.dst_port in self.breakout_ports
        ):
            self.breakout_packets += 1
            self.breakout_bytes += packet.size_bytes
            return []
        self.tunneled_packets += 1
        self.tunneled_bytes += packet.size_bytes
        return [packet]

    # ------------------------------------------------------------ migration

    # Configuration (edge_breakout, breakout_ports) travels with the chain
    # spec, never with the state: a rolling upgrade imports v1 state into a
    # v2 instance, and must not have the old config clobber the new one.

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "tunneled_packets": self.tunneled_packets,
                "tunneled_bytes": self.tunneled_bytes,
                "breakout_packets": self.breakout_packets,
                "breakout_bytes": self.breakout_bytes,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        self.tunneled_packets = int(state.get("tunneled_packets", self.tunneled_packets))
        self.tunneled_bytes = int(state.get("tunneled_bytes", self.tunneled_bytes))
        self.breakout_packets = int(state.get("breakout_packets", self.breakout_packets))
        self.breakout_bytes = int(state.get("breakout_bytes", self.breakout_bytes))
