"""The per-station software switch.

Every GNF edge station runs a software switch (a Linux bridge / OVS in the
real deployment).  Client-facing cells, the uplink towards the gateway and
every NF container veth pair are plugged into numbered ports.  Forwarding
follows a two-stage pipeline:

1. the priority :class:`~repro.netem.flowtable.FlowTable` -- where the GNF
   Agent installs steering rules to push a client's traffic through NF
   chains ("transparent traffic handling"), and
2. a learning L2 switch fallback for everything without an explicit rule.

The switch also keeps per-port counters that feed the Manager's "network
resource consumption" view shown in the demo UI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.netem.fastpath import (
    OP_DROP,
    OP_FLOOD,
    OP_OUTPUT,
    OP_SET_ETH_DST,
    OP_SET_ETH_SRC,
    OP_SET_IP_DST,
    OP_SET_IP_SRC,
    OP_SET_METADATA,
    CompiledVerdict,
    FlowCache,
    FlowKey,
)
from repro.netem.flowtable import ActionType, FlowRule, FlowTable
from repro.netem.host import Host, Interface
from repro.netem.packet import BROADCAST_MAC, Packet
from repro.netem.simulator import Simulator


@dataclass
class PortStats:
    """Per-port packet counters."""

    rx_packets: int = 0
    tx_packets: int = 0


@dataclass
class SwitchPort:
    """A numbered switch port bound to an interface.

    ``no_flood`` marks ports that must never receive flooded traffic -- GNF
    Agents set it on NF veth ports so network functions only ever see packets
    explicitly steered to them by flow rules.
    """

    number: int
    interface: Interface
    name: str = ""
    no_flood: bool = False
    stats: PortStats = field(default_factory=PortStats)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.interface.name


class SoftwareSwitch(Host):
    """Learning switch with a priority flow table, one per edge station.

    Parameters
    ----------
    forwarding_delay_s:
        Per-packet processing latency of the software datapath.  The default
        (20 microseconds) approximates a software bridge on a low-end MIPS
        router like the TP-Link WDR3600 used in the demo.
    """

    flow_cache_capacity = 8192

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        forwarding_delay_s: float = 20e-6,
        fastpath_enabled: bool = True,
    ) -> None:
        super().__init__(simulator, name)
        self.flow_table = FlowTable(name=f"{name}-flows")
        self.forwarding_delay_s = forwarding_delay_s
        #: When enabled, flow-table verdicts are cached in an exact-match
        #: microflow cache keyed by the packet's FlowKey; cache hits skip the
        #: scheduled forwarding-delay event and the linear rule walk entirely
        #: (the kernel-datapath hit of a real OVS deployment).
        self.fastpath_enabled = fastpath_enabled
        self.flow_cache = FlowCache(name=f"{name}-cache", capacity=self.flow_cache_capacity)
        self.ports: Dict[int, SwitchPort] = {}
        self._interface_to_port: Dict[str, int] = {}
        self.mac_table: Dict[str, int] = {}
        # Per-in-port deadline of the latest scheduled slow-path packet.  A
        # cache hit must not overtake packets of the same port still deferred
        # in the slow path (the miss -> hit transition window), so hits are
        # queued behind this deadline; in steady state it lies in the past
        # and hits apply inline.
        self._slowpath_busy_until: Dict[int, float] = {}
        self._next_port = 1
        self.packets_forwarded = 0
        self.packets_flooded = 0
        self.packets_dropped = 0
        # Bytes moved "through" this switch by the fluid model in hybrid
        # mode; always zero in pure packet mode.
        self.fluid_bytes_carried = 0.0

    # -------------------------------------------------------------- ports

    def add_port(
        self,
        interface: Interface,
        port_number: Optional[int] = None,
        no_flood: bool = False,
    ) -> SwitchPort:
        """Plug an interface into the switch and return the new port."""
        if port_number is None:
            port_number = self._next_port
        if port_number in self.ports:
            raise ValueError(f"switch {self.name} already has port {port_number}")
        self._next_port = max(self._next_port, port_number + 1)
        self.add_interface(interface)
        port = SwitchPort(number=port_number, interface=interface, no_flood=no_flood)
        self.ports[port_number] = port
        self._interface_to_port[interface.name] = port_number
        return port

    def remove_port(self, port_number: int) -> None:
        """Unplug a port (e.g. when an NF container is destroyed)."""
        port = self.ports.pop(port_number, None)
        if port is None:
            return
        self._interface_to_port.pop(port.interface.name, None)
        self.interfaces.pop(port.interface.name, None)
        self._slowpath_busy_until.pop(port_number, None)
        # Drop any MAC table entries pointing at the removed port.
        self.mac_table = {mac: p for mac, p in self.mac_table.items() if p != port_number}

    # ---------------------------------------------------------- forwarding

    def receive_packet(self, packet: Packet, interface: Interface) -> None:
        in_port = self._interface_to_port.get(interface.name)
        if in_port is None:
            self.packets_dropped += 1
            return
        port = self.ports[in_port]
        port.stats.rx_packets += 1

        # Learn the source MAC so the fallback learning switch converges.
        if packet.eth is not None and packet.eth.src != BROADCAST_MAC:
            self.mac_table[packet.eth.src] = in_port

        if self.fastpath_enabled:
            verdict = self._fastpath_lookup(packet, in_port)
            if verdict is not None:
                deadline = self._slowpath_busy_until.get(in_port, 0.0)
                if deadline > self.simulator.now:
                    # Earlier packets of this port are still deferred in the
                    # slow path: preserve per-port FIFO by queueing the hit
                    # behind them (insertion order breaks the time tie).
                    # Counters and actions apply at the deadline, once the
                    # verdict is confirmed still fresh.
                    self.simulator.call_at(deadline, self._apply_deferred, packet, in_port, verdict)
                else:
                    verdict.rule.record(packet)
                    self._apply_verdict(packet, in_port, verdict)
                return
        self._to_slow_path(packet, in_port)

    def receive_batch(self, packets: Sequence[Packet], interface: Interface) -> None:
        """Identical to calling :meth:`receive_packet` on each packet in order."""
        for packet in packets:
            self.receive_packet(packet, interface)

    def _apply_deferred(self, packet: Packet, in_port: int, verdict: CompiledVerdict) -> None:
        """Apply a hit that was queued behind the slow path, unless it went stale.

        The flow table may have changed inside the deferral window (e.g. a
        migration tearing down chain rules); replaying the captured verdict
        then would forward where the live table no longer would, so a stale
        verdict is sent back through the full pipeline instead (which also
        re-records the counters against whatever rule matches now).
        """
        if verdict.generation != self.flow_table.generation:
            self._pipeline(packet, in_port)
            return
        verdict.rule.record(packet)
        self._apply_verdict(packet, in_port, verdict)

    def _to_slow_path(self, packet: Packet, in_port: int) -> None:
        if self.forwarding_delay_s > 0:
            deadline = self.simulator.now + self.forwarding_delay_s
            busy = self._slowpath_busy_until
            if deadline > busy.get(in_port, 0.0):
                busy[in_port] = deadline
            self.simulator.call_at(deadline, self._pipeline, packet, in_port)
        else:
            self._pipeline(packet, in_port)

    def _fastpath_lookup(self, packet: Packet, in_port: int) -> Optional[CompiledVerdict]:
        try:
            key = FlowKey.extract(packet, in_port, self.flow_table.referenced_metadata_keys)
            return self.flow_cache.lookup(key, self.flow_table.generation)
        except TypeError:  # unhashable metadata value: stay on the slow path
            return None

    def _pipeline(self, packet: Packet, in_port: int) -> None:
        rule = self.flow_table.lookup(packet, in_port)
        if rule is not None:
            if self.fastpath_enabled:
                # Compile the verdict *before* applying actions: actions may
                # mutate the very fields the key was derived from.
                try:
                    key = FlowKey.extract(packet, in_port, self.flow_table.referenced_metadata_keys)
                    self.flow_cache.store(key, CompiledVerdict(rule, self.flow_table.generation))
                except TypeError:
                    pass
            self._apply_actions(packet, in_port, rule)
            return
        self._l2_forward(packet, in_port)

    def _apply_verdict(self, packet: Packet, in_port: int, verdict: CompiledVerdict) -> None:
        """Replay a compiled verdict."""
        for opcode, value in verdict.ops:
            if opcode == OP_OUTPUT:
                self._output(packet, value)  # type: ignore[arg-type]
            elif opcode == OP_DROP:
                self.packets_dropped += 1
                return
            elif opcode == OP_SET_METADATA:
                key, meta_value = value  # type: ignore[misc]
                packet.metadata[key] = meta_value
            elif opcode == OP_FLOOD:
                self._flood(packet, in_port)
            elif opcode == OP_SET_ETH_DST and packet.eth is not None:
                packet.eth.dst = str(value)
            elif opcode == OP_SET_ETH_SRC and packet.eth is not None:
                packet.eth.src = str(value)
            elif opcode == OP_SET_IP_DST and packet.ip is not None:
                packet.ip.dst = str(value)
            elif opcode == OP_SET_IP_SRC and packet.ip is not None:
                packet.ip.src = str(value)

    def _apply_actions(self, packet: Packet, in_port: int, rule: FlowRule) -> None:
        for action in rule.actions:
            if action.action_type is ActionType.DROP:
                self.packets_dropped += 1
                return
            if action.action_type is ActionType.OUTPUT:
                self._output(packet, int(action.value))  # type: ignore[arg-type]
            elif action.action_type is ActionType.FLOOD:
                self._flood(packet, in_port)
            elif action.action_type is ActionType.SET_ETH_DST and packet.eth is not None:
                packet.eth.dst = str(action.value)
            elif action.action_type is ActionType.SET_ETH_SRC and packet.eth is not None:
                packet.eth.src = str(action.value)
            elif action.action_type is ActionType.SET_IP_DST and packet.ip is not None:
                packet.ip.dst = str(action.value)
            elif action.action_type is ActionType.SET_IP_SRC and packet.ip is not None:
                packet.ip.src = str(action.value)
            elif action.action_type is ActionType.SET_METADATA:
                key, value = action.value  # type: ignore[misc]
                packet.metadata[key] = value

    def _l2_forward(self, packet: Packet, in_port: int) -> None:
        if packet.eth is None:
            self.packets_dropped += 1
            return
        if packet.eth.dst == BROADCAST_MAC:
            self._flood(packet, in_port)
            return
        out_port = self.mac_table.get(packet.eth.dst)
        if out_port is None:
            self._flood(packet, in_port)
            return
        if out_port == in_port:
            self.packets_dropped += 1
            return
        self._output(packet, out_port)

    def _output(self, packet: Packet, port_number: int) -> None:
        port = self.ports.get(port_number)
        if port is None:
            self.packets_dropped += 1
            return
        port.stats.tx_packets += 1
        self.packets_forwarded += 1
        port.interface.send(packet)

    def _flood(self, packet: Packet, in_port: int) -> None:
        self.packets_flooded += 1
        for number, port in self.ports.items():
            if number == in_port or port.no_flood:
                continue
            port.stats.tx_packets += 1
            port.interface.send(packet.copy())

    def record_fluid_transit(self, size_bytes: float) -> None:
        """Account bytes the fluid solver moved through this switch (hybrid mode)."""
        self.fluid_bytes_carried += size_bytes

    # -------------------------------------------------------------- stats

    def port_stats(self) -> Dict[int, PortStats]:
        """Snapshot of per-port counters keyed by port number."""
        return {number: port.stats for number, port in self.ports.items()}

    def summary(self) -> Dict[str, int]:
        """Aggregate switch statistics (fed into Agent heartbeats)."""
        return {
            "ports": len(self.ports),
            "flow_rules": len(self.flow_table),
            "packets_forwarded": self.packets_forwarded,
            "packets_flooded": self.packets_flooded,
            "packets_dropped": self.packets_dropped,
            "mac_entries": len(self.mac_table),
            "fastpath_hits": self.flow_cache.hits,
            "fastpath_misses": self.flow_cache.misses,
            "fastpath_entries": len(self.flow_cache),
            "fluid_bytes_carried": int(self.fluid_bytes_carried),
        }
