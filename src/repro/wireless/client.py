"""Mobile clients (the demo's roaming smartphones).

A :class:`MobileClient` owns a radio interface, a position that mobility
models update over time, and the traffic-endpoint API the workload
generators in :mod:`repro.netem.trafficgen` rely on.  While a client is
between cells (mid-handover) its packets are counted as "sent while
disconnected" rather than silently lost, which the migration benchmarks use
to quantify service interruption.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.netem.host import Host, Interface
from repro.netem.packet import Packet
from repro.netem.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wireless.cell import Cell

ReceiveListener = Callable[[Packet], None]


class MobileClient(Host):
    """A roaming end device with one radio interface (slotted: no ``__dict__``)."""

    #: ``gateway_mac`` until the first association, when the handover manager
    #: sets the serving station's gateway MAC on the client.
    DEFAULT_GATEWAY_MAC = "02:00:00:00:00:00"

    __slots__ = (
        "position",
        "radio_interface",
        "gateway_mac",
        "associated_cell",
        "_receive_listeners",
        "packets_received",
        "bytes_received",
        "packets_sent_while_disconnected",
        "association_history",
    )

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        ip: str,
        mac: str,
        position: Tuple[float, float] = (0.0, 0.0),
    ) -> None:
        super().__init__(simulator, name)
        self.position = position
        self.radio_interface = Interface(name=f"{name}-radio", mac=mac, ip=ip)
        self.add_interface(self.radio_interface)
        self.gateway_mac = self.DEFAULT_GATEWAY_MAC
        self.associated_cell: Optional["Cell"] = None
        #: A tuple, not a list: most clients gain one listener and never lose it.
        self._receive_listeners: Tuple[ReceiveListener, ...] = ()
        self.packets_received = 0
        self.bytes_received = 0
        self.packets_sent_while_disconnected = 0
        #: ``(time, cell name)`` per association; a tuple, as most clients associate once.
        self.association_history: Tuple[Tuple[float, str], ...] = ()

    # -------------------------------------------------- endpoint protocol

    @property
    def ip(self) -> str:  # type: ignore[override]
        assert self.radio_interface.ip is not None
        return self.radio_interface.ip

    @property
    def mac(self) -> str:
        return self.radio_interface.mac

    def send_packet(self, packet: Packet) -> bool:
        """Send a packet towards the network via the associated cell."""
        if self.associated_cell is None:
            self.packets_sent_while_disconnected += 1
            return False
        if packet.eth is not None:
            packet.eth.src = self.mac
            packet.eth.dst = self.gateway_mac
        return self.radio_interface.send(packet)

    def add_receive_listener(self, listener: ReceiveListener) -> None:
        self._receive_listeners += (listener,)

    # -------------------------------------------------------- association

    @property
    def is_connected(self) -> bool:
        return self.associated_cell is not None

    def attach_to_cell(self, cell: "Cell") -> None:
        """Called by the cell when association completes."""
        self.associated_cell = cell
        self.association_history += ((self.simulator.now, cell.name),)

    def detach_from_cell(self, cell: "Cell") -> None:
        """Called by the cell when the client disassociates."""
        if self.associated_cell is cell:
            self.associated_cell = None

    @property
    def current_cell_name(self) -> Optional[str]:
        return self.associated_cell.name if self.associated_cell else None

    @property
    def current_station_name(self) -> Optional[str]:
        return self.associated_cell.station_name if self.associated_cell else None

    # ---------------------------------------------------------------- I/O

    def handle_packet(self, packet: Packet, interface: Interface) -> None:
        if packet.ip is not None and packet.ip.dst != self.ip:
            return
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        for listener in self._receive_listeners:
            listener(packet)

    # -------------------------------------------------------------- stats

    def stats(self) -> Dict[str, float]:
        return {
            "packets_received": float(self.packets_received),
            "bytes_received": float(self.bytes_received),
            "packets_sent_while_disconnected": float(self.packets_sent_while_disconnected),
            "handovers": float(max(0, len(self.association_history) - 1)),
        }
