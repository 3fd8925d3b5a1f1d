"""Wireless cells (access points) attached to edge stations.

Each cell is hosted on (or wired to) an edge station -- in the demo the
TP-Link home router *is* both the access point and the NF host.  The cell
relays frames between its associated clients' radio links and the station's
software switch, and raises association / disassociation events that the GNF
Agent on the station reports to the Manager ("notifying the Manager of
clients' (dis)connection").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.netem.host import Host, Interface
from repro.netem.link import Link
from repro.netem.packet import Packet
from repro.netem.simulator import Simulator
from repro.wireless.radio import RadioEnvironment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wireless.client import MobileClient

AssociationListener = Callable[["MobileClient", "Cell"], None]


class Cell(Host):
    """An access point with a coverage area, wired into one edge station."""

    radio_delay_s = 0.002

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        station_name: str,
        position: Tuple[float, float],
        mac: str,
        tx_power_dbm: float = 20.0,
        radio_environment: Optional[RadioEnvironment] = None,
    ) -> None:
        super().__init__(simulator, name)
        self.station_name = station_name
        self.position = position
        self.tx_power_dbm = tx_power_dbm
        self.radio_environment = radio_environment or RadioEnvironment()
        self.wired_interface = Interface(name=f"{name}-wired", mac=mac)
        self.add_interface(self.wired_interface)
        #: Radio on/off switch (failure injection: a crashed station's cells
        #: stop beaconing, so clients roam away on their next scan).
        self.enabled = True
        self._client_radio_ifaces: Dict[str, Interface] = {}
        self._client_links: Dict[str, Link] = {}
        self._clients: Dict[str, "MobileClient"] = {}
        #: client IP -> client name, kept beside ``_clients`` for the downstream relay.
        self._client_name_by_ip: Dict[str, str] = {}
        self._association_listeners: List[AssociationListener] = []
        self._disassociation_listeners: List[AssociationListener] = []
        self.frames_relayed_upstream = 0
        self.frames_relayed_downstream = 0
        self.frames_dropped = 0

    # -------------------------------------------------------- subscriptions

    def on_association(self, listener: AssociationListener) -> None:
        """Register a callback invoked when a client associates with this cell."""
        self._association_listeners.append(listener)

    def on_disassociation(self, listener: AssociationListener) -> None:
        """Register a callback invoked when a client leaves this cell."""
        self._disassociation_listeners.append(listener)

    # ------------------------------------------------------------ presence

    @property
    def associated_clients(self) -> List[str]:
        """Names of the clients currently associated."""
        return sorted(self._clients)

    def is_associated(self, client_name: str) -> bool:
        return client_name in self._clients

    def set_enabled(self, enabled: bool) -> None:
        """Turn the radio on or off (off = the cell vanishes from scans)."""
        self.enabled = enabled

    def rssi_to(self, position: Tuple[float, float]) -> float:
        """Signal strength a receiver at ``position`` would see from this cell."""
        if not self.enabled:
            return float("-inf")
        return self.radio_environment.rssi_between(self.tx_power_dbm, self.position, position)

    def associate(self, client: "MobileClient", mac_allocator: Callable[[], str]) -> None:
        """Attach a client: build its radio link and notify listeners."""
        if client.name in self._clients:
            return
        rssi = self.rssi_to(client.position)
        rate = self.radio_environment.link_rate_bps(rssi)
        if rate <= 0:
            rate = 6e6
        # The cell's end of the client's radio link: named after the cell and
        # kept in ``_client_radio_ifaces`` only, not in ``interfaces``, so it
        # holds no string of its own.  The link is unnamed too: ``link.name``
        # (``"<client>-radio<-><cell>"``) is built from the two ends when read.
        cell_iface = Interface(name=self.name, mac=mac_allocator(), owner=self)
        link = Link(self.simulator, bandwidth_bps=rate, delay_s=self.radio_delay_s)
        link.attach(client.radio_interface, cell_iface)
        self._client_radio_ifaces[client.name] = cell_iface
        self._client_links[client.name] = link
        self._clients[client.name] = client
        self._client_name_by_ip[client.ip] = client.name
        client.attach_to_cell(self)
        for listener in self._association_listeners:
            listener(client, self)

    def disassociate(self, client: "MobileClient") -> None:
        """Detach a client: tear down its radio link and notify listeners."""
        if client.name not in self._clients:
            return
        del self._client_radio_ifaces[client.name]
        link = self._client_links.pop(client.name)
        link.set_up(False)
        del self._clients[client.name]
        del self._client_name_by_ip[client.ip]
        client.detach_from_cell(self)
        for listener in self._disassociation_listeners:
            listener(client, self)

    # ------------------------------------------------------------ relaying

    def handle_packet(self, packet: Packet, interface: Interface) -> None:
        if interface is self.wired_interface:
            self._relay_downstream(packet)
        else:
            self._relay_upstream(packet)

    def _relay_upstream(self, packet: Packet) -> None:
        """Radio -> wired: hand the client's packet to the station switch."""
        self.frames_relayed_upstream += 1
        self.wired_interface.send(packet)

    def _relay_downstream(self, packet: Packet) -> None:
        """Wired -> radio: deliver to the associated client owning the destination IP."""
        if packet.ip is None:
            self.frames_dropped += 1
            return
        client_name = self._client_name_by_ip.get(packet.ip.dst)
        if client_name is None:
            self.frames_dropped += 1
            return
        self.frames_relayed_downstream += 1
        self._client_radio_ifaces[client_name].send(packet)

    def summary(self) -> Dict[str, float]:
        """Per-cell statistics reported in Agent heartbeats."""
        return {
            "associated_clients": float(len(self._clients)),
            "frames_relayed_upstream": float(self.frames_relayed_upstream),
            "frames_relayed_downstream": float(self.frames_relayed_downstream),
            "frames_dropped": float(self.frames_dropped),
        }
