"""RSSI-driven association and handover.

The :class:`HandoverManager` plays the role of the Wi-Fi roaming logic on the
demo smartphones: it periodically scans every client's signal towards every
cell and re-associates the client when a sufficiently better cell appears.
Handover events are the trigger GNF reacts to -- the migration engine in
:mod:`repro.core.migration` is driven by them and migrates the client's NFs to
the new station.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.netem.simulator import PeriodicTask, Simulator
from repro.netem.topology import EdgeTopology
from repro.wireless.cell import Cell
from repro.wireless.client import MobileClient
from repro.wireless.radio import RadioEnvironment


@dataclass
class HandoverEvent:
    """A completed (or in-progress) handover of one client."""

    time: float
    client_name: str
    client_ip: str
    old_cell: Optional[str]
    new_cell: str
    old_station: Optional[str]
    new_station: str
    completed_at: Optional[float] = None

    @property
    def interruption_s(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.time


HandoverListener = Callable[[HandoverEvent], None]

#: What one cell contributes to a scan, by value: ``(name, enabled, position,
#: tx_power_dbm, reference_loss_db, 10 * path_loss_exponent,
#: reference_distance_m)``.
RadioRow = Tuple[str, bool, Tuple[float, float], float, float, float, float]


def radio_rows(cells: Iterable[Cell]) -> List[RadioRow]:
    """Snapshot every cell's radio inputs, one :data:`RadioRow` per cell."""
    rows = []
    for cell in cells:
        environment = cell.radio_environment
        rows.append(
            (
                cell.name,
                cell.enabled,
                cell.position,
                cell.tx_power_dbm,
                environment.reference_loss_db,
                10 * environment.path_loss_exponent,
                environment.reference_distance_m,
            )
        )
    return rows


def rssi_survey(rows: List[RadioRow], position: Tuple[float, float]) -> List[float]:
    """RSSI of every row's cell at ``position``: ``Cell.rssi_to``, straight-line.

    Performs the floating-point operations of ``Cell.rssi_to`` ->
    :meth:`RadioEnvironment.rssi_between` in the same order, so each entry
    equals the oracle bit for bit; a one-ulp difference could flip a
    hysteresis comparison.  (That is also why this is ``math``, not numpy.)
    """
    x, y = position
    survey = []
    for _, enabled, (cell_x, cell_y), tx_power_dbm, reference_loss_db, ten_n, reference_m in rows:
        if not enabled:
            survey.append(-math.inf)
            continue
        distance = math.hypot(cell_x - x, cell_y - y)
        clamped = reference_m if reference_m > distance else distance
        survey.append(tx_power_dbm - (reference_loss_db + ten_n * math.log10(clamped / reference_m)))
    return survey


class HandoverManager:
    """Associates clients with cells and performs RSSI-based handovers."""

    def __init__(
        self,
        simulator: Simulator,
        topology: EdgeTopology,
        radio_environment: Optional[RadioEnvironment] = None,
        scan_interval_s: float = 0.5,
        hysteresis_db: float = 4.0,
        sensitivity_dbm: float = -85.0,
        handover_delay_s: float = 0.05,
        scan_jitter_s: float = 0.0,
        jitter_rng: Optional[random.Random] = None,
    ) -> None:
        if scan_jitter_s < 0:
            raise ValueError(f"scan_jitter_s must be non-negative, got {scan_jitter_s}")
        self.simulator = simulator
        self.topology = topology
        self.radio_environment = radio_environment or RadioEnvironment()
        self.scan_interval_s = scan_interval_s
        self.scan_jitter_s = scan_jitter_s
        # Dedicated RNG so jitter draws never perturb any other random stream.
        self._jitter_rng = jitter_rng or random.Random(0)
        self.hysteresis_db = hysteresis_db
        self.sensitivity_dbm = sensitivity_dbm
        self.handover_delay_s = handover_delay_s
        self.cells: Dict[str, Cell] = {}
        self.clients: Dict[str, MobileClient] = {}
        self._clients_by_ip: Dict[str, MobileClient] = {}
        self.events: List[HandoverEvent] = []
        self._started_listeners: List[HandoverListener] = []
        self._completed_listeners: List[HandoverListener] = []
        self._scan_task: Optional[PeriodicTask] = None
        self._in_progress: Dict[str, HandoverEvent] = {}
        #: Clients whose last scan ended in "no action", by name -> the
        #: ``(position, associated_cell)`` that scan saw.  An entry is good
        #: while both are unchanged and ``_radio_signature`` is; a scan whose
        #: signature differs drops them all.
        self._settled: Dict[str, Tuple[Tuple[float, float], Cell]] = {}
        self._radio_signature: Optional[tuple] = None

    # ---------------------------------------------------------- membership

    def add_cell(self, cell: Cell) -> None:
        self.cells[cell.name] = cell

    def add_client(self, client: MobileClient) -> None:
        self.clients[client.name] = client
        self._clients_by_ip[client.ip] = client

    def on_handover_started(self, listener: HandoverListener) -> None:
        self._started_listeners.append(listener)

    def on_handover_completed(self, listener: HandoverListener) -> None:
        self._completed_listeners.append(listener)

    # -------------------------------------------------------------- control

    def start(self) -> "HandoverManager":
        """Associate every client with its best cell and begin periodic scans."""
        cells, rows = self._radio_snapshot()
        for client in self.clients.values():
            if client.associated_cell is None:
                best, _ = self._strongest(cells, rows, client.position)
                if best is not None:
                    self._initial_associate(client, best)
        if self._scan_task is None:
            jitter_fn = None
            if self.scan_jitter_s > 0:
                jitter_fn = lambda: self._jitter_rng.uniform(-self.scan_jitter_s, self.scan_jitter_s)  # noqa: E731
            self._scan_task = self.simulator.every(self.scan_interval_s, self.scan, jitter_fn=jitter_fn)
        return self

    def stop(self) -> None:
        if self._scan_task is not None:
            self._scan_task.stop()
            self._scan_task = None

    # ---------------------------------------------------------------- scans

    def best_cell_for(self, client: MobileClient) -> Optional[Cell]:
        """The cell with the strongest signal at the client's position, if audible.

        Exact RSSI ties (two equidistant cells) resolve by cell name, so the
        winner does not depend on the order cells were registered in.
        """
        return self._strongest(*self._radio_snapshot(), client.position)[0]

    def _radio_snapshot(self) -> Tuple[List[Cell], List[RadioRow]]:
        """The registered cells and their rows (``rows[i]`` is ``cells[i]``)."""
        cells = list(self.cells.values())
        return cells, radio_rows(cells)

    def _strongest(
        self, cells: List[Cell], rows: List[RadioRow], position: Tuple[float, float]
    ) -> Tuple[Optional[Cell], float]:
        """Best audible cell at ``position`` and its RSSI."""
        best: Optional[Cell] = None
        best_rssi = -math.inf
        sensitivity = self.sensitivity_dbm
        for cell, rssi in zip(cells, rssi_survey(rows, position)):
            if rssi < sensitivity:
                continue
            if best is None or rssi > best_rssi or (rssi == best_rssi and cell.name < best.name):
                best = cell
                best_rssi = rssi
        return best, best_rssi

    def station_link_rates(self, client_ip: str) -> Dict[str, float]:
        """Best achievable PHY rate (bps) towards each station for one client.

        The same radio model the scan loop uses, folded into a per-station
        map: for every station, the strongest of its cells' rates at the
        client's current position (0.0 when every cell is below the receiver
        sensitivity).  This is the signal the embedding layer prices so
        placement deprioritizes stations the client hears poorly.  Pure
        computation over current positions — no events, no RNG.
        """
        client = self._clients_by_ip.get(client_ip)
        if client is None:
            return {}
        rates: Dict[str, float] = {}
        for cell in self.cells.values():
            rate = self.radio_environment.link_rate_bps(cell.rssi_to(client.position))
            if rate > rates.get(cell.station_name, -1.0):
                rates[cell.station_name] = rate
        return rates

    def scan(self) -> None:
        """One scan round over every client (called periodically).

        A *settled* client is skipped: its last scan ended in "no action" and
        nothing that scan read has changed since -- its position, its serving
        cell, and the radio signature (sensitivity, hysteresis and every
        cell's :data:`RadioRow`, compared by value once per scan, so a
        ``cell.enabled`` or ``client.position`` assigned directly is seen).
        """
        cells, rows = self._radio_snapshot()
        signature = (self.sensitivity_dbm, self.hysteresis_db, rows)
        if signature != self._radio_signature:
            self._radio_signature = signature
            self._settled.clear()
        settled = self._settled
        for client in self.clients.values():
            name = client.name
            if name in self._in_progress:
                continue
            current = client.associated_cell
            position = client.position
            if current is not None:
                seen = settled.get(name)
                if seen is not None and seen[1] is current and seen[0] == position:
                    continue
            best, best_rssi = self._strongest(cells, rows, position)
            if best is not None:
                if current is None:
                    self._initial_associate(client, best)
                    continue
                if best.name != current.name:
                    current_rssi = current.rssi_to(position)
                    if best_rssi >= current_rssi + self.hysteresis_db or current_rssi < self.sensitivity_dbm:
                        self._start_handover(client, current, best)
                        continue
            if current is not None:
                settled[name] = (position, current)

    # ------------------------------------------------------------ internals

    def _initial_associate(self, client: MobileClient, target: Cell) -> None:
        target.associate(client, self.topology.addresses.allocate_mac)
        station = self.topology.station(target.station_name)
        station.register_client(client.ip, target.name)
        self.topology.register_client(client.ip, client.mac, target.station_name)
        client.gateway_mac = self.topology.gateway_mac_for[target.station_name]

    def _start_handover(self, client: MobileClient, old_cell: Cell, new_cell: Cell) -> None:
        event = HandoverEvent(
            time=self.simulator.now,
            client_name=client.name,
            client_ip=client.ip,
            old_cell=old_cell.name,
            new_cell=new_cell.name,
            old_station=old_cell.station_name,
            new_station=new_cell.station_name,
        )
        self._in_progress[client.name] = event
        self.events.append(event)
        for listener in self._started_listeners:
            listener(event)
        # Break-before-make: detach now, attach after the handover delay.
        old_station = self.topology.station(old_cell.station_name)
        old_station.unregister_client(client.ip)
        old_cell.disassociate(client)
        self.simulator.schedule(self.handover_delay_s, self._complete_handover, client, new_cell, event)

    def _complete_handover(self, client: MobileClient, new_cell: Cell, event: HandoverEvent) -> None:
        new_cell.associate(client, self.topology.addresses.allocate_mac)
        new_station = self.topology.station(new_cell.station_name)
        new_station.register_client(client.ip, new_cell.name)
        self.topology.register_client(client.ip, client.mac, new_cell.station_name)
        client.gateway_mac = self.topology.gateway_mac_for[new_cell.station_name]
        event.completed_at = self.simulator.now
        self._in_progress.pop(client.name, None)
        for listener in self._completed_listeners:
            listener(event)

    # --------------------------------------------------------------- stats

    def handover_count(self, client_name: Optional[str] = None) -> int:
        """Number of handovers observed (optionally for one client)."""
        if client_name is None:
            return len(self.events)
        return sum(1 for event in self.events if event.client_name == client_name)

    def summary(self) -> Dict[str, float]:
        completed = [event for event in self.events if event.completed_at is not None]
        interruptions = [event.interruption_s for event in completed if event.interruption_s is not None]
        return {
            "clients": float(len(self.clients)),
            "cells": float(len(self.cells)),
            "handovers": float(len(self.events)),
            "handovers_completed": float(len(completed)),
            "mean_interruption_s": (sum(interruptions) / len(interruptions)) if interruptions else 0.0,
        }
