"""Radio propagation model.

A standard log-distance path-loss model is enough for the reproduction: what
matters to GNF is *which cell a client is associated with and when handovers
happen*, not the physical layer.  The model still produces realistic RSSI
curves so the handover logic (threshold + hysteresis) behaves like a real
Wi-Fi client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

Position = Tuple[float, float]


def distance_m(a: Position, b: Position) -> float:
    """Euclidean distance between two 2-D positions in metres."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class RadioEnvironment:
    """Log-distance path loss: ``PL(d) = PL(d0) + 10 * n * log10(d / d0)``.

    Defaults approximate 2.4 GHz Wi-Fi indoors/urban (path-loss exponent 3.0,
    40 dB loss at the 1 m reference distance).
    """

    path_loss_exponent: float = 3.0
    reference_loss_db: float = 40.0
    reference_distance_m: float = 1.0
    #: Receiver sensitivity: the single reachability threshold shared by
    #: ``in_range``, ``max_range_m`` and ``link_rate_bps``.  A client the
    #: model calls unreachable gets PHY rate 0, not a phantom 6 Mbit/s.
    sensitivity_dbm: float = -85.0

    def path_loss_db(self, distance: float) -> float:
        """Path loss in dB at ``distance`` metres."""
        clamped = max(distance, self.reference_distance_m)
        return self.reference_loss_db + 10 * self.path_loss_exponent * math.log10(
            clamped / self.reference_distance_m
        )

    def rssi_dbm(self, tx_power_dbm: float, distance: float) -> float:
        """Received signal strength at ``distance`` metres."""
        return tx_power_dbm - self.path_loss_db(distance)

    def rssi_between(self, tx_power_dbm: float, a: Position, b: Position) -> float:
        """RSSI between two positions."""
        return self.rssi_dbm(tx_power_dbm, distance_m(a, b))

    def in_range(
        self, tx_power_dbm: float, a: Position, b: Position, sensitivity_dbm: float = None
    ) -> bool:
        """True if a receiver at ``b`` can hear a transmitter at ``a``."""
        threshold = self.sensitivity_dbm if sensitivity_dbm is None else sensitivity_dbm
        return self.rssi_between(tx_power_dbm, a, b) >= threshold

    def max_range_m(self, tx_power_dbm: float, sensitivity_dbm: float = None) -> float:
        """Distance at which RSSI drops to the receiver sensitivity."""
        threshold = self.sensitivity_dbm if sensitivity_dbm is None else sensitivity_dbm
        budget_db = tx_power_dbm - threshold - self.reference_loss_db
        if budget_db <= 0:
            return self.reference_distance_m
        return self.reference_distance_m * 10 ** (budget_db / (10 * self.path_loss_exponent))

    def link_rate_bps(self, rssi_dbm: float) -> float:
        """Coarse RSSI-to-PHY-rate mapping (802.11-style rate steps).

        Below the receiver sensitivity the link is unusable: rate 0, matching
        ``in_range``.  (Historically the lowest step extended down to the
        noise floor, serving 6 Mbit/s to clients ``in_range`` called
        unreachable.)
        """
        if rssi_dbm < self.sensitivity_dbm:
            return 0.0
        if rssi_dbm >= -55:
            return 150e6
        if rssi_dbm >= -65:
            return 72e6
        if rssi_dbm >= -75:
            return 36e6
        if rssi_dbm >= -82:
            return 12e6
        return 6e6
