"""Edge NFV without function roaming.

The counterfactual to the paper's headline feature: NFs are deployed at the
edge but stay on the station where they were first instantiated.  When the
client roams, its traffic enters the new station (which has no steering rules
for it) and bypasses the chain entirely -- policy coverage is silently lost.

:class:`NoMigrationCoordinator` plugs into the Manager exactly where the real
:class:`~repro.core.migration.MigrationEngine` would, but instead of
migrating it only records the coverage loss, so benchmark E5 can quantify the
difference (packets processed by the chain before vs. after the handover,
and policy violations such as blocked pages that suddenly load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.api import ClientEvent
from repro.core.manager import Assignment, GNFManager
from repro.netem.simulator import Simulator


@dataclass
class CoverageLossRecord:
    """One handover after which the client's chain no longer sees its traffic."""

    assignment_id: str
    client_ip: str
    stranded_station: str
    new_station: str
    lost_at: float


class NoMigrationCoordinator:
    """A roaming hook that never migrates (the no-roaming baseline)."""

    strategy = "no-migration"

    def __init__(self, simulator: Simulator, manager: GNFManager) -> None:
        self.simulator = simulator
        self.manager = manager
        self.records: List[CoverageLossRecord] = []
        manager.roaming = self  # type: ignore[assignment]

    # The Manager calls these exactly like it calls the real engine.

    def client_disconnected(self, assignment: Assignment, event: ClientEvent) -> None:
        """Nothing to prepare: the chain will simply be left behind."""

    def client_reconnected(self, assignment: Assignment, event: ClientEvent) -> None:
        """No staged roaming state to drop."""

    def assignment_released(self, assignment_id: str) -> None:
        """No staged roaming state to drop."""

    def shutdown(self) -> None:
        """Nothing periodic to stop."""

    def client_connected(self, assignment: Assignment, event: ClientEvent) -> None:
        """Record that the chain is now stranded on the old station."""
        self.records.append(
            CoverageLossRecord(
                assignment_id=assignment.assignment_id,
                client_ip=assignment.client_ip,
                stranded_station=assignment.station_name,
                new_station=event.station_name,
                lost_at=self.simulator.now,
            )
        )

    # --------------------------------------------------------------- metrics

    def stranded_assignments(self) -> List[str]:
        return sorted({record.assignment_id for record in self.records})

    def coverage_loss_events(self) -> int:
        return len(self.records)

    def summary(self) -> Dict[str, float]:
        return {
            "coverage_loss_events": float(len(self.records)),
            "stranded_assignments": float(len(self.stranded_assignments())),
        }
