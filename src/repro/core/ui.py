"""The GNF User Interface.

Section 3: "The UI provides the overall management interface for the system
through a direct connection to the Manager's API.  Using a simple interface,
the entire network health, status, and notifications can be monitored,
including the number of online stations, connected clients, enabled NFs, and
current processing and network resource consumption.  New NFs can be
attached in seconds or removed from clients as well as scheduled to be
enabled only during specific time periods."

:class:`GNFDashboard` is that interface: a thin, read-mostly facade over the
Manager plus the attach/remove/schedule operations, with plain-text renderers
(the reproduction's stand-in for the demo's web UI) that examples and
benchmarks print.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.chain import ServiceChain
from repro.core.manager import Assignment, AssignmentState, GNFManager
from repro.core.policy import TrafficSelector
from repro.core.scheduler import TimeSchedule
from repro.telemetry.export import render_table


class GNFDashboard:
    """Operator-facing view of the whole GNF deployment."""

    def __init__(self, manager: GNFManager) -> None:
        self.manager = manager

    # ------------------------------------------------------------- overview

    def overview(self) -> Dict[str, object]:
        """Network-wide health: stations, clients, NFs, hotspots, notifications."""
        return self.manager.overview()

    def nf_catalog(self) -> List[Dict[str, object]]:
        """The NF types an operator can deploy."""
        return self.manager.repository.describe()

    def stations(self) -> List[Dict[str, object]]:
        """One row per station: liveness, resources, NF count, clients."""
        now = self.manager.simulator.now
        rows: List[Dict[str, object]] = []
        for station_name, agent in sorted(self.manager.agents.items()):
            resources = agent.runtime.utilization()
            rows.append(
                {
                    "station": station_name,
                    "online": self.manager.health.is_online(station_name, now),
                    "profile": agent.station.profile.name,
                    "containers_running": int(resources.get("containers_running", 0)),
                    "memory_utilization": round(float(resources.get("memory_utilization", 0.0)), 3),
                    "free_memory_mb": round(float(resources.get("free_memory_mb", 0.0)), 1),
                    "connected_clients": len(agent.connected_clients),
                    "hotspot": station_name in self.manager.hotspots.hotspot_stations(),
                }
            )
        return rows

    def station_view(self, station_name: str) -> Dict[str, object]:
        """Detailed per-station view (the demo UI's drill-down page)."""
        agent = self.manager.agent(station_name)
        return agent.status()

    def clients(self) -> List[Dict[str, object]]:
        """One row per known client: location and assigned NFs."""
        rows: List[Dict[str, object]] = []
        for client_ip, station_name in sorted(self.manager.client_locations.items()):
            assignments = self.manager.assignments_for_client(client_ip)
            rows.append(
                {
                    "client_ip": client_ip,
                    "client_name": self.manager.client_names.get(client_ip, ""),
                    "station": station_name,
                    "assignments": len(assignments),
                    "nfs": sorted({nf for a in assignments for nf in a.chain.nf_types}),
                    "migrations": sum(a.migrations for a in assignments),
                }
            )
        return rows

    def client_view(self, client_ip: str) -> Dict[str, object]:
        """Everything the operator sees about one client."""
        assignments = self.manager.assignments_for_client(client_ip)
        return {
            "client_ip": client_ip,
            "client_name": self.manager.client_names.get(client_ip, ""),
            "station": self.manager.client_locations.get(client_ip),
            "assignments": [
                {
                    "assignment_id": assignment.assignment_id,
                    "chain": assignment.chain.nf_types,
                    "selector": assignment.selector.description,
                    "state": assignment.state.value,
                    "station": assignment.station_name,
                    "station_history": list(assignment.station_history),
                    "attach_latency_s": assignment.attach_latency_s,
                    "migrations": assignment.migrations,
                }
                for assignment in assignments
            ],
        }

    def notifications(self, minimum_severity: str = "info", limit: int = 50) -> List[Dict[str, object]]:
        """The newest notifications at or above a severity."""
        selected = self.manager.notifications.by_severity(minimum_severity)[-limit:]
        return [
            {
                "time": notification.received_at,
                "station": notification.station_name,
                "nf": notification.nf_name,
                "severity": notification.severity,
                "message": notification.message,
            }
            for notification in selected
        ]

    # ------------------------------------------------------------ operations

    def attach_nf(
        self,
        client_ip: str,
        nf_type: str,
        config: Optional[Dict[str, object]] = None,
        selector: Optional[TrafficSelector] = None,
        schedule: Optional[TimeSchedule] = None,
    ) -> Assignment:
        """Attach one NF to a client (the demo's "assign NF" button)."""
        return self.manager.attach_nf(client_ip, nf_type, config=config, selector=selector, schedule=schedule)

    def attach_chain(
        self,
        client_ip: str,
        chain: ServiceChain,
        selector: Optional[TrafficSelector] = None,
        schedule: Optional[TimeSchedule] = None,
    ) -> Assignment:
        """Attach a chain of NFs to a client."""
        return self.manager.attach_chain(client_ip, chain, selector=selector, schedule=schedule)

    def remove_assignment(self, assignment_id: str) -> Assignment:
        """Remove a previously attached NF/chain."""
        return self.manager.detach(assignment_id)

    def schedule_nf(
        self,
        client_ip: str,
        nf_type: str,
        start_s: float,
        end_s: float,
        config: Optional[Dict[str, object]] = None,
    ) -> Assignment:
        """Attach an NF that is only enabled during a specific time period."""
        return self.manager.attach_nf(
            client_ip, nf_type, config=config, schedule=TimeSchedule.between(start_s, end_s)
        )

    # -------------------------------------------------------------- renders

    def render_overview(self) -> str:
        """Plain-text landing page."""
        overview = self.overview()
        rows = [
            ["online stations", len(overview["online_stations"])],
            ["connected clients", overview["connected_clients"]],
            ["active assignments", overview["active_assignments"]],
            ["enabled NFs", overview["enabled_nfs"]],
            ["hotspot stations", len(overview["hotspot_stations"])],
            ["notifications", sum(overview["notifications"].values())],
        ]
        return render_table(["metric", "value"], rows, title="GNF network overview")

    def render_stations(self) -> str:
        """Plain-text station table."""
        rows = [
            [
                row["station"],
                row["online"],
                row["profile"],
                row["containers_running"],
                row["memory_utilization"],
                row["connected_clients"],
                row["hotspot"],
            ]
            for row in self.stations()
        ]
        return render_table(
            ["station", "online", "profile", "NFs", "mem util", "clients", "hotspot"],
            rows,
            title="GNF stations",
        )

    def render_clients(self) -> str:
        """Plain-text client table."""
        rows = [
            [
                row["client_ip"],
                row["client_name"],
                row["station"],
                ",".join(row["nfs"]) or "-",
                row["migrations"],
            ]
            for row in self.clients()
        ]
        return render_table(
            ["client", "name", "station", "NFs", "migrations"], rows, title="GNF clients"
        )
