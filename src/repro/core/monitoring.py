"""Manager-side health and resource monitoring.

Section 3: "The Manager is also responsible for continuously monitoring the
health and resource utilization from the GNF stations, allowing the provider
to detect resource-hotspots and therefore the part of the infrastructure
that should be upgraded."

* Agent liveness from heartbeat arrival times is
  :class:`repro.telemetry.rollup.HealthRollup`.
* :class:`HotspotDetector` flags stations whose memory or CPU pressure stays
  above a threshold, which the UI surfaces as upgrade candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Hotspot:
    """One detected resource hotspot."""

    station_name: str
    detected_at: float
    metric: str
    value: float
    threshold: float


class HotspotDetector:
    """Flags stations whose reported utilization exceeds configured thresholds."""

    def __init__(
        self,
        memory_threshold: float = 0.85,
        cpu_seconds_rate_threshold: float = 0.8,
    ) -> None:
        self.memory_threshold = memory_threshold
        self.cpu_seconds_rate_threshold = cpu_seconds_rate_threshold
        self.hotspots: List[Hotspot] = []
        #: Optional push hook fired once per detected hotspot, at detection
        #: time.  The sharded frontend uses it to stream hotspot sightings
        #: into the telemetry rollups instead of re-scanning
        #: ``self.hotspots`` on every read.
        self.on_hotspot: Optional[Callable[[Hotspot], None]] = None
        self._last_cpu_seconds: Dict[str, float] = {}
        self._last_sample_time: Dict[str, float] = {}

    def observe(self, station_name: str, now: float, resources: Dict[str, float]) -> List[Hotspot]:
        """Inspect one heartbeat's resource snapshot; returns new hotspots."""
        found: List[Hotspot] = []
        memory_utilization = resources.get("memory_utilization", 0.0)
        if memory_utilization >= self.memory_threshold:
            found.append(
                Hotspot(
                    station_name=station_name,
                    detected_at=now,
                    metric="memory_utilization",
                    value=memory_utilization,
                    threshold=self.memory_threshold,
                )
            )
        total_cpu = resources.get("total_cpu_seconds", 0.0)
        last_cpu = self._last_cpu_seconds.get(station_name)
        last_time = self._last_sample_time.get(station_name)
        if last_cpu is not None and last_time is not None and now > last_time:
            cpu_rate = (total_cpu - last_cpu) / (now - last_time)
            if cpu_rate >= self.cpu_seconds_rate_threshold:
                found.append(
                    Hotspot(
                        station_name=station_name,
                        detected_at=now,
                        metric="cpu_busy_fraction",
                        value=cpu_rate,
                        threshold=self.cpu_seconds_rate_threshold,
                    )
                )
        self._last_cpu_seconds[station_name] = total_cpu
        self._last_sample_time[station_name] = now
        self.hotspots.extend(found)
        if self.on_hotspot is not None:
            for hotspot in found:
                self.on_hotspot(hotspot)
        return found

    def hotspot_stations(self) -> List[str]:
        """Stations that have ever been flagged (the 'upgrade these' list)."""
        return sorted({hotspot.station_name for hotspot in self.hotspots})

    def recent_hotspots(self, since: float) -> List[Hotspot]:
        return [hotspot for hotspot in self.hotspots if hotspot.detected_at >= since]
