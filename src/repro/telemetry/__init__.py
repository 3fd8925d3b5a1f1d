"""Telemetry: latest-value collection, rollups, export and metric primitives.

The demo's UI continuously shows "real-time statistics (network traffic, CPU
load, memory usage)" for every station and NF.  Each Agent's
:class:`~repro.telemetry.collector.ResourceCollector` keeps the latest value
of its station's ``cache.*``/``fastpath.*``/``flows.*`` metrics (no history),
heartbeats carry snapshots to the Manager's :mod:`~repro.telemetry.rollup`
tree and :mod:`~repro.telemetry.export` renders the view the UI consumes.
:mod:`~repro.telemetry.metrics` (counter/gauge/series) has no user in ``src/``.
"""

from repro.telemetry.metrics import Counter, Gauge, TimeSeries, MetricsRegistry
from repro.telemetry.collector import ResourceCollector
from repro.telemetry.export import snapshot_to_json, render_table
from repro.telemetry.rollup import (
    GlobalTelemetry,
    HealthRollup,
    HotspotRollup,
    RegionTelemetry,
    RollupCounters,
)

__all__ = [
    "Counter",
    "Gauge",
    "TimeSeries",
    "MetricsRegistry",
    "ResourceCollector",
    "snapshot_to_json",
    "render_table",
    "GlobalTelemetry",
    "HealthRollup",
    "HotspotRollup",
    "RegionTelemetry",
    "RollupCounters",
]
