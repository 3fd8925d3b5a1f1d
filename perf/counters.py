"""Exact counters, read with tracing off from public result objects only.

``extract`` pulls the raw numbers out of one finished ``ScenarioResult``
(so the testbed can be dropped at once); ``aggregate`` folds the raws of one
pass into the 18 counter metrics.  Everything here is *simulated* work and
repeats exactly for a fixed seed, except ``netem.simulator.events_per_s``.
"""

from __future__ import annotations

from statistics import median
from typing import Callable, Dict, List, Optional

_SUMMED = (
    "events", "packets_sent", "packets_lost", "fastpath_hits", "fastpath_lookups",
    "fluid_epochs", "bytes_fluid", "bytes_bulk", "placements", "remote_placements",
    "migrations_started", "migrations_completed", "handovers",
    "containers_started", "containers_failed", "attach_intents", "attach_failures",
)


def _read(raw: Dict[str, object], skipped: List[str], key: str, source: Callable[[], object]) -> None:
    """Store ``source()`` under ``key``; a source a refactor removed is skipped, not fatal."""
    try:
        raw[key] = source()
    except (AttributeError, KeyError, TypeError) as exc:
        skipped.append(f"{key}: {type(exc).__name__}: {exc}")


def extract(result) -> Dict[str, object]:
    """Raw counter inputs of one replay (JSON-able, no live objects)."""
    raw: Dict[str, object] = {}
    skipped: List[str] = []
    stats = result.workload_stats.values()
    testbed = result.testbed
    spec = result.spec

    def cache_stats(field: str) -> float:
        return sum(
            station.switch.flow_cache.stats()[field] for station in testbed.topology.stations.values()
        )

    def runtime_total(field: str) -> int:
        return sum(getattr(agent.runtime, field) for agent in testbed.agents.values())

    def completed(field: str) -> List[float]:
        return [
            getattr(record, field)
            for record in testbed.roaming.records
            if record.completed_at is not None and record.success
        ]

    _read(raw, skipped, "events", lambda: result.events_processed)
    _read(raw, skipped, "packets_sent", lambda: sum(s["packets_sent"] for s in stats))
    _read(raw, skipped, "packets_lost", lambda: sum(s["packets_sent"] * s["loss_rate"] for s in stats))
    _read(raw, skipped, "fastpath_hits", lambda: cache_stats("hits"))
    _read(raw, skipped, "fastpath_lookups", lambda: cache_stats("hits") + cache_stats("misses"))
    _read(raw, skipped, "fluid_epochs", lambda: result.fluid_summary["solver_epochs"])
    _read(raw, skipped, "bytes_fluid", lambda: result.fluid_summary["bytes_fluid"])
    _read(
        raw, skipped, "bytes_bulk",
        lambda: result.fluid_summary["bytes_fluid"] + result.fluid_summary["bytes_packet"],
    )
    _read(raw, skipped, "placements", lambda: result.placement_stats["placements"])
    _read(raw, skipped, "remote_placements", lambda: result.placement_stats["remote_placements"])
    _read(raw, skipped, "migrations_started", lambda: result.migrations_started)
    _read(raw, skipped, "migrations_completed", lambda: result.migrations_completed)
    _read(raw, skipped, "downtimes_s", lambda: completed("downtime_s"))
    _read(raw, skipped, "coverage_gaps_s", lambda: completed("coverage_gap_s"))
    _read(raw, skipped, "handovers", lambda: result.handovers)
    _read(raw, skipped, "containers_started", lambda: runtime_total("containers_started"))
    _read(raw, skipped, "containers_failed", lambda: runtime_total("containers_failed"))
    _read(
        raw, skipped, "attach_intents",
        lambda: sum(spec.fleet(a.fleet).count for a in (*spec.assignments, *spec.bundles)),
    )
    _read(raw, skipped, "attach_failures", lambda: len(result.attach_failures))
    raw["skipped"] = skipped
    return raw


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p50_ms(samples: List[float]) -> float:
    return median(samples) * 1e3 if samples else 0.0


def aggregate(raws: List[Dict[str, object]], run_wall_s: Optional[float]) -> Dict[str, float]:
    """The counter metrics of one pass (``raws`` = one entry per replay)."""
    total = {key: sum(raw.get(key, 0) for raw in raws) for key in _SUMMED}
    pooled = {
        key: [sample for raw in raws for sample in raw.get(key, ())]
        for key in ("downtimes_s", "coverage_gaps_s")
    }
    return {
        "netem.simulator.events": total["events"],
        "netem.simulator.events_per_s": _share(total["events"], run_wall_s or 0.0),
        "netem.simulator.events_per_packet": _share(total["events"], total["packets_sent"]),
        "netem.trafficgen.packets_sent": total["packets_sent"],
        "netem.trafficgen.loss_share": _share(total["packets_lost"], total["packets_sent"]),
        "netem.switch.fastpath_hit_ratio": _share(total["fastpath_hits"], total["fastpath_lookups"]),
        "netem.fluid.epochs": total["fluid_epochs"],
        "netem.fluid.fluid_byte_share": _share(total["bytes_fluid"], total["bytes_bulk"]),
        "core.placement.decisions": total["placements"],
        "core.placement.remote_share": _share(total["remote_placements"], total["placements"]),
        "core.migration.completed": total["migrations_completed"],
        "core.migration.completed_share": _share(
            total["migrations_completed"], total["migrations_started"]
        ),
        "core.migration.sim_downtime_ms_p50": _p50_ms(pooled["downtimes_s"]),
        "core.migration.sim_coverage_gap_ms_p50": _p50_ms(pooled["coverage_gaps_s"]),
        "wireless.handovers": total["handovers"],
        "containers.started": total["containers_started"],
        "containers.failed_share": _share(total["containers_failed"], total["containers_started"]),
        "core.manager.attach_failed_share": _share(total["attach_failures"], total["attach_intents"]),
    }
