"""Periodic resource collection.

A :class:`ResourceCollector` samples a set of *sources* (callables returning
``{metric_name: value}``) on a fixed interval and keeps the most recent value
of every ``<prefix>.<metric>`` it has seen -- no history: nothing reads more
than the last sample.  Agents run one collector per station; its tick is also
the station's housekeeping clock (see ``GNFAgent._flow_tracker_metrics``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.netem.simulator import PeriodicTask, Simulator

MetricSource = Callable[[], Dict[str, float]]


class ResourceCollector:
    """Samples registered sources and keeps the latest value of each metric."""

    def __init__(self, simulator: Simulator, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.simulator = simulator
        self.interval_s = interval_s
        self._sources: Dict[str, MetricSource] = {}
        # prefix -> that source's latest value of every metric it reported,
        # updated in place each tick; the flat keys are built on read.
        self._latest: Dict[str, Dict[str, float]] = {}
        self._task: Optional[PeriodicTask] = None
        self.samples_taken = 0

    # -------------------------------------------------------------- sources

    def add_source(self, prefix: str, source: MetricSource) -> None:
        """Register a source; its metrics are stored as ``<prefix>.<metric>``."""
        self._sources[prefix] = source

    def remove_source(self, prefix: str) -> None:
        self._sources.pop(prefix, None)

    def sources(self) -> List[str]:
        return sorted(self._sources)

    # -------------------------------------------------------------- control

    def start(self) -> "ResourceCollector":
        if self._task is None:
            self._task = self.simulator.every(self.interval_s, self._tick, initial_delay=self.interval_s)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------- sampling

    def _tick(self) -> List[Tuple[str, Dict[str, float]]]:
        """Collect one sample from every source; returns what each reported."""
        collected: List[Tuple[str, Dict[str, float]]] = []
        latest = self._latest
        for prefix, source in self._sources.items():
            kept = latest.get(prefix)
            if kept is None:
                kept = latest[prefix] = {}
            try:
                values = source()
            except Exception:  # noqa: BLE001 - a broken source must not kill the collector
                kept["collection_errors"] = kept.get("collection_errors", 0.0) + 1.0
                continue
            kept.update(values)
            collected.append((prefix, values))
        self.samples_taken += 1
        return collected

    def sample_once(self) -> Dict[str, float]:
        """Collect one sample from every source: ``<prefix>.<metric>`` -> value."""
        return _flat(self._tick())

    def latest(self) -> Dict[str, float]:
        """Most recent value of every metric ever collected (a fresh dict)."""
        return _flat(self._latest.items())


def _flat(per_source: Iterable[Tuple[str, Dict[str, float]]]) -> Dict[str, float]:
    """``(prefix, {metric: value})`` pairs as one ``<prefix>.<metric>`` -> float dict."""
    return {
        f"{prefix}.{metric}": float(value)
        for prefix, values in per_source
        for metric, value in values.items()
    }
