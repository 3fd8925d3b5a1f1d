"""Metric primitives: counters, gauges and bounded time series."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (amount={amount})")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A value that can go up and down (e.g. memory in use)."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class TimeSeries:
    """A bounded series of (timestamp, value) samples."""

    def __init__(self, name: str, max_samples: int = 10_000, description: str = "") -> None:
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.name = name
        self.description = description
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=max_samples)

    def record(self, timestamp: float, value: float) -> None:
        self._samples.append((timestamp, value))

    def values(self) -> List[float]:
        return [value for _, value in self._samples]

    def latest(self) -> Optional[Tuple[float, float]]:
        return self._samples[-1] if self._samples else None

    def mean(self) -> float:
        values = self.values()
        return sum(values) / len(values) if values else 0.0

    def maximum(self) -> float:
        values = self.values()
        return max(values) if values else 0.0

    def rate_per_second(self) -> float:
        """Average rate of change between the first and last sample.

        Useful to turn cumulative byte counters into throughput.
        """
        if len(self._samples) < 2:
            return 0.0
        (t0, v0), (t1, v1) = self._samples[0], self._samples[-1]
        if t1 <= t0:
            return 0.0
        return (v1 - v0) / (t1 - t0)

    def window(self, since: float) -> List[Tuple[float, float]]:
        """Samples recorded at or after ``since``."""
        return [(t, v) for t, v in self._samples if t >= since]

    def __len__(self) -> int:
        return len(self._samples)


class MetricsRegistry:
    """A named collection of counters, gauges and time series."""

    def __init__(self, name: str = "metrics") -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name, description)
        return self._counters[name]

    def gauge(self, name: str, description: str = "") -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, description)
        return self._gauges[name]

    def series(self, name: str, max_samples: int = 10_000, description: str = "") -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name, max_samples=max_samples, description=description)
        return self._series[name]

    def counters(self) -> Dict[str, float]:
        return {name: counter.value for name, counter in self._counters.items()}

    def gauges(self) -> Dict[str, float]:
        return {name: gauge.value for name, gauge in self._gauges.items()}

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def snapshot(self) -> Dict[str, float]:
        """Flat view: counters, gauges and the latest sample of every series."""
        flat: Dict[str, float] = {}
        flat.update(self.counters())
        flat.update(self.gauges())
        for name, series in self._series.items():
            latest = series.latest()
            if latest is not None:
                flat[name] = latest[1]
        return flat
