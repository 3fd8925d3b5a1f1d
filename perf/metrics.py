"""The declared metrics: ``BENCHMARK.json`` is the one place that names them.

Names, units, directions, bounds and ``run_seconds`` are read from the file at
run time; the harness modules only *produce* values (``trace.LAYERS``,
``counters.aggregate``, ``probes.PROBES``) and ``test_perf_smoke.py`` checks
that what they produce is exactly what the file declares.  Host times are
plain, simulated quantities say ``sim`` in the name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Units of host times and host rates.  A per-layer metric in any other unit
#: (``count``, ``ratio``, simulated ``ms``) is simulated work: it repeats
#: exactly for one commit and seed, and ``compare.py`` gates it at 0 % drift.
HOST_UNITS = frozenset({"s", "1/s"})


@dataclass(frozen=True)
class Declared:
    """``BENCHMARK.json`` as the harness uses it; metric name -> (unit, better)."""

    run_seconds: int
    workloads: Tuple[str, ...]
    end_to_end: Dict[str, Tuple[str, str]]
    bounds: Dict[str, float]
    per_layer: Dict[str, Tuple[str, str]]

    @property
    def exact(self) -> Tuple[str, ...]:
        """The per-layer metrics that are simulated work, not host time."""
        return tuple(name for name, (unit, _) in self.per_layer.items() if unit not in HOST_UNITS)


def declared() -> Declared:
    doc = json.loads(BENCHMARK_JSON.read_text())
    return Declared(
        run_seconds=doc["run_seconds"],
        workloads=tuple(entry["name"] for entry in doc["workloads"]),
        end_to_end={entry["name"]: (entry["unit"], entry["better"]) for entry in doc["end_to_end"]},
        bounds={entry["name"]: entry["bound"] for entry in doc["end_to_end"]},
        per_layer={entry["name"]: (entry["unit"], entry["better"]) for entry in doc["per_layer"]},
    )
