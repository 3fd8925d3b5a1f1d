"""Harness-side tracing: spans around the runner phases, a profiler bucketed by layer.

Nothing here touches ``src/``: spans are recorded around the calls the
harness makes from outside (``build_spec``/``start``/``advance``/``finalize``),
and inside those spans a stdlib ``cProfile`` attributes self time and call
counts to the layer that owns each function's *file*.  In-program tracing is
a later issue that will be checked against these numbers.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

PHASES = ("build_spec", "start", "advance", "finalize")

#: File (relative to ``src/repro/``) -> layer.  A module of a listed package
#: that is not named here falls into the package's catch-all.
_FILE_LAYERS = {
    "netem/simulator.py": "netem.simulator",
    "netem/link.py": "netem.link",
    "netem/switch.py": "netem.switch",
    "netem/fastpath.py": "netem.fastpath",
    "netem/flowtable.py": "netem.flowtable",
    "netem/host.py": "netem.host",
    "netem/packet.py": "netem.packet",
    "netem/trafficgen.py": "netem.trafficgen",
    "netem/fluid.py": "netem.fluid",
    "core/agent.py": "core.agent",
    "core/manager.py": "core.manager",
    "core/sharding.py": "core.sharding",
    "core/federation.py": "core.federation",
    "core/placement.py": "core.placement",
    "core/migration.py": "core.migration",
    "core/testbed.py": "core.testbed",
    "scenarios/digest.py": "scenarios.digest",
}
_PACKAGE_LAYERS = {
    "netem": "netem.other",
    "core": "core.other",
    "nfs": "nfs",
    "containers": "containers",
    "wireless": "wireless",
    "telemetry": "telemetry",
    "scenarios": "scenarios.runner",
}
#: stdlib, builtins, numpy, ``repro.analysis``, ``repro.baselines``, the harness.
OTHER = "other"

LAYERS = (*_FILE_LAYERS.values(), *_PACKAGE_LAYERS.values(), OTHER)

#: Public entry points whose cumulative time and calls the trace file lists,
#: as ``co_qualname`` -> file suffix.  Resolved against the profile at run
#: time: a name that no longer exists is simply absent from the output.
ENTRY_POINTS = {
    "Simulator.run": "netem/simulator.py",
    "Link.transmit": "netem/link.py",
    "Link.transmit_batch": "netem/link.py",
    "SoftwareSwitch.receive_packet": "netem/switch.py",
    "SoftwareSwitch.receive_batch": "netem/switch.py",
    "NetworkFunction.process_batch": "nfs/base.py",
    "FluidSolver.max_min_rates": "netem/fluid.py",
    "PlacementEngine.place": "core/placement.py",
    "HandoverManager.scan": "wireless/handover.py",
    "ResourceCollector.sample_once": "telemetry/collector.py",
    "ContainerRuntime.start": "containers/runtime.py",
    "MetricsDigest.compute": "scenarios/digest.py",
}


def _repro_relative(filename: str) -> Optional[str]:
    """``netem/link.py`` for ``.../repro/netem/link.py``; None outside repro."""
    _, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    return tail if sep else None


def layer_of(filename: str) -> str:
    relative = _repro_relative(filename)
    if relative is None:
        return OTHER
    if relative in _FILE_LAYERS:
        return _FILE_LAYERS[relative]
    return _PACKAGE_LAYERS.get(relative.split("/", 1)[0], OTHER)


class SpanLog:
    """In-memory spans: name, start, end, parent span, replay id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, replay: Optional[str] = None) -> Iterator[int]:
        span_id = len(self.spans)
        record: Dict[str, object] = {
            "id": span_id, "name": name, "parent": parent, "replay": replay,
            "start_s": time.perf_counter(), "end_s": None,
        }
        self.spans.append(record)
        try:
            yield span_id
        finally:
            record["end_s"] = time.perf_counter()


class LayerProfiler:
    """One ``cProfile`` per runner phase, accumulated over a whole pass."""

    def __init__(self) -> None:
        self._profiles = {phase: cProfile.Profile() for phase in PHASES}

    @contextmanager
    def phase(self, phase: str) -> Iterator[None]:
        profile = self._profiles[phase]
        profile.enable()
        try:
            yield
        finally:
            profile.disable()

    def report(self) -> Dict[str, object]:
        """Self time and calls per layer (total and per phase) and entry points."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        by_phase = {phase: {layer: 0.0 for layer in LAYERS} for phase in PHASES}
        entry_points: Dict[str, Dict[str, float]] = {}
        for phase, profile in self._profiles.items():
            for entry in profile.getstats():
                code = entry.code
                # Builtins and C functions carry a string, not a code object.
                filename = getattr(code, "co_filename", "")
                layer = layer_of(filename)
                layers[layer]["self_s"] += entry.inlinetime
                layers[layer]["calls"] += entry.callcount
                by_phase[phase][layer] += entry.inlinetime
                qualname = getattr(code, "co_qualname", None)
                suffix = ENTRY_POINTS.get(qualname)
                if suffix is not None and _repro_relative(filename) == suffix:
                    point = entry_points.setdefault(qualname, {"cumulative_s": 0.0, "calls": 0})
                    point["cumulative_s"] += entry.totaltime
                    point["calls"] += entry.callcount
        return {"layers": layers, "self_s_by_phase": by_phase, "entry_points": entry_points}


class Tracer:
    """What the harness threads through a traced pass: spans plus the profiler."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.profiler = LayerProfiler()
        self._parent: Optional[int] = None
        self._replay: Optional[str] = None

    @contextmanager
    def scope(self, name: str, replay: Optional[str] = None) -> Iterator[None]:
        """A pass or replay span; phases opened inside it become its children."""
        outer = (self._parent, self._replay)
        with self.log.span(name, parent=self._parent, replay=replay) as span_id:
            self._parent, self._replay = span_id, replay
            try:
                yield
            finally:
                self._parent, self._replay = outer

    @contextmanager
    def phase(self, phase: str) -> Iterator[None]:
        with self.log.span(f"scenarios.runner.{phase}", parent=self._parent, replay=self._replay):
            with self.profiler.phase(phase):
                yield
