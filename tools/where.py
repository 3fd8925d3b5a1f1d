#!/usr/bin/env python
"""Where did the wall-clock go: a statistical sampler over one scenario.

    python tools/where.py <scenario> [--seed N]

``<scenario>`` is a perf workload (``control-fleet``, ``edge-dataplane`` ...:
its replay list, for as many passes as ``perf/run.py`` times at full scale)
or a canned scenario (one replay).  Replays run through ``perf/worker.py``'s
``replay_once``, so the phases are the harness's own.

Every ``INTERVAL_S`` of process CPU time ``signal.setitimer(ITIMER_PROF)``
interrupts the run and the handler records the interrupted Python stack.
CPython runs signal handlers only at function entry and at backward jumps,
so most samples land on a function's first instruction, before it did any
work: such an *entry sample* is charged to the caller, the frame that was
running when the timer fired.  The timer granularity of the kernel caps the
effective rate below the requested 1 kHz; the header prints the rate got.

Printed: the samples per phase (``build_spec``/``start``/``advance``/
``finalize``, and ``harness`` for the GC pass between replays) with its wall
seconds, the self share of each layer (layers are
``perf/trace.py``'s ``layer_of``, imported), and the functions with the
largest inclusive and self shares.  A share is a fraction of all samples.
Time in C code (``heapq``, ``dict`` builds) is charged to the Python frame
that called it, where cProfile books it under ``other``.  The script finds
the checkout's own ``src/``, so it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dis
import os
import signal
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), REPO_ROOT]

from perf.trace import PHASES, layer_of  # noqa: E402
from perf.worker import replay_once  # noqa: E402
from perf.workloads import SIZES, WORKLOAD_NAMES, Replay, build_workload  # noqa: E402
from repro.scenarios import build_scenario, scenario_names  # noqa: E402

#: Requested sampling period (process CPU seconds).
INTERVAL_S = 0.001
#: Rows of each function table.
TOP = 20
#: Where a sample outside the runner phases goes (``replay_once``'s GC pass).
HARNESS = "harness"
#: ``RESUME`` with argument 0 opens every function body (CPython 3.11+).
_RESUME = dis.opmap.get("RESUME")


def _at_entry(frame) -> bool:
    """True when ``frame`` has not run past its first instruction."""
    if _RESUME is None or frame.f_back is None or frame.f_lasti < 0:
        return False
    code = frame.f_code.co_code
    return code[frame.f_lasti] == _RESUME and code[frame.f_lasti + 1] == 0


class Sampler:
    """Self and inclusive sample counts per code object, and samples per phase."""

    def __init__(self) -> None:
        self.current = HARNESS
        self.samples = 0
        self.entry_samples = 0
        self.self_counts: Counter = Counter()
        self.inclusive_counts: Counter = Counter()
        self.phase_samples: Counter = Counter()
        self.phase_wall_s: Dict[str, float] = {}

    def _on_tick(self, _signum, frame) -> None:
        if frame is None:
            return
        if _at_entry(frame):
            self.entry_samples += 1
            frame = frame.f_back
        self.samples += 1
        self.phase_samples[self.current] += 1
        self.self_counts[frame.f_code] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                self.inclusive_counts[code] += 1
            frame = frame.f_back

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """The hook ``replay_once`` wraps each runner phase in."""
        self.current = name
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_wall_s[name] = self.phase_wall_s.get(name, 0.0) + time.perf_counter() - started
            self.current = HARNESS

    @contextmanager
    def running(self) -> Iterator[None]:
        previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)


def replays_of(scenario: str, seed: int) -> List[Replay]:
    """A perf workload's timed replays for its full-scale passes, or one canned replay."""
    if scenario in WORKLOAD_NAMES:
        return list(build_workload(scenario, seed).replays) * SIZES["full"].passes
    if scenario in scenario_names():
        return [Replay(label=f"{scenario}@seed={seed}", build=lambda: build_scenario(scenario, seed))]
    raise SystemExit(
        f"unknown scenario {scenario!r}; perf workloads: {', '.join(WORKLOAD_NAMES)}; "
        f"canned scenarios: {', '.join(scenario_names())}"
    )


def sample(replays: Sequence[Replay]) -> Sampler:
    """Run ``replays`` in order under the sampler; a failed replay raises."""
    sampler = Sampler()
    with sampler.running():
        for replay in replays:
            outcome = replay_once(replay, sampler)
            if "error" in outcome:
                raise RuntimeError(f"{replay.label}: {outcome['error']}")
    return sampler


def _function(code) -> str:
    filename = code.co_filename.replace("\\", "/")
    _, sep, tail = filename.rpartition("/repro/")
    where = tail if sep else os.path.basename(filename)
    return f"{where}:{code.co_firstlineno} {code.co_qualname}"


def report(sampler: Sampler, title: str) -> str:
    total = max(1, sampler.samples)
    wall_s = sum(sampler.phase_wall_s.values())
    lines = [
        f"{title}: {sampler.samples} samples over {wall_s:.2f} s of replay wall time "
        f"({sampler.samples / max(wall_s, 1e-9):.0f} Hz got at {1 / INTERVAL_S:.0f} Hz asked); "
        f"{sampler.entry_samples} entry samples charged to their callers",
        "",
        f"{'phase':<12} {'wall_s':>8} {'share':>7}",
    ]
    for name in (*PHASES, HARNESS):
        share = sampler.phase_samples.get(name, 0) / total
        lines.append(f"{name:<12} {sampler.phase_wall_s.get(name, 0.0):>8.3f} {share:>7.1%}")
    layers: Counter = Counter()
    for code, count in sampler.self_counts.items():
        layers[layer_of(code.co_filename)] += count
    lines += ["", f"{'layer':<20} {'self':>7}"]
    for layer, count in layers.most_common():
        lines.append(f"{layer:<20} {count / total:>7.1%}")
    # The harness's own frames (this file, perf/) enclose every sample.
    harness_files = (os.path.abspath(__file__), os.path.join(REPO_ROOT, "perf") + os.sep)
    inclusive = [
        (code, count)
        for code, count in sampler.inclusive_counts.most_common()
        if not os.path.abspath(code.co_filename).startswith(harness_files)
    ]
    for heading, rows in (
        ("inclusive", inclusive[:TOP]),
        ("self", sampler.self_counts.most_common(TOP)),
    ):
        lines += ["", f"top {TOP} by {heading} share", f"{'incl':>7} {'self':>7}  function"]
        for code, _ in rows:
            lines.append(
                f"{sampler.inclusive_counts[code] / total:>7.1%} "
                f"{sampler.self_counts.get(code, 0) / total:>7.1%}  {_function(code)}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("scenario", help="a perf workload or a canned scenario")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sampler = sample(replays_of(args.scenario, args.seed))
    print(report(sampler, f"{args.scenario} seed {args.seed}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
