"""One workload, measured in this (fresh) process: ``python -m perf.worker``.

``perf/run.py`` starts one such subprocess per workload (``PYTHONHASHSEED=0``,
one process, one thread).  The worker replays the workload's list for a fixed
number of passes with tracing off (``Sizes.passes``; ``--seconds`` only caps
it: no pass starts once that much measuring is spent), runs the untimed gate
replays, checks every correctness gate, and -- with ``--layers`` -- times one
reference pass only and adds one traced pass and the isolated probes.  It
prints one JSON object on its last line; violations of a gate are counted as
failed ops, never raised.

The replay path below imports nothing from ``repro`` but ``repro.scenarios``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from repro.scenarios import ScenarioRunner

from perf import counters
from perf.trace import PHASES, Tracer
from perf.workloads import SIZES, Replay, build_workload


def replay_once(replay: Replay, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Run one replay; returns its phase times (host s), digest and gate inputs."""
    gc.collect()
    phase = tracer.phase if tracer is not None else (lambda _name: nullcontext())
    marks = [time.perf_counter()]
    try:
        with phase("build_spec"):
            spec = replay.build()
        marks.append(time.perf_counter())
        with phase("start"):
            run = ScenarioRunner(spec).start(**replay.start)
        marks.append(time.perf_counter())
        sim_s = spec.duration_s if replay.sim_cap_s is None else min(spec.duration_s, replay.sim_cap_s)
        with phase("advance"):
            run.advance(sim_s)
        marks.append(time.perf_counter())
        with phase("finalize"):
            result = run.finalize()
        marks.append(time.perf_counter())
    except Exception as exc:  # noqa: BLE001 - a failed replay is a failed op, not a crash
        return {"label": replay.label, "error": f"{type(exc).__name__}: {exc}"}
    bulk = {
        name: (stats["bytes_moved"], stats["total_bytes"])
        for name, stats in result.workload_stats.items()
        if "total_bytes" in stats
    }
    outcome: Dict[str, object] = {
        "label": replay.label,
        "sim_s": sim_s,
        "digest": result.digest.hexdigest,
        "drained": bool(result.drained),
        "bulk": bulk,
        "raw": counters.extract(result),
    }
    for name, begin, end in zip(PHASES, marks, marks[1:]):
        outcome[f"{name}_s"] = end - begin
    outcome["setup_s"] = marks[2] - marks[0]  # build_spec + start
    outcome["run_s"] = marks[4] - marks[2]  # advance + finalize
    return outcome


def _gate_failures(replay: Replay, outcome: Dict[str, object], first: Dict[str, Dict]) -> List[str]:
    """Why this op failed (empty = it passed); ``first`` = first outcome per label."""
    if "error" in outcome:
        return [f"raised {outcome['error']}"]
    reasons = []
    if not outcome["drained"]:
        reasons.append("did not drain")
    reference = first[replay.label]
    if outcome["digest"] != reference.get("digest"):
        reasons.append("digest differs from this replay's first run")
    if replay.same_digest_as is not None:
        if outcome["digest"] != first.get(replay.same_digest_as, {}).get("digest"):
            reasons.append(f"digest differs from {replay.same_digest_as}")
    if replay.bulk_complete:
        unfinished = [name for name, (moved, total) in outcome["bulk"].items() if moved != total]
        if unfinished or not outcome["bulk"]:
            reasons.append(f"{len(unfinished)} of {len(outcome['bulk'])} bulk flows incomplete")
    if replay.same_bytes_as is not None:
        if outcome["bulk"] != first.get(replay.same_bytes_as, {}).get("bulk"):
            reasons.append(f"per-flow bytes differ from {replay.same_bytes_as}")
    return reasons


def _median_sum(passes: List[List[Dict]], field: str) -> float:
    """Sum over replays of the median over passes of ``field`` (failed runs have none)."""
    total = 0.0
    for index in range(len(passes[0])):
        samples = [run[index][field] for run in passes if field in run[index]]
        if samples:
            total += median(samples)
    return total


def _pass_sums(passes: List[List[Dict]], field: str) -> List[float]:
    return [sum(outcome.get(field, 0.0) for outcome in run) for run in passes]


def measure(name: str, seed: int, scale: str, seconds: float, layers: bool, out_dir: Path) -> Dict:
    workload = build_workload(name, seed, scale)
    # A layer run times one reference pass; its work is the traced pass.
    wanted = 1 if layers else SIZES[scale].passes
    passes: List[List[Dict]] = []
    started = time.perf_counter()
    while len(passes) < wanted and (not passes or time.perf_counter() - started < seconds):
        passes.append([replay_once(replay) for replay in workload.replays])
    gate_runs = [replay_once(replay) for replay in workload.gates]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if layers:
        tracer = Tracer()
        with tracer.scope("pass"):
            traced = []
            for replay in workload.replays:
                with tracer.scope("replay", replay=replay.label):
                    traced.append(replay_once(replay, tracer))

    first = {outcome["label"]: outcome for outcome in (*passes[0], *gate_runs)}
    ops = []
    runs = [("gate", workload.gates, gate_runs)]
    runs += [(f"pass{index + 1}", workload.replays, run) for index, run in enumerate(passes)]
    if traced is not None:
        runs.append(("traced", workload.replays, traced))
    for run_name, replays, outcomes in runs:
        for replay, outcome in zip(replays, outcomes):
            reasons = _gate_failures(replay, outcome, first)
            ops.append({"run": run_name, "replay": replay.label, "failed": reasons})

    run_wall_s = _median_sum(passes, "run_s")
    sim_s = sum(outcome.get("sim_s", 0.0) for outcome in passes[0])
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "sizes": asdict(SIZES[scale]),
        "passes": len(passes),
        "ops": len(ops),
        "ops_failed": sum(1 for op in ops if op["failed"]),
        "failures": [op for op in ops if op["failed"]],
        "sim_fingerprint": hashlib.sha256(
            "\n".join(str(outcome.get("digest")) for outcome in passes[0]).encode()
        ).hexdigest(),
        "sim_s": sim_s,
        "run_wall_s": run_wall_s,
        "setup_pass_s": median(_pass_sums(passes, "setup_s")),
        "peak_rss_mb": peak_rss_mb,
        "per_pass": {
            "run_wall_s": _pass_sums(passes, "run_s"),
            "setup_s": _pass_sums(passes, "setup_s"),
        },
        "replays": [
            {
                "label": replay.label,
                "digest": passes[0][index].get("digest"),
                "sim_s": passes[0][index].get("sim_s"),
                "setup_s": [run[index].get("setup_s") for run in passes],
                "run_s": [run[index].get("run_s") for run in passes],
            }
            for index, replay in enumerate(workload.replays)
        ],
    }
    if traced is not None:
        result["layers"] = _layer_report(result, passes, traced, tracer, out_dir)
    return result


def _layer_report(
    result: Dict[str, object], passes: List[List[Dict]], traced: List[Dict], tracer: Tracer,
    out_dir: Path,
) -> Dict[str, object]:
    """The 90 per-layer metrics of one workload; also writes its trace file."""
    from perf.probes import run_probes

    name, run_wall_s = result["workload"], result["run_wall_s"]
    metrics: Dict[str, Optional[float]] = {}
    report = tracer.profiler.report()
    for layer, figures in report["layers"].items():
        metrics[f"{layer}.self_s"] = figures["self_s"]
        metrics[f"{layer}.calls"] = figures["calls"]
    raws = [outcome["raw"] for outcome in passes[0] if "error" not in outcome]
    metrics.update(counters.aggregate(raws, run_wall_s))
    for phase in ("start", "advance", "finalize"):
        metrics[f"scenarios.runner.{phase}_s"] = _median_sum(passes, f"{phase}_s")
    probe_values, probes_skipped = run_probes(result["scale"])
    metrics.update(probe_values)

    traced_wall_s = _pass_sums([traced], "run_s")[0]
    overhead = traced_wall_s / run_wall_s if run_wall_s else 0.0
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{name}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": name, "seed": result["seed"], "scale": result["scale"],
                "trace_overhead_x": overhead,
                "layers": report["layers"],
                "self_s_by_phase": report["self_s_by_phase"],
                "entry_points": report["entry_points"],
                "spans": tracer.log.spans,
            },
            indent=1,
        )
    )
    return {
        "metrics": metrics,
        "probes_skipped": probes_skipped,
        "counters_skipped": sorted({reason for raw in raws for reason in raw["skipped"]}),
        "entry_points": report["entry_points"],
        "trace_overhead_x": overhead,
        "trace_file": trace_path.name,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=0.0, help="start no pass after this long")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.scale, args.seconds, args.layers, args.out_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
