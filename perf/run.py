#!/usr/bin/env python3
"""The repo's performance benchmark: five replay workloads, measured from outside ``src/``.

    python perf/run.py --all                      every workload, end-to-end metrics
    python perf/run.py --workload bulk-hybrid     one workload
    python perf/run.py --all --layers             per-layer run (traced pass, counters, probes)
    python perf/run.py --all --seed 7             another input seed
    python perf/run.py --all --layers --scale tiny   the smoke size (seconds, not minutes)

The benchmark driver calls ``--workload W --seed N --seconds S --trace 0|1``
(``--trace 1`` is ``--layers``) and reads the JSON object on the last line.
The program measured is always this checkout's own ``src/repro``; without it
the run is a harness error (exit 2, nothing on stdout).  Results and trace
files go to ``perf/out/`` and nowhere else.  All times are host times unless a
name says ``sim``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
# Run as a script, sys.path[0] is perf/ itself, whose trace.py would shadow the
# stdlib module of that name: import the harness as the package ``perf``.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != PERF_DIR]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf.metrics import Declared, declared  # noqa: E402 - needs the path above

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.scenarios; print(time.perf_counter() - t)"
)
#: Fresh-interpreter import repeats behind ``setup_s``, per ``--scale``.
_IMPORT_REPEATS = {"full": 5, "tiny": 1}


class HarnessError(RuntimeError):
    """The harness itself could not run (as opposed to a failed op)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: List[str]) -> str:
    """Run one fresh interpreter to completion; its stdout, or a HarnessError."""
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True, text=True
    )
    if done.returncode != 0:
        raise HarnessError(f"{' '.join(args[:3])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def import_times(repeats: int) -> List[float]:
    return [float(_child(["-c", _IMPORT_PROBE]).strip()) for _ in range(repeats)]


def _spread(samples: List[float]) -> Optional[float]:
    """(max - min) / median of a run's own passes; unknown (None) for a single
    pass, or when every replay failed and nothing was timed."""
    middle = median(samples)
    return (max(samples) - min(samples)) / middle if len(samples) > 1 and middle else None


def _end_to_end(worker: Dict[str, object], imports: List[float], spec: Declared) -> Dict[str, Dict]:
    passes = worker["per_pass"]
    setup_s = median(imports) + worker["setup_pass_s"]
    run_spread = _spread(passes["run_wall_s"])
    setup_spread = None
    if worker["passes"] > 1 and len(imports) > 1:
        ranges = max(imports) - min(imports) + max(passes["setup_s"]) - min(passes["setup_s"])
        setup_spread = ranges / setup_s
    # (value, samples behind it, spread between this run's own samples)
    figures = {
        "setup_s": (setup_s, len(imports) + worker["passes"], setup_spread),
        "run_wall_s": (worker["run_wall_s"], worker["passes"], run_spread),
        # All replays failed: no time was measured, and failed > 0 says so.
        "sim_s_per_wall_s": (
            worker["sim_s"] / worker["run_wall_s"] if worker["run_wall_s"] else 0.0,
            worker["passes"], run_spread,
        ),
        # One reading per process: its noise shows between runs, not inside one.
        "peak_rss_mb": (worker["peak_rss_mb"], 1, 0.0),
    }
    return {
        metric: {"value": figures[metric][0], "unit": unit, "better": better,
                 "samples": figures[metric][1], "spread": figures[metric][2]}
        for metric, (unit, better) in spec.end_to_end.items()
    }


def run_workload(
    name: str, seed: int, scale: str, seconds: float, imports: Optional[List[float]],
    spec: Declared,
) -> Dict[str, object]:
    """Measure one workload in its own fresh subprocess; ``imports`` is None in a layer run."""
    layers = imports is None
    args = ["-m", "perf.worker", "--workload", name, "--seed", str(seed), "--scale", scale,
            "--seconds", str(seconds), "--out-dir", str(OUT_DIR)]
    worker = json.loads(_child(args + (["--layers"] if layers else [])).splitlines()[-1])
    worker["failed_share"] = worker["ops_failed"] / worker["ops"]
    if layers:
        measured = worker["layers"].pop("metrics")
        worker["per_layer"] = {
            metric: {"value": measured.get(metric), "unit": unit, "better": better}
            for metric, (unit, better) in spec.per_layer.items()
        }
    else:
        worker["import_s"] = imports
        worker["end_to_end"] = _end_to_end(worker, imports, spec)
    return worker


def provenance() -> Dict[str, object]:
    try:
        # The ceiling keeps git from reporting a repository that merely contains ROOT.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except OSError:
        sha = ""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - provenance is best effort
        numpy_version = "unknown"
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
    }


def _load_warning(load: float, nproc: int) -> Optional[str]:
    if load > nproc - 1:
        return (
            f"WARNING: 1-min load average {load:.2f} exceeds nproc - 1 = {nproc - 1}: "
            "host times in this result are noisy"
        )
    return None


def contract_line(result: Dict[str, object], layers: bool) -> Dict[str, object]:
    """The driver's view of one workload: correct/attempted/failed/metrics.

    Values on this line must be numbers, so a skipped probe reads 0 here; the
    result file keeps ``null`` and the reason under ``probes_skipped``.
    """
    section = result["per_layer"] if layers else result["end_to_end"]
    return {
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops"],
        "failed": result["ops_failed"],
        "metrics": {
            name: {"value": 0.0 if entry["value"] is None else entry["value"], "unit": entry["unit"]}
            for name, entry in section.items()
        },
    }


def _print_report(result: Dict[str, object], layers: bool) -> None:
    name = result["workload"]
    print(f"\n== {name}  (seed {result['seed']}, scale {result['scale']}, "
          f"{result['passes']} pass(es), {len(result['replays'])} replays/pass)")
    print(f"   ops {result['ops']}  ops_failed {result['ops_failed']}  "
          f"failed_share {result['failed_share']:.4f}  sim_fingerprint {result['sim_fingerprint'][:16]}")
    for failure in result["failures"]:
        print(f"   FAILED {failure['run']} {failure['replay']}: {'; '.join(failure['failed'])}")
    if not layers:
        for metric, entry in result["end_to_end"].items():
            spread = "n/a" if entry["spread"] is None else f"{entry['spread']:.1%}"
            print(f"   {metric:<22} {entry['value']:>14.4f} {entry['unit']:<8} "
                  f"({entry['better']} is better, {entry['samples']} samples, spread {spread})")
        return
    info = result["layers"]
    print(f"   trace_overhead_x {info['trace_overhead_x']:.2f}  trace file perf/out/{info['trace_file']}")
    for metric, entry in result["per_layer"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        reason = info["probes_skipped"].get(metric)
        print(f"   {metric:<44} {shown:>14} {entry['unit']:<6}" + (f"  skipped: {reason}" if reason else ""))
    for reason in info["counters_skipped"]:
        print(f"   counter skipped: {reason}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", default=[], help="workload name (repeatable)")
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="start no timed pass after this long (default: BENCHMARK.json "
                             "run_seconds); a layer run times one pass and ignores it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = --layers")
    parser.add_argument("--layers", action="store_true", help="per-layer run instead of end to end")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    # Measure this checkout's program, never a ``repro`` installed elsewhere.
    if not (ROOT / "src" / "repro" / "scenarios").is_dir():
        print(f"harness error: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        from perf.workloads import SIZES, WORKLOAD_NAMES
    except ImportError as exc:
        print(f"harness error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOAD_NAMES) if args.all else args.workload
    unknown = [name for name in names if name not in WORKLOAD_NAMES]
    if not names or unknown:
        parser.error(f"choose --all or --workload from {', '.join(WORKLOAD_NAMES)}")
    layers = args.layers or args.trace == 1
    spec = declared()
    seconds = float(spec.run_seconds) if args.seconds is None else args.seconds

    record = provenance()
    nproc = record["nproc"] or 1
    mode = "layers" if layers else "end_to_end"
    record.update(
        seed=args.seed, scale=args.scale, seconds=seconds, mode=mode,
        sizes=asdict(SIZES[args.scale]), started_utc=time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        load_1m_before=os.getloadavg()[0],
    )
    warnings = [_load_warning(record["load_1m_before"], nproc)]
    try:
        imports = None if layers else import_times(_IMPORT_REPEATS[args.scale])
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.scale, seconds, imports, spec)
            _print_report(results[name], layers)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 2
    record["load_1m_after"] = os.getloadavg()[0]
    warnings.append(_load_warning(record["load_1m_after"], nproc))
    record["warnings"] = [warning for warning in warnings if warning]
    for warning in record["warnings"]:
        print(warning)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"result-{mode}-{record['started_utc']}-{os.getpid()}.json"
    result_path.write_text(json.dumps({"provenance": record, "workloads": results}, indent=1))
    print(f"\nresult file: perf/out/{result_path.name}")
    lines = {name: contract_line(result, layers) for name, result in results.items()}
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
