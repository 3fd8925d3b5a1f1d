#!/usr/bin/env python
"""Alternating parent/change runs of one perf workload: the paired protocol.

    python tools/paired_bench.py --parent <rev-or-dir> --change <rev-or-dir> \\
        --workload W [--pairs 10] [--seed S] [--scale full|tiny]

A side given as a directory is measured in place; a revision is materialised
with ``git worktree`` under a temp dir that is removed afterwards.  Each pair
runs ``python perf/run.py --workload W`` once per side, and which side goes
first alternates from pair to pair.  One ``--layers`` run per side follows
for the simulated counters.  Only the last-line JSON of ``perf/run.py`` and
the result file it names are read; ``perf/`` is used as found on each side.

Printed per side: median and quartiles of each end-to-end metric, the
change's wins/ties/losses per pair, and whether ``sim_fingerprint`` and the
simulated counters are equal.  Exit status 1 when a fingerprint differs, 0
otherwise.  Whether a difference is a speed-up is for the reader to judge.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from statistics import median, quantiles
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SIDES = ("parent", "change")
#: Units of host times and rates; a per-layer metric in any other unit is simulated.
HOST_UNITS = frozenset({"s", "1/s"})


# ------------------------------------------------------------------ statistics


def pair_order(pair_index: int) -> Tuple[str, str]:
    """Which side runs first in pair ``pair_index``: parent on even, change on odd."""
    return SIDES if pair_index % 2 == 0 else SIDES[::-1]


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` with the quartiles inside the sample range."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = quantiles(samples, n=4, method="inclusive")
    return q1, median(samples), q3


def tally(parent: List[float], change: List[float], better: str) -> Dict[str, int]:
    """The change's wins/ties/losses over the pairs; a tie counts for neither."""
    counts = {"wins": 0, "ties": 0, "losses": 0}
    for before, after in zip(parent, change):
        if after == before:
            counts["ties"] += 1
        elif (after < before) == (better == "lower"):
            counts["wins"] += 1
        else:
            counts["losses"] += 1
    return counts


def simulated_counters(layer_metrics: Dict[str, Dict]) -> Dict[str, float]:
    """The per-layer metrics that are simulated work: not host time, not profiler call counts."""
    return {
        name: entry["value"]
        for name, entry in layer_metrics.items()
        if entry["unit"] not in HOST_UNITS and not name.endswith(".calls")
    }


def summarise(
    runs: Dict[str, List[Dict]], layer_runs: Dict[str, Dict]
) -> Dict[str, object]:
    """Fold the per-side run records into the report (pure; takes canned JSON).

    ``runs[side]`` holds one ``{"metrics", "better", "sim_fingerprint"}`` per
    pair, ``layer_runs[side]`` one ``{"metrics", "sim_fingerprint"}``.
    """
    metrics: Dict[str, Dict[str, object]] = {}
    for name, better in runs["parent"][0]["better"].items():
        samples = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        metrics[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "better": better,
            **{side: quartiles(samples[side]) for side in SIDES},
            **tally(samples["parent"], samples["change"], better),
        }
    fingerprints = {
        run["sim_fingerprint"] for side in SIDES for run in (*runs[side], layer_runs[side])
    }
    counters = {side: simulated_counters(layer_runs[side]["metrics"]) for side in SIDES}
    return {
        "metrics": metrics,
        "fingerprint_equal": len(fingerprints) == 1,
        "counters": len(counters["parent"]),
        "counters_differing": sorted(
            name for name in counters["parent"]
            if counters["parent"][name] != counters["change"].get(name)
        ),
    }


# --------------------------------------------------------------------- running


@contextmanager
def checkout(spec: str, scratch: str, side: str) -> Iterator[str]:
    """The directory to measure ``spec`` in: itself, or a temp worktree of the revision."""
    if os.path.isdir(spec):
        yield os.path.abspath(spec)
        return
    path = os.path.join(scratch, side)
    subprocess.run(["git", "worktree", "add", "--detach", path, spec], cwd=REPO_ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    try:
        yield path
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", path], cwd=REPO_ROOT, check=False)


def run_once(directory: str, arguments: List[str]) -> Dict[str, object]:
    """One ``perf/run.py`` invocation in ``directory``: its contract line plus its result file."""
    done = subprocess.run(
        [sys.executable, "perf/run.py", *arguments], cwd=directory, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"perf/run.py failed in {directory} ({done.returncode}):\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    line = json.loads(lines[-1])
    named = next(text for text in reversed(lines) if text.startswith("result file: "))
    with open(os.path.join(directory, named.split(": ", 1)[1])) as handle:
        (result,) = json.load(handle)["workloads"].values()
    return {
        "metrics": line["metrics"],
        "failed": line["failed"],
        "sim_fingerprint": result["sim_fingerprint"],
        "better": {name: entry["better"] for name, entry in result.get("end_to_end", {}).items()},
    }


def _print_report(report: Dict[str, object], failed: Dict[str, int], pairs: int) -> None:
    for name, row in report["metrics"].items():
        print(f"{name} [{row['unit']}, {row['better']} is better]")
        for side in SIDES:
            q1, mid, q3 = row[side]
            print(f"   {side:<7} median {mid:>12.4f}   quartiles {q1:>12.4f} .. {q3:<12.4f}")
        print(f"   change wins {row['wins']}/{pairs}, ties {row['ties']}, losses {row['losses']}")
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    print(f"sim_fingerprint: {'equal' if report['fingerprint_equal'] else 'DIFFERENT'}")
    differing = report["counters_differing"]
    print(f"{report['counters']} simulated counters: "
          + (f"DIFFERENT ({', '.join(differing)})" if differing else "equal"))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, help="revision or directory of the base")
    parser.add_argument("--change", required=True, help="revision or directory of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    arguments = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]

    scratch = tempfile.mkdtemp(prefix="paired-bench-")
    try:
        with checkout(args.parent, scratch, "parent") as parent_dir, \
                checkout(args.change, scratch, "change") as change_dir:
            directories = {"parent": parent_dir, "change": change_dir}
            runs: Dict[str, List[Dict]] = {side: [] for side in SIDES}
            for pair_index in range(args.pairs):
                for side in pair_order(pair_index):
                    runs[side].append(run_once(directories[side], arguments))
                print(f"pair {pair_index + 1}/{args.pairs}: " + ", ".join(
                    f"{side} run_wall_s {runs[side][-1]['metrics']['run_wall_s']['value']:.3f}"
                    for side in pair_order(pair_index)), flush=True)
            layer_runs = {side: run_once(directories[side], [*arguments, "--layers"]) for side in SIDES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report = summarise(runs, layer_runs)
    failed = {side: sum(run["failed"] for run in (*runs[side], layer_runs[side])) for side in SIDES}
    _print_report(report, failed, args.pairs)
    return 0 if report["fingerprint_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
