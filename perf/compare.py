#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py``: ``python perf/compare.py A.json B.json``.

A is the base.  Per workload, every end-to-end metric gets a row with both
values, the ratio B/A, the regression bound from ``BENCHMARK.json`` and a
verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``worse``       it is, or B has failed ops (a failed replay is dropped from
                  the sums, so B's times would read better than they are);
* ``unresolved``  the spread between A's own passes already exceeds the
                  bound (or A has a single pass), so the pair cannot tell:
                  take more sets, alternating A and B.

``failed_share`` may not rise at all.  When both files come from a layer run,
every per-layer metric that is simulated work (any unit but ``s`` and ``1/s``)
is gated at 0 % drift: it repeats exactly for one commit and seed.
``sim_fingerprint`` is reported as same or different.  Exit status: 0 all ok,
1 something is worse or a counter drifted, 2 nothing worse but something
unresolved.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
# As in run.py: perf/ itself must not be on the path (its trace.py would
# shadow the stdlib module); the harness is imported as the package ``perf``.
sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != PERF_DIR]
sys.path[:0] = [str(PERF_DIR.parent)]

from perf.metrics import Declared, declared  # noqa: E402 - needs the path above


def worsening(base: float, other: float, better: str) -> float:
    """By which share of ``base`` is ``other`` worse (negative = better)."""
    if base == 0:
        change = 0.0 if other == 0 else math.copysign(math.inf, other)
    else:
        change = (other - base) / base
    return change if better == "lower" else -change


def verdict(base: Dict, other: Dict, bound: float, other_failed: bool) -> str:
    if other_failed:
        return "worse"
    if base["spread"] is None or base["spread"] > bound:  # None: a single pass
        return "unresolved"
    return "worse" if worsening(base["value"], other["value"], base["better"]) > bound else "ok"


def compare(a: Dict, b: Dict, spec: Declared) -> List[Dict[str, object]]:
    """One row per (workload, check); ``verdict`` is ok / worse / unresolved / info."""
    rows: List[Dict[str, object]] = []
    for name, base in a["workloads"].items():
        other = b["workloads"].get(name)
        if other is None:
            rows.append({"workload": name, "check": "present in B", "verdict": "worse"})
            continue
        # A layer run carries no end-to-end section (it times one reference pass).
        timed = base["end_to_end"] if "end_to_end" in base and "end_to_end" in other else {}
        for metric, entry in timed.items():
            bound = spec.bounds[metric]
            rows.append({
                "workload": name, "check": metric, "a": entry["value"],
                "b": other["end_to_end"][metric]["value"], "unit": entry["unit"],
                "bound": bound, "spread_a": entry["spread"],
                "verdict": verdict(entry, other["end_to_end"][metric], bound, other["ops_failed"] > 0),
            })
        rows.append({
            "workload": name, "check": "failed_share", "a": base["failed_share"],
            "b": other["failed_share"], "unit": "ratio", "bound": 0.0,
            "verdict": "worse" if other["failed_share"] > base["failed_share"] else "ok",
        })
        same = base["sim_fingerprint"] == other["sim_fingerprint"]
        rows.append({
            "workload": name, "check": "sim_fingerprint", "verdict": "info",
            "note": "same" if same else "different",
        })
        if "per_layer" in base and "per_layer" in other:
            drifted = [
                counter for counter in spec.exact
                if base["per_layer"][counter]["value"] != other["per_layer"][counter]["value"]
            ]
            rows.append({
                "workload": name, "check": f"{len(spec.exact)} exact counts",
                "verdict": "worse" if drifted else "ok",
                "note": ", ".join(drifted) if drifted else "identical",
            })
    return rows


def _format(row: Dict[str, object]) -> str:
    head = f"{row['workload']:<15} {row['check']:<20}"
    if "a" not in row:
        return f"{head} {'':>46} {row['verdict']:<10} {row.get('note', '')}"
    ratio = f"{row['b'] / row['a']:>6.3f}" if row["a"] else "   n/a"
    spread = ""
    if "spread_a" in row:
        spread = " spread(A) " + ("n/a" if row["spread_a"] is None else f"{row['spread_a']:.1%}")
    return (
        f"{head} {row['a']:>12.4f} {row['b']:>12.4f} {row['unit']:<8} "
        f"B/A {ratio} bound {row['bound']:.0%}  {row['verdict']:<10}{spread}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(a, b, declared())
    print(f"A = {argv[0]}  ({a['provenance']['git_sha'][:12]}, seed {a['provenance']['seed']})")
    print(f"B = {argv[1]}  ({b['provenance']['git_sha'][:12]}, seed {b['provenance']['seed']})")
    for row in rows:
        print(_format(row))
    verdicts = {row["verdict"] for row in rows}
    status = 1 if "worse" in verdicts else 2 if "unresolved" in verdicts else 0
    print({0: "verdict: ok", 1: "verdict: worse", 2: "verdict: unresolved"}[status])
    return status


if __name__ == "__main__":
    sys.exit(main())
