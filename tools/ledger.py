#!/usr/bin/env python
"""The perf ledger: one ``BENCH_<nn>.json`` per merged PR, at the repo root.

    python tools/ledger.py RESULT.json --pr NN [--rev REV | --parent REV]  # add a row
    python tools/ledger.py --table   # print the trajectory
    python tools/ledger.py --diff    # the newest row against the one before

A row is a ``perf/run.py --all --layers`` result file copied as it is, with
its ``provenance``, plus a ``ledger`` block naming the PR, the measured
revision and the ``perf/`` tree that measured it.  ``--rev`` is required when
the result was taken outside a git checkout (a ``git archive`` copy), whose
provenance reads ``unknown``; it then also fills ``provenance.git_sha``, so
``perf/compare.py`` names both sides of a row diff::

    python perf/compare.py BENCH_<older>.json BENCH_<newer>.json

A PR's own row is measured before the PR is committed: ``--parent REV``
records the tree as uncommitted on top of ``REV`` (``rev`` is ``null``).

An older tree is measured with the *current* ``perf/``: extract the revision
with ``git archive``, replace its ``perf/`` and ``BENCHMARK.json`` with
today's, run ``PYTHONDONTWRITEBYTECODE=1 python perf/run.py --all --layers``
there and copy the result with ``--rev``.  A probe that cannot import on an
old tree reads ``null`` in its row.

``--table`` renders the rows as the Markdown tables ``docs/BENCHMARKS.md``
embeds between ``<!-- ledger:begin -->`` and ``<!-- ledger:end -->``;
``tools/docs_check.py`` fails when the two disagree.

``--diff`` runs ``perf/compare.py`` on the two newest rows and exits with its
status: 0 ok, 2 unresolved, 1 worse.  One exception: compare.py gates every
per-layer count at 0 % drift, profiler call counts (``<layer>.calls``)
included, and those move with any edit to the code they count.  When the
only ``worse`` rows are such call-count drifts, with every simulated counter,
``failed_share`` and end-to-end row passing, ``--diff`` says so and exits 0
(2 if a row is unresolved).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
WORKLOADS = ("edge-dataplane", "roaming-storm", "control-fleet", "bulk-hybrid", "bulk-packet")
_ROW_NAME = re.compile(r"BENCH_(\d+)\.json$")
_UNKNOWN_SHA = "unknown"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def row_paths(root: str = REPO_ROOT) -> List[str]:
    """Every committed row file, in PR order."""
    numbered = [
        (int(match.group(1)), path)
        for path in glob.glob(os.path.join(root, "BENCH_*.json"))
        for match in [_ROW_NAME.search(path)] if match
    ]
    return [path for _, path in sorted(numbered)]


def _read(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_rows(root: str = REPO_ROOT) -> List[Dict]:
    """Every committed row, in PR order."""
    return [_read(path) for path in row_paths(root)]


def make_row(result: Dict, pr: int, rev: Optional[str], parent: Optional[str] = None) -> Dict:
    """``result`` as a ledger row; refuses anything but a full ``--all --layers`` run.

    ``rev`` names the measured commit; ``parent`` instead says the measured
    tree was not committed yet and sits on top of that commit."""
    provenance = dict(result["provenance"])
    if provenance.get("mode") != "layers" or provenance.get("scale") != "full":
        raise ValueError("a ledger row is a full-scale `perf/run.py --all --layers` result")
    missing = [name for name in WORKLOADS if name not in result["workloads"]]
    if missing:
        raise ValueError(f"the result lacks workload(s) {', '.join(missing)}")
    measured = provenance.get("git_sha", "")
    if parent is not None:
        if rev is not None or not measured.startswith(_UNKNOWN_SHA):
            raise ValueError("--parent is for a result taken from an uncommitted git archive copy")
        base = _git("rev-parse", "--verify", f"{parent}^{{commit}}")
        provenance["git_sha"] = f"uncommitted on {base}"
        info = {"pr": pr, "rev": None, "parent": base, "subject": f"PR {pr}, uncommitted"}
    else:
        if rev is None:
            if measured.startswith(_UNKNOWN_SHA):
                raise ValueError("the result was taken outside a git checkout: name it with --rev")
            rev = measured
        sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
        if not measured.startswith(_UNKNOWN_SHA) and measured != sha:
            raise ValueError(f"--rev {rev} is {sha[:12]}, but the result measured {measured[:12]}")
        provenance["git_sha"] = sha
        info = {"pr": pr, "rev": sha, "subject": _git("log", "-1", "--format=%s", sha)}
    info["perf_tree"] = _git("rev-parse", "HEAD:perf")
    return {"ledger": info, "provenance": provenance, "workloads": result["workloads"]}


def _rev_cell(row: Dict) -> str:
    info = row["ledger"]
    return f"`{info['rev'][:7]}`" if info["rev"] else f"on `{info['parent'][:7]}`"


# ------------------------------------------------------------------- the diff


def _only_call_counts(row: Dict) -> bool:
    """A ``worse`` compare row that is nothing but profiler call counts drifting."""
    names = row.get("note", "").split(", ")
    return row["check"].endswith("exact counts") and all(name.endswith(".calls") for name in names)


def diff_status(base: Dict, other: Dict) -> Tuple[int, List[str]]:
    """``perf/compare.py``'s exit status for two rows, with call-count-only drift
    passing, and the call counts that moved."""
    sys.path.insert(0, REPO_ROOT)
    from perf.compare import compare
    from perf.metrics import declared

    rows = compare(base, other, declared())
    worse = [row for row in rows if row["verdict"] == "worse"]
    calls = sorted({name for row in worse if _only_call_counts(row) for name in row["note"].split(", ")})
    if any(not _only_call_counts(row) for row in worse):
        return 1, calls
    return (2 if any(row["verdict"] == "unresolved" for row in rows) else 0), calls


def diff_last_two(root: str = REPO_ROOT) -> int:
    paths = row_paths(root)[-2:]
    if len(paths) < 2:
        print("ledger: fewer than two rows, nothing to diff")
        return 0
    status = subprocess.run([sys.executable, os.path.join(root, "perf", "compare.py"), *paths]).returncode
    if status != 1:
        return status
    status, calls = diff_status(*(_read(path) for path in paths))
    if status != 1:
        print(f"ledger: only profiler call counts moved ({', '.join(calls)}); "
              "every simulated count, failed_share and end-to-end row passes")
    return status


# ------------------------------------------------------------------ the table


def _value(row: Dict, workload: str, metric: str) -> Optional[float]:
    entry = row["workloads"][workload]["per_layer"].get(metric)
    return None if entry is None else entry["value"]


def _cell(value: Optional[float], digits: int = 0) -> str:
    return "null" if value is None else f"{value:,.{digits}f}"


def _moved(row: Dict, previous: Optional[Dict]) -> str:
    """Workloads whose ``sim_fingerprint`` differs from the previous row's."""
    if previous is None:
        return "—"
    moved = [
        name for name in WORKLOADS
        if row["workloads"][name]["sim_fingerprint"] != previous["workloads"][name]["sim_fingerprint"]
    ]
    return ", ".join(moved) if moved else "none"


def trajectory_table(rows: List[Dict]) -> str:
    """Two Markdown tables: exact simulated columns, then host columns."""
    header = "| PR | rev | " + " | ".join(f"`{name}`" for name in WORKLOADS)
    exact = [
        "Simulated events (`netem.simulator.events`); they repeat exactly on any host.",
        "",
        header + " | `edge-dataplane` events/packet | `edge-dataplane` fast-path hits"
        " | `bulk-hybrid` fluid epochs | fingerprint moved on |",
        "|---" * (len(WORKLOADS) + 6) + "|",
    ]
    host = [
        "`peak_rss_mb` of each layer run (one reference pass, one traced pass and the"
        " probes), then `bulk-hybrid` `scenarios.runner.finalize_s`; host-dependent.",
        "",
        header + " | `bulk-hybrid` finalize_s |",
        "|---" * (len(WORKLOADS) + 3) + "|",
    ]
    previous = None
    for row in rows:
        head = f"| {row['ledger']['pr']} | {_rev_cell(row)} | "
        events = [_cell(_value(row, name, "netem.simulator.events")) for name in WORKLOADS]
        exact.append(head + " | ".join(events) + " | " + " | ".join([
            _cell(_value(row, "edge-dataplane", "netem.simulator.events_per_packet"), 3),
            _cell(_value(row, "edge-dataplane", "netem.switch.fastpath_hit_ratio"), 3),
            _cell(_value(row, "bulk-hybrid", "netem.fluid.epochs")),
            _moved(row, previous),
        ]) + " |")
        rss = [_cell(row["workloads"][name]["peak_rss_mb"], 1) for name in WORKLOADS]
        finalize = _cell(_value(row, "bulk-hybrid", "scenarios.runner.finalize_s"), 2)
        host.append(head + " | ".join(rss) + f" | {finalize} |")
        previous = row
    return "\n".join(exact + [""] + host) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("result", nargs="?", help="a perf/run.py --all --layers result file")
    parser.add_argument("--pr", type=int, help="the PR the row belongs to")
    parser.add_argument("--rev", help="the measured revision (required outside a git checkout)")
    parser.add_argument("--parent", help="the measured tree is uncommitted, on top of this revision")
    parser.add_argument("--table", action="store_true", help="print the trajectory tables")
    parser.add_argument("--diff", action="store_true", help="compare the two newest rows")
    args = parser.parse_args(argv)
    if args.diff:
        return diff_last_two()
    if args.table:
        sys.stdout.write(trajectory_table(load_rows()))
        return 0
    if args.result is None or args.pr is None:
        parser.error("give a result file and --pr, or --table")
    with open(args.result, encoding="utf-8") as handle:
        result = json.load(handle)
    try:
        row = make_row(result, args.pr, args.rev, args.parent)
    except ValueError as error:
        parser.error(str(error))
    path = os.path.join(REPO_ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(row, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, REPO_ROOT)} ({row['provenance']['git_sha']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
