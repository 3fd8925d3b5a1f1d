#!/usr/bin/env python
"""The golden digest matrix: every canned scenario's replay, pinned in a file.

    python tools/digests.py --check   # replay every cell, compare with the file
    python tools/digests.py --write   # replay every cell, rewrite the file

A cell is one canned scenario at one seed in one simulation mode: every
scenario at seeds 0 and 1 in ``packet`` mode, plus ``bulk-backhaul`` at
seeds 0 and 1 in ``hybrid`` mode (the one scenario whose bulk flows the
fluid core lifts).  Each cell records the telemetry digest, the simulator
events processed and the final simulated time in ``tests/golden/digests.json``.

The cells replay over a ``multiprocessing`` pool of ``PROCESSES`` fresh
interpreters.  ``--check`` prints each cell that moved and exits
1 when any did; a change that moves a digest on purpose rewrites the file
with ``--write`` and names the moved cells in its change log.  The script
finds the checkout's own ``src/``, so it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO_ROOT, "src")
GOLDEN_PATH = os.path.join(REPO_ROOT, "tests", "golden", "digests.json")
SEEDS = (0, 1)
#: The scenarios whose bulk traffic the hybrid core lifts get hybrid cells too.
HYBRID_SCENARIOS = ("bulk-backhaul",)
#: Replay processes.  Each holds one scenario's testbed (tens of MB); two
#: replay the matrix in about 15 s on a 2-core machine.
PROCESSES = 2

Cell = Tuple[str, int, str]


def _import_library():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.scenarios import library

    return library


def cells() -> List[Cell]:
    """Every ``(scenario, seed, simulation_mode)`` the matrix replays."""
    library = _import_library()
    packet = [(name, seed, "packet") for name in library.scenario_names() for seed in SEEDS]
    hybrid = [(name, seed, "hybrid") for name in HYBRID_SCENARIOS for seed in SEEDS]
    return packet + hybrid


def cell_key(cell: Cell) -> str:
    name, seed, mode = cell
    return f"{name}/seed-{seed}/{mode}"


def replay(cell: Cell) -> Tuple[str, Dict[str, object]]:
    """Run one cell and return its key and its ``(digest, events, sim time)``."""
    name, seed, mode = cell
    result = _import_library().run_scenario(name, seed=seed, simulation_mode=mode)
    return cell_key(cell), {
        "digest": result.digest.hexdigest,
        "events_processed": result.events_processed,
        "final_sim_time_s": result.testbed.simulator.now,
    }


def replay_all() -> Dict[str, Dict[str, object]]:
    with multiprocessing.get_context("spawn").Pool(processes=PROCESSES) as pool:
        return dict(pool.map(replay, cells(), chunksize=1))


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[str, object]]:
    with open(path) as handle:
        return json.load(handle)


def moved_cells(
    golden: Dict[str, Dict[str, object]], replayed: Dict[str, Dict[str, object]]
) -> List[str]:
    """One line per cell that is missing, extra or different."""
    lines = []
    for key in sorted(set(golden) | set(replayed)):
        if key not in replayed:
            lines.append(f"{key}: in the file, not replayed")
        elif key not in golden:
            lines.append(f"{key}: replayed, not in the file")
        elif golden[key] != replayed[key]:
            fields = sorted(
                name for name in golden[key] if golden[key][name] != replayed[key].get(name)
            )
            lines.append(
                f"{key}: "
                + ", ".join(f"{name} {golden[key][name]!r} -> {replayed[key].get(name)!r}" for name in fields)
            )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="compare every cell with the file")
    action.add_argument("--write", action="store_true", help="rewrite the file from a fresh replay")
    args = parser.parse_args(argv)
    replayed = replay_all()
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(replayed, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(replayed)} cells to {os.path.relpath(GOLDEN_PATH, REPO_ROOT)}")
        return 0
    moved = moved_cells(load_golden(), replayed)
    for line in moved:
        print(line)
    print(f"{len(replayed)} cells replayed, {len(moved)} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
