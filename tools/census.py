#!/usr/bin/env python
"""Which ``src/`` functions a sweep of real runs never calls.

    python tools/census.py

Replays every run of :func:`sweep` under a ``sys.setprofile`` hook that
records each Python code object entered, then prints every ``def`` under
``src/repro/`` whose code never ran: by file, with its first line, its
qualified name and its length in lines, and the total.  A name-based search
misses what is reached only through ``getattr``, a callback or a property,
and cannot tell a function whose only caller is itself never called; this
sees what actually ran.

The sweep is every canned scenario at seed 0 in packet mode, plus
``bulk-backhaul`` in hybrid mode, ``commuter-rush`` and
``bundle-rolling-upgrade`` at 2 regions x 4 shards, ``hotspot-stadium`` at
4 shards with least-loaded placement and ``slo-tight-embedding`` (an
embedding scenario) at 4 shards.  A function on the list is not dead by
that alone: oracles, error paths, the paper's UI and API used only by tests
never run in a scenario.  The script finds the checkout's own ``src/``, so
it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import defaultdict
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: One replay: a canned scenario's name and its deployment overrides.
Run = Tuple[str, Dict[str, object]]

#: The runs besides every canned scenario at seed 0 in packet mode.
EXTRA_RUNS: Tuple[Run, ...] = (
    ("bulk-backhaul", {"simulation_mode": "hybrid"}),
    ("commuter-rush", {"region_count": 2, "shard_count": 4}),
    ("bundle-rolling-upgrade", {"region_count": 2, "shard_count": 4}),
    ("hotspot-stadium", {"shard_count": 4, "placement_strategy": "least-loaded"}),
    ("slo-tight-embedding", {"shard_count": 4}),
)


class Uncalled(NamedTuple):
    path: str  # relative to the repository root
    line: int
    qualname: str
    lines: int


def _library():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.scenarios import library

    return library


def sweep() -> List[Run]:
    """Every canned scenario at seed 0, then :data:`EXTRA_RUNS`."""
    return [(name, {}) for name in _library().scenario_names()] + list(EXTRA_RUNS)


def _defs(path: str) -> List[Tuple[int, str, int]]:
    """``(first line, qualified name, lines)`` of every ``def`` in a file.

    The first line is the first decorator's, which is what a decorated
    function's code object reports as ``co_firstlineno``.
    """
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    found: List[Tuple[int, str, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((first, name, child.end_lineno - first + 1))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def census(runs: Sequence[Run]) -> List[Uncalled]:
    """Replay ``runs`` and return the ``src/repro`` defs none of them entered,
    ordered by file and line."""
    library = _library()
    entered: Set[object] = set()
    add = entered.add

    def hook(frame, event, arg) -> None:
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile()
    for name, overrides in runs:
        sys.setprofile(hook)
        try:
            library.run_scenario(name, seed=0, **overrides)
        finally:
            sys.setprofile(previous)
    called = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}
    uncalled: List[Uncalled] = []
    for directory, _, files in os.walk(PACKAGE):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            real = os.path.realpath(path)
            relative = os.path.relpath(path, REPO_ROOT)
            for first, qualname, lines in _defs(path):
                if (real, first) not in called:
                    uncalled.append(Uncalled(relative, first, qualname, lines))
    return sorted(uncalled)


def main() -> int:
    runs = sweep()
    uncalled = census(runs)
    by_file: Dict[str, List[Uncalled]] = defaultdict(list)
    for entry in uncalled:
        by_file[entry.path].append(entry)
    for path, entries in by_file.items():
        print(f"{path}: {len(entries)} functions, {sum(e.lines for e in entries)} lines")
        for entry in entries:
            print(f"  {entry.line:5d}  {entry.qualname}  ({entry.lines} lines)")
    print(
        f"total: {len(uncalled)} functions, {sum(e.lines for e in uncalled)} lines "
        f"never called in {len(runs)} runs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
