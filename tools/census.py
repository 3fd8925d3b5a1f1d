#!/usr/bin/env python
"""Which ``src/`` functions a sweep of real runs never calls.

    python tools/census.py

Replays every run of :func:`sweep` and every example of :data:`EXAMPLES`
under a ``sys.setprofile`` hook that records each Python code object
entered, then prints every ``def`` under ``src/repro/`` whose code never
ran: by file, with its first line, its qualified name and its length in
lines, and the total.  It exits 1 when one of them is missing from
:data:`ALLOWLIST`, ``tests/golden/uncalled.json``: ``{"path::qualname":
reason}``, each reason one of :data:`REASONS`.  A name-based search
misses what is reached only through ``getattr``, a callback or a property,
and cannot tell a function whose only caller is itself never called; this
sees what actually ran.

The sweep is every canned scenario at seed 0 in packet mode, plus
``bulk-backhaul`` in hybrid mode, ``commuter-rush`` and
``bundle-rolling-upgrade`` at 2 regions x 4 shards, ``hotspot-stadium`` at
4 shards with least-loaded placement, ``slo-tight-embedding`` (an
embedding scenario) at 4 shards, and ``hotspot-stadium`` and
``autoscale-daily-wave`` with admission control on (queue timeouts and a
dispatch from the queue).  The examples run with their stdout captured.
A function on the list is not dead by that alone: oracles, error paths, the
paper's UI and API used only by tests never run in a scenario; the
allowlist says which of those each one is.

A static half, read from the source text alone, then lists what the
runtime list cannot see: :func:`write_only_attributes`, state that
``src/repro`` writes on every heartbeat or packet and no code ever reads,
and :func:`unbuilt_classes`, classes that nothing names.  The script finds
the checkout's own ``src/``, so it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import os
import re
import runpy
import sys
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Where a read of an attribute or a mention of a class may sit.
READ_DIRS = ("src", "tests", "benchmarks", "examples", "perf", "tools")

#: One replay: a canned scenario's name and its deployment overrides.
Run = Tuple[str, Dict[str, object]]

#: The runs besides every canned scenario at seed 0 in packet mode.
EXTRA_RUNS: Tuple[Run, ...] = (
    ("bulk-backhaul", {"simulation_mode": "hybrid"}),
    ("commuter-rush", {"region_count": 2, "shard_count": 4}),
    ("bundle-rolling-upgrade", {"region_count": 2, "shard_count": 4}),
    ("hotspot-stadium", {"shard_count": 4, "placement_strategy": "least-loaded"}),
    ("slo-tight-embedding", {"shard_count": 4}),
    ("hotspot-stadium", {"admission_control": True}),
    ("autoscale-daily-wave", {"admission_control": True}),
)


#: The examples the sweep runs too, each with its command-line arguments.
EXAMPLES: Tuple[Tuple[str, ...], ...] = (
    ("quickstart.py",),
    ("roaming_demo.py",),
    ("service_chaining.py",),
    ("edge_dashboard.py",),
    ("run_scenario.py", "--list-bundles"),
)

#: The never-called defs that stay, each with its reason.
ALLOWLIST = os.path.join(REPO_ROOT, "tests", "golden", "uncalled.json")

#: Why a def that no sweep run enters may stay.
REASONS = (
    "oracle",
    "error path",
    "paper UI",
    "test-only API",
    "bench/example API",
    "probe hook",
    "protocol stub",
    "debug repr",
)


class Uncalled(NamedTuple):
    path: str  # relative to the repository root, with ``/`` separators
    line: int
    qualname: str
    lines: int

    @property
    def key(self) -> str:
        """How :data:`ALLOWLIST` names this def."""
        return f"{self.path}::{self.qualname}"


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


def _run_example(script: str, *argv: str) -> None:
    """Run ``examples/<script>`` as ``__main__`` with ``argv``, stdout captured."""
    saved = sys.argv
    sys.argv = [script, *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(os.path.join(REPO_ROOT, "examples", script), run_name="__main__")
    except SystemExit as exit:
        if exit.code:
            raise
    finally:
        sys.argv = saved


def census(
    runs: Optional[Sequence[Run]] = None, examples: Sequence[Tuple[str, ...]] = ()
) -> List[Uncalled]:
    """Replay ``runs`` (default: :func:`sweep`) and ``examples`` and return the
    ``src/repro`` defs none of them entered, ordered by file and line.

    The scenario library is first imported under the hook, so what runs at
    import (scenario registration) counts as entered when nothing imported
    it before.
    """
    entered: Set[object] = set()
    add = entered.add

    def hook(frame, event, arg) -> None:
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        library = _library()
        runs = sweep() if runs is None else runs
    finally:
        sys.setprofile(previous)
    jobs = [functools.partial(library.run_scenario, name, seed=0, **overrides) for name, overrides in runs]
    jobs += [functools.partial(_run_example, *example) for example in examples]
    for job in jobs:
        sys.setprofile(hook)
        try:
            job()
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
            relative = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
            for first, qualname, lines in _defs(path):
                if (real, first) not in called:
                    uncalled.append(Uncalled(relative, first, qualname, lines))
    return sorted(uncalled)


def _python_files(directory: str) -> List[str]:
    return sorted(
        os.path.join(root, filename)
        for root, _, files in os.walk(directory)
        for filename in files
        if filename.endswith(".py")
    )


def _mentions(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """``(loaded, named)`` of one file, in one walk.

    ``loaded`` holds the attribute names the file reads, ``named`` every
    identifier it uses (names, attributes, imported names).  Both hold the
    file's string constants, because ``getattr`` reads by name; a docstring
    (any bare string statement) and the names a ``__slots__`` declares do not
    count.  The walk is breadth-first, so a statement is seen before its
    strings.
    """
    loaded: Set[str] = set()
    named: Set[str] = set()
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Attribute:
            named.add(node.attr)
            if type(node.ctx) is ast.Load:
                loaded.add(node.attr)
        elif kind is ast.Name:
            named.add(node.id)
        elif kind is ast.Constant:
            if type(node.value) is str and id(node) not in skipped:
                loaded.add(node.value)
                named.add(node.value)
        elif kind is ast.alias:
            named.add(node.name.rpartition(".")[2])
        elif kind is ast.Expr:
            skipped.add(id(node.value))
        elif kind is ast.Assign and any(
            type(target) is ast.Name and target.id == "__slots__" for target in node.targets
        ):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    return loaded, named


def _written(tree: ast.Module, module: str) -> Set[Tuple[str, str]]:
    """``(owner, attribute)`` for every ``x.attr =`` (``+=`` included) and
    every annotated class-body field; the owner is the enclosing class, or
    the module outside one."""
    found: Set[Tuple[str, str]] = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for statement in child.body:
                    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                        found.add((child.name, statement.target.id))
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                found.add((owner, child.attr))
            visit(child, owner)

    visit(tree, module)
    return found


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@functools.lru_cache(maxsize=None)
def _static_census() -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Both static lists from one pass over the sources.

    Every ``src/repro`` file is parsed.  Any other file is parsed only when
    its text holds, as a word, a name that is still unread or unnamed: a
    file that never spells a name cannot read it.
    """
    written: Set[Tuple[str, str]] = set()
    defined: List[Tuple[str, int, str]] = []
    loaded: Set[str] = set()
    named: Set[str] = set()
    others: List[Tuple[str, str]] = []
    for directory in READ_DIRS:
        for path in _python_files(os.path.join(REPO_ROOT, directory)):
            with open(path) as handle:
                text = handle.read()
            if not path.startswith(PACKAGE + os.sep):
                others.append((path, text))
                continue
            tree = ast.parse(text, path)
            written |= _written(tree, os.path.splitext(os.path.basename(path))[0])
            relative = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
            defined.extend(
                (relative, node.lineno, node.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
            )
            file_loaded, file_named = _mentions(tree)
            loaded |= file_loaded
            if os.path.basename(path) != "__init__.py":
                named |= file_named
    unread = {name for _, name in written} - loaded
    unnamed = {name for _, _, name in defined} - named
    for path, text in others:
        words = set(_WORD.findall(text))
        if unread.isdisjoint(words) and unnamed.isdisjoint(words):
            continue
        file_loaded, file_named = _mentions(ast.parse(text, path))
        unread -= file_loaded
        if os.path.basename(path) != "__init__.py":
            unnamed -= file_named
    return (
        tuple(sorted(f"{owner}.{name}" for owner, name in written if name in unread)),
        tuple(f"{path}:{line} {name}" for path, line, name in sorted(defined) if name in unnamed),
    )


def write_only_attributes() -> List[str]:
    """``Owner.attr`` for each attribute ``src/repro`` writes and no file
    under :data:`READ_DIRS` ever loads, by name or as a string."""
    return list(_static_census()[0])


def unbuilt_classes() -> List[str]:
    """``path:line Name`` for each ``src/repro`` class whose name appears
    nowhere but on its own ``class`` line and in ``__init__.py`` re-exports."""
    return list(_static_census()[1])


def allowlist() -> Dict[str, str]:
    """:data:`ALLOWLIST`: ``{"path::qualname": reason}``."""
    with open(ALLOWLIST) as handle:
        return json.load(handle)


def main() -> int:
    uncalled = census(examples=EXAMPLES)
    by_file: Dict[str, List[Uncalled]] = defaultdict(list)
    for entry in uncalled:
        by_file[entry.path].append(entry)
    for path, entries in by_file.items():
        print(f"{path}: {len(entries)} functions, {sum(e.lines for e in entries)} lines")
        for entry in entries:
            print(f"  {entry.line:5d}  {entry.qualname}  ({entry.lines} lines)")
    print(
        f"total: {len(uncalled)} functions, {sum(e.lines for e in uncalled)} lines "
        f"never called in {len(sweep())} runs and {len(EXAMPLES)} examples"
    )
    written = write_only_attributes()
    print(f"write-only attributes: {len(written)}")
    for name in written:
        print(f"  {name}")
    unbuilt = unbuilt_classes()
    print(f"never-built classes: {len(unbuilt)}")
    for entry in unbuilt:
        print(f"  {entry}")
    allowed = allowlist()
    missing = [entry for entry in uncalled if entry.key not in allowed]
    print(f"never called and not in {os.path.relpath(ALLOWLIST, REPO_ROOT)}: {len(missing)}")
    for entry in missing:
        print(f"  {entry.key}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
