#!/usr/bin/env python
"""Where each added bulk client's bytes go: the footprint guards, attributed.

    python tools/footprint.py

Builds the hybrid bulk storm of ``tests/test_footprint.py`` at 200 and at
600 clients, exactly as that test does, and prints the two figures it
bounds: the bytes still allocated after ``advance(8)`` per added client, and
how far above them ``finalize()`` peaks per added client.  Then it prints,
per added client, the ``TOP`` source lines that hold most of the retained
difference between the two sizes (``tracemalloc`` ``compare_to("lineno")``),
and the ``TOP`` lines that gain most from what ``finalize()`` leaves
allocated with its result held (a snapshot before it, one after it, and the
two sizes' differences subtracted).  Last, it runs the test's churn guard
(100 and 1 000 attach/detach cycles) and prints the bytes each cycle leaves
retained and, per cycle, the ``TOP`` lines that hold them.  The script finds
the checkout's own ``src/``, so it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from typing import Dict, List, NamedTuple, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
for _path in (os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import test_footprint  # noqa: E402 - the storm spec and the measurement, not a copy

SMALL, LARGE = 200, 600
CHURN_SMALL, CHURN_LARGE = 100, 1_000
TOP = 15

#: ``(bytes per added client, blocks per added client, "path:line")``.
Line = Tuple[float, float, str]


class Attribution(NamedTuple):
    retained_per_client: float
    finalize_per_client: float
    #: The retained difference, largest first.
    lines: List[Line]
    #: What ``finalize()`` leaves allocated, largest gain first.
    finalize_lines: List[Line]


class ChurnAttribution(NamedTuple):
    retained_per_cycle: float
    #: The retained difference per cycle, largest first.
    lines: List[Line]


def _by_line(after: tracemalloc.Snapshot, before: tracemalloc.Snapshot) -> Dict[str, Tuple[int, int]]:
    """``"path:line" -> (bytes, blocks)`` gained from ``before`` to ``after``."""
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]  # the snapshots' own bytes
    gained = {}
    for diff in after.filter_traces(own).compare_to(before.filter_traces(own), "lineno"):
        frame = diff.traceback[0]
        where = f"{os.path.relpath(frame.filename, REPO_ROOT)}:{frame.lineno}"
        gained[where] = (diff.size_diff, diff.count_diff)
    return gained


def _per_added(
    large: Dict[str, Tuple[int, int]], small: Dict[str, Tuple[int, int]], added: int, top: int
) -> List[Line]:
    """The ``top`` lines that gain most bytes from ``small`` to ``large``, per added client."""
    lines = []
    for where in large.keys() | small.keys():
        size_large, count_large = large.get(where, (0, 0))
        size_small, count_small = small.get(where, (0, 0))
        if size_large > size_small:
            lines.append(((size_large - size_small) / added, (count_large - count_small) / added, where))
    lines.sort(reverse=True)
    return lines[:top]


def attribute(small: int = SMALL, large: int = LARGE, top: int = TOP) -> Attribution:
    """The test's two figures at ``small`` vs ``large`` clients, and the ``top``
    source lines of the retained difference and of what ``finalize()`` leaves
    (from two more runs, so that the snapshots cannot move the figures)."""
    figures = [test_footprint._per_added_client(index, small, large) for index in (0, 1)]
    runs = [test_footprint.measure(clients, snapshot=True) for clients in (small, large)]
    empty = tracemalloc.Snapshot((), 1)
    retained = [_by_line(run.before_finalize, empty) for run in runs]
    finalized = [_by_line(run.after_finalize, run.before_finalize) for run in runs]
    added = large - small
    return Attribution(
        figures[0],
        figures[1],
        _per_added(retained[1], retained[0], added, top),
        _per_added(finalized[1], finalized[0], added, top),
    )


def attribute_churn(small: int = CHURN_SMALL, large: int = CHURN_LARGE, top: int = TOP) -> ChurnAttribution:
    """The churn guard's figure at ``small`` vs ``large`` cycles, and the ``top``
    source lines of the retained difference (from two more runs, snapshotted)."""
    figure = test_footprint._per_churn_cycle(small, large)
    runs = [test_footprint.measure_churn(cycles, snapshot=True) for cycles in (small, large)]
    empty = tracemalloc.Snapshot((), 1)
    retained = [_by_line(run.snapshot, empty) for run in runs]
    return ChurnAttribution(figure, _per_added(retained[1], retained[0], large - small, top))


def main() -> int:
    report = attribute()
    print(f"hybrid bulk storm, {SMALL} vs {LARGE} clients, per added client:")
    print(f"  retained after advance(8): {report.retained_per_client:8.1f} B"
          f"  (bound {test_footprint.MAX_BYTES_PER_CLIENT} B)")
    print(f"  finalize() peak above it:  {report.finalize_per_client:8.1f} B"
          f"  (bound {test_footprint.MAX_FINALIZE_BYTES_PER_CLIENT} B)")
    for title, lines in (
        ("the retained difference", report.lines),
        ("what finalize() leaves allocated, result held", report.finalize_lines),
    ):
        print(f"top {len(lines)} lines of {title}:")
        for size, count, where in lines:
            print(f"  {size:8.1f} B {count:6.2f} blocks  {where}")
    churn = attribute_churn()
    print(f"attach/detach churn, {CHURN_SMALL} vs {CHURN_LARGE} cycles, per added cycle:")
    print(f"  retained after the last detach: {churn.retained_per_cycle:8.1f} B"
          f"  (bound {test_footprint.MAX_BYTES_PER_CHURN_CYCLE} B)")
    print(f"top {len(churn.lines)} lines of the retained difference:")
    for size, count, where in churn.lines:
        print(f"  {size:8.1f} B {count:6.2f} blocks  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
