#!/usr/bin/env python
"""Where each added bulk client's bytes go: the footprint guard, attributed.

    python tools/footprint.py

Builds the hybrid bulk storm of ``tests/test_footprint.py`` at 200 and at
600 clients, exactly as that test does, and prints the two figures it
bounds: the bytes still allocated after ``advance(8)`` per added client, and
how far above them ``finalize()`` peaks per added client.  Then it prints the
``TOP`` source lines that hold most of the retained difference between the
two sizes (``tracemalloc`` ``compare_to("lineno")``), per added client.
The script finds the checkout's own ``src/``, so it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import sys
from typing import List, NamedTuple, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
for _path in (os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import test_footprint  # noqa: E402 - the storm spec and the measurement, not a copy

SMALL, LARGE = 200, 600
TOP = 15


class Attribution(NamedTuple):
    retained_per_client: float
    finalize_per_client: float
    #: ``(bytes per added client, blocks per added client, "path:line")``,
    #: largest retained difference first.
    lines: List[Tuple[float, float, str]]


def attribute(small: int = SMALL, large: int = LARGE, top: int = TOP) -> Attribution:
    """The test's two figures at ``small`` vs ``large`` clients, and the ``top``
    source lines of the retained difference (from two more runs, so that the
    snapshots cannot move the figures)."""
    figures = [test_footprint._per_added_client(index, small, large) for index in (0, 1)]
    before = test_footprint.measure(small, snapshot=True)[2]
    after = test_footprint.measure(large, snapshot=True)[2]
    added = large - small
    lines = []
    for diff in after.compare_to(before, "lineno")[:top]:
        frame = diff.traceback[0]
        where = os.path.relpath(frame.filename, REPO_ROOT)
        lines.append((diff.size_diff / added, diff.count_diff / added, f"{where}:{frame.lineno}"))
    return Attribution(figures[0], figures[1], lines)


def main() -> int:
    report = attribute()
    print(f"hybrid bulk storm, {SMALL} vs {LARGE} clients, per added client:")
    print(f"  retained after advance(8): {report.retained_per_client:8.1f} B"
          f"  (bound {test_footprint.MAX_BYTES_PER_CLIENT} B)")
    print(f"  finalize() peak above it:  {report.finalize_per_client:8.1f} B"
          f"  (bound {test_footprint.MAX_FINALIZE_BYTES_PER_CLIENT} B)")
    print(f"top {len(report.lines)} lines of the retained difference:")
    for size, count, where in report.lines:
        print(f"  {size:8.1f} B {count:6.2f} blocks  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
