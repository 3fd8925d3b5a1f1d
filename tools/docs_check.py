#!/usr/bin/env python
"""Documentation consistency check.

Verifies that the documentation cannot silently rot:

1. Every repository-relative file path cited in ``README.md`` and
   ``docs/*.md`` (``src/...``, ``docs/...``, ``benchmarks/...``, bare
   ``*.md`` files, glob patterns) actually exists.
2. Every scenario name cited via ``run_scenario("...")`` /
   ``build_scenario("...")`` or the ``run_scenario.py <name>`` CLI is
   registered in the canned library, and the scenario table in
   ``docs/SCENARIOS.md`` lists *exactly* the registered scenarios.
3. The benchmark catalogue in ``docs/BENCHMARKS.md`` lists *exactly* the
   ``benchmarks/bench_*.py`` modules (every bench file has a row, every
   row cites an existing file).
4. The bundle table in ``docs/ARCHITECTURE.md`` lists *exactly* the
   ``name@vN`` refs registered in the default bundle catalogue.
5. Every experiment range the README quotes (``E1–E16``, ``E1..E16``)
   ends at the last experiment of the benchmark catalogue.
6. The "Deployment knobs" table in ``docs/SCENARIOS.md`` has *exactly* one
   row per ``TestbedConfig`` field.
7. (``--run-snippets``) The README's Python quickstart snippets execute
   successfully against the current tree.

Run from the repository root::

    PYTHONPATH=src python tools/docs_check.py [--run-snippets]

Exits non-zero with a per-finding report when anything is broken.  Wired
into CI as the ``docs-check`` job and into tier-1 via ``tests/test_docs.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import re
import sys
from typing import Dict, List, Tuple

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: The documentation files the check walks.
DOC_FILES = ["README.md"] + sorted(
    os.path.relpath(path, REPO_ROOT) for path in glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))
)

#: Repo-relative path citations: a known top-level directory followed by a
#: path, or a bare UPPERCASE.md file at the root.
_PATH_PATTERN = re.compile(
    r"\b((?:src|docs|tools|examples|benchmarks|tests)/[A-Za-z0-9_\-./*]+|[A-Z][A-Z0-9_]*\.md)\b"
)

#: Scenario names cited from code snippets or CLI examples.
_SCENARIO_CALL_PATTERN = re.compile(r"(?:run_scenario|build_scenario)\(\s*\"([a-z0-9\-]+)\"")
_SCENARIO_CLI_PATTERN = re.compile(r"run_scenario\.py\s+([a-z][a-z0-9\-]+)")

#: Rows of the scenario table in docs/SCENARIOS.md: | `name` | ... |
_SCENARIO_TABLE_ROW = re.compile(r"^\|\s*`([a-z0-9\-]+)`\s*\|", re.MULTILINE)

#: Rows of the benchmark catalogue in docs/BENCHMARKS.md: the experiment id
#: and the bench module the row cites.
_BENCH_TABLE_ROW = re.compile(
    r"^\|\s*E\d+[a-z]?\s*\|\s*`(benchmarks/bench_[a-z0-9_]+\.py)`", re.MULTILINE
)

#: Experiment ranges quoted in prose ("E1–E16", "E1..E16") and the experiment
#: number a bench module's file name carries.
_EXPERIMENT_RANGE = re.compile(r"\bE1(?:–|-|\.\.)E(\d+)\b")
_BENCH_MODULE_NUMBER = re.compile(r"bench_e(\d+)[a-z]?_")

#: Rows of the bundle table in docs/ARCHITECTURE.md: | `name@vN` | ... |
_BUNDLE_TABLE_ROW = re.compile(r"^\|\s*`([a-z0-9\-]+@v\d+)`\s*\|", re.MULTILINE)

#: Rows of the "Deployment knobs" table in docs/SCENARIOS.md: | `field` | ... |
_CONFIG_TABLE_ROW = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|", re.MULTILINE)

_PYTHON_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _read(relpath: str) -> str:
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as handle:
        return handle.read()


def check_paths(doc_files: List[str]) -> List[str]:
    """Every cited repo-relative path (or glob) must resolve to something."""
    problems: List[str] = []
    for doc in doc_files:
        text = _read(doc)
        for match in _PATH_PATTERN.finditer(text):
            cited = match.group(1).rstrip(".")
            target = os.path.join(REPO_ROOT, cited)
            if "*" in cited:
                if not glob.glob(target):
                    problems.append(f"{doc}: glob {cited!r} matches no files")
            elif not os.path.exists(target):
                problems.append(f"{doc}: cited path {cited!r} does not exist")
    return problems


def check_scenario_names(doc_files: List[str]) -> List[str]:
    """Cited scenario names must be registered; the table must be exact."""
    from repro.scenarios import scenario_names

    registered = set(scenario_names())
    problems: List[str] = []
    for doc in doc_files:
        text = _read(doc)
        cited = set(_SCENARIO_CALL_PATTERN.findall(text)) | set(
            name for name in _SCENARIO_CLI_PATTERN.findall(text) if not name.startswith("-")
        )
        for name in sorted(cited - registered):
            problems.append(f"{doc}: cites unregistered scenario {name!r}")

    scenarios_doc = _read("docs/SCENARIOS.md")
    heading = "## The canned library"
    if heading not in scenarios_doc:
        return problems + [f"docs/SCENARIOS.md: missing the {heading!r} section"]
    table = set(_SCENARIO_TABLE_ROW.findall(scenarios_doc.split(heading, 1)[1]))
    for name in sorted(registered - table):
        problems.append(f"docs/SCENARIOS.md: registered scenario {name!r} missing from the table")
    for name in sorted(table - registered):
        problems.append(f"docs/SCENARIOS.md: table lists unknown scenario {name!r}")
    return problems


def check_bench_catalogue() -> List[str]:
    """docs/BENCHMARKS.md must catalogue exactly the bench_*.py modules."""
    path = os.path.join(REPO_ROOT, "docs", "BENCHMARKS.md")
    if not os.path.exists(path):
        return ["docs/BENCHMARKS.md: missing (the benchmark catalogue is mandatory)"]
    cited = set(_BENCH_TABLE_ROW.findall(_read("docs/BENCHMARKS.md")))
    if not cited:
        return ["docs/BENCHMARKS.md: found no benchmark table rows (| E<n> | `benchmarks/...` |)"]
    actual = {
        os.path.relpath(bench, REPO_ROOT)
        for bench in glob.glob(os.path.join(REPO_ROOT, "benchmarks", "bench_*.py"))
    }
    problems: List[str] = []
    for missing in sorted(actual - cited):
        problems.append(f"docs/BENCHMARKS.md: bench module {missing!r} has no catalogue row")
    for stale in sorted(cited - actual):
        problems.append(f"docs/BENCHMARKS.md: catalogue cites non-existent bench {stale!r}")
    return problems


def check_experiment_range() -> List[str]:
    """The README's "E1–E<n>" ranges must end at the catalogue's last experiment."""
    numbers = [
        int(number)
        for bench in glob.glob(os.path.join(REPO_ROOT, "benchmarks", "bench_*.py"))
        for number in _BENCH_MODULE_NUMBER.findall(os.path.basename(bench))
    ]
    if not numbers:
        return []  # check_bench_catalogue() reports the empty catalogue
    last = max(numbers)
    return [
        f"README.md: experiment range ends at E{quoted}, the bench catalogue at E{last}"
        for quoted in _EXPERIMENT_RANGE.findall(_read("README.md"))
        if int(quoted) != last
    ]


def check_bundle_catalogue() -> List[str]:
    """docs/ARCHITECTURE.md must table exactly the catalogued bundle refs."""
    from repro.core.bundles import default_catalogue

    registered = set(default_catalogue().refs())
    documented = set(_BUNDLE_TABLE_ROW.findall(_read("docs/ARCHITECTURE.md")))
    problems: List[str] = []
    for missing in sorted(registered - documented):
        problems.append(f"docs/ARCHITECTURE.md: catalogued bundle {missing!r} missing from the table")
    for stale in sorted(documented - registered):
        problems.append(f"docs/ARCHITECTURE.md: table lists unknown bundle {stale!r}")
    return problems


def check_config_table() -> List[str]:
    """docs/SCENARIOS.md must table exactly the ``TestbedConfig`` fields."""
    from repro.core.testbed import TestbedConfig

    declared = {field.name for field in dataclasses.fields(TestbedConfig)}
    heading = "### Deployment knobs"
    scenarios_doc = _read("docs/SCENARIOS.md")
    if heading not in scenarios_doc:
        return [f"docs/SCENARIOS.md: missing the {heading!r} section"]
    section = scenarios_doc.split(heading, 1)[1].split("\n## ", 1)[0]
    documented = set(_CONFIG_TABLE_ROW.findall(section))
    problems: List[str] = []
    for missing in sorted(declared - documented):
        problems.append(f"docs/SCENARIOS.md: TestbedConfig field {missing!r} missing from the knob table")
    for stale in sorted(documented - declared):
        problems.append(f"docs/SCENARIOS.md: knob table lists unknown field {stale!r}")
    return problems


def readme_snippets() -> List[Tuple[int, str]]:
    """The README's ```python fences, with their ordinal for error messages."""
    return list(enumerate(_PYTHON_FENCE.findall(_read("README.md")), start=1))


def run_readme_snippets() -> List[str]:
    """Execute every README Python snippet in one shared namespace."""
    problems: List[str] = []
    namespace: Dict[str, object] = {"__name__": "__readme__"}
    for ordinal, snippet in readme_snippets():
        try:
            exec(compile(snippet, f"<README.md python snippet #{ordinal}>", "exec"), namespace)
        except Exception as error:  # pragma: no cover - failure reporting
            problems.append(f"README.md: python snippet #{ordinal} failed: {error!r}")
    return problems


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--run-snippets",
        action="store_true",
        help="also execute the README's Python quickstart snippets (slower)",
    )
    args = parser.parse_args(argv)

    problems = (
        check_paths(DOC_FILES)
        + check_scenario_names(DOC_FILES)
        + check_bench_catalogue()
        + check_experiment_range()
        + check_bundle_catalogue()
        + check_config_table()
    )
    if args.run_snippets:
        problems += run_readme_snippets()

    if problems:
        print(f"docs-check: {len(problems)} problem(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    checked = ", ".join(DOC_FILES)
    suffix = " + README snippets" if args.run_snippets else ""
    print(f"docs-check: OK ({checked}{suffix})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
