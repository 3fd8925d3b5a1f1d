"""Tier-1 wrapper around the docs consistency check (`tools/docs_check.py`).

Keeps the documentation honest on every test run: cited file paths must
exist and the scenario table must match the registry exactly.  The slower
README-snippet execution runs in the CI ``docs-check`` job instead.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import docs_check


def test_doc_files_are_present():
    assert "README.md" in docs_check.DOC_FILES
    assert "docs/ARCHITECTURE.md" in docs_check.DOC_FILES
    assert "docs/SCENARIOS.md" in docs_check.DOC_FILES
    assert "docs/BENCHMARKS.md" in docs_check.DOC_FILES


def test_cited_paths_exist():
    assert docs_check.check_paths(docs_check.DOC_FILES) == []


def test_scenario_citations_match_registry():
    assert docs_check.check_scenario_names(docs_check.DOC_FILES) == []


def test_benchmark_catalogue_matches_bench_modules():
    assert docs_check.check_bench_catalogue() == []


def test_config_knob_table_matches_the_dataclass():
    assert docs_check.check_config_table() == []


def test_config_knob_table_detects_drift(tmp_path, monkeypatch):
    docs = tmp_path / "docs"
    docs.mkdir()
    table = docs_check._read("docs/SCENARIOS.md").replace("| `shard_count` |", "| `warp_factor` |")
    (docs / "SCENARIOS.md").write_text(table)
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_config_table()
    assert len(problems) == 2  # missing shard_count + stale warp_factor


def test_bench_catalogue_detects_drift(tmp_path, monkeypatch):
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_e99_future.py").write_text("")
    (docs / "BENCHMARKS.md").write_text(
        "| E1 | `benchmarks/bench_e1_gone.py` | x | y |\n"
    )
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_bench_catalogue()
    assert len(problems) == 2  # uncatalogued module + stale citation


def test_benchmark_knobs_match_the_bench_modules():
    assert docs_check.check_bench_knobs() == []


def test_benchmark_knobs_detect_drift(tmp_path, monkeypatch):
    (tmp_path / "docs").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "conftest.py").write_text(
        'addoption("--e12-clients")\nos.environ.get("E12_MIN_SPEEDUP")\n'
    )
    (tmp_path / "docs" / "BENCHMARKS.md").write_text("`--e12-clients`, `--e7-stations`\n")
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_bench_knobs()
    assert len(problems) == 2  # stale --e7-stations + undocumented E12_MIN_SPEEDUP


def test_readme_experiment_range_matches_bench_catalogue(tmp_path, monkeypatch):
    assert docs_check.check_experiment_range() == []
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_e3_density.py").write_text("")
    (tmp_path / "README.md").write_text("the E1–E3 catalogue; run all (E1..E2)\n")
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_experiment_range()
    assert len(problems) == 1 and "E2" in problems[0]  # only the stale range


def test_ledger_trajectory_matches_the_committed_rows():
    assert docs_check.check_ledger_table() == []


def test_ledger_trajectory_detects_drift(tmp_path, monkeypatch):
    (tmp_path / "docs").mkdir()
    rows = sorted(Path(docs_check.REPO_ROOT).glob("BENCH_*.json"))
    shutil.copy(rows[-1], tmp_path / rows[-1].name)
    stale = docs_check._read("docs/BENCHMARKS.md")
    (tmp_path / "docs" / "BENCHMARKS.md").write_text(stale)
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    assert len(docs_check.check_ledger_table()) == 1  # one row where the doc has several
    (tmp_path / "docs" / "BENCHMARKS.md").write_text("no trajectory here\n")
    assert "missing" in docs_check.check_ledger_table()[0]


def test_readme_has_runnable_quickstart_snippets():
    # The snippets themselves run in CI's docs-check job; tier-1 just pins
    # that they exist and still import from the public scenario API.
    snippets = docs_check.readme_snippets()
    assert snippets, "README.md lost its python quickstart snippet"
    assert any("run_scenario" in code for _, code in snippets)


def test_docs_check_detects_a_broken_citation(tmp_path, monkeypatch):
    rigged = tmp_path / "BROKEN.md"
    rigged.write_text("see `src/repro/core/no_such_module.py` and `docs/*.md`\n")
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_paths(["BROKEN.md"])
    assert len(problems) == 2  # missing file + glob matching nothing


def test_the_script_finds_its_own_src_without_pythonpath():
    environment = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    script = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "docs_check.py")
    completed = subprocess.run(
        [sys.executable, script], env=environment, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
