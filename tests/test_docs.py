"""Tier-1 wrapper around the docs consistency check (`tools/docs_check.py`).

Keeps the documentation honest on every test run: cited file paths must
exist and the scenario table must match the registry exactly.  The slower
README-snippet execution runs in the CI ``docs-check`` job instead.
"""

from __future__ import annotations

import os
import sys

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


def test_readme_experiment_range_matches_bench_catalogue(tmp_path, monkeypatch):
    assert docs_check.check_experiment_range() == []
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_e3_density.py").write_text("")
    (tmp_path / "README.md").write_text("the E1–E3 catalogue; run all (E1..E2)\n")
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_experiment_range()
    assert len(problems) == 1 and "E2" in problems[0]  # only the stale range


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
