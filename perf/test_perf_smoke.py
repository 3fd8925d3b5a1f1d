"""Tier-1 smoke test of the benchmark harness (``--scale tiny``, a few seconds).

Checks the plumbing, not performance: every workload replays and passes its
gates, the printed names are exactly ``BENCHMARK.json``'s, the end-to-end path
stays on the ``repro.scenarios`` waist, and probes degrade instead of crashing.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import compare, probes, run, worker
from perf.metrics import HOST_UNITS, declared
from perf.workloads import WORKLOAD_NAMES

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = declared()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_is_well_formed():
    assert DECLARED.workloads == WORKLOAD_NAMES
    assert BENCHMARK["paths"] == ["perf"] and BENCHMARK["command"] == ["python3", "perf/run.py"]
    names = [*DECLARED.end_to_end, *DECLARED.per_layer, *WORKLOAD_NAMES]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit, better in (*DECLARED.end_to_end.values(), *DECLARED.per_layer.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
        assert better in ("lower", "higher")
    assert "setup_s" in DECLARED.end_to_end
    # Traced self times, host phase times and probes are host figures; the rest is exact.
    assert len(DECLARED.per_layer) == 90 and len(DECLARED.exact) == 25 + 17
    assert all(DECLARED.per_layer[name][0] in HOST_UNITS for name in probes.PROBES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_replays_at_tiny_scale(name, tmp_path):
    """One reference pass, the gates, one traced pass and the probes, in process."""
    result = worker.measure(name, seed=3, scale="tiny", seconds=0.0, layers=True, out_dir=tmp_path)
    assert result["ops_failed"] == 0, result["failures"]
    assert result["passes"] == 1 and result["ops"] >= len(result["replays"]) * 2
    assert result["run_wall_s"] > 0 and result["sim_s"] > 0 and result["peak_rss_mb"] > 0
    layers = result["layers"]
    assert set(layers["metrics"]) == set(DECLARED.per_layer)
    assert layers["probes_skipped"] == {} and layers["counters_skipped"] == []
    assert all(isinstance(value, (int, float)) for value in layers["metrics"].values())
    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    assert {span["name"] for span in trace["spans"]} >= {"pass", "replay", "scenarios.runner.advance"}
    assert all(span["end_s"] >= span["start_s"] for span in trace["spans"])


def test_replays_that_raise_are_failed_ops_not_crashes(monkeypatch, tmp_path):
    class Broken:
        def __init__(self, spec):
            raise RuntimeError("boom")

    monkeypatch.setattr(worker, "ScenarioRunner", Broken)
    result = worker.measure("bulk-packet", seed=3, scale="tiny", seconds=0.0, layers=False, out_dir=tmp_path)
    assert result["ops_failed"] == result["ops"] > 0 and result["run_wall_s"] == 0
    figures = run._end_to_end(result, [0.4], DECLARED)
    assert figures["sim_s_per_wall_s"]["value"] == 0.0
    assert compare.verdict(figures["run_wall_s"], figures["run_wall_s"], 0.1, other_failed=True) == "worse"
    assert compare.worsening(0.0, 0.0, "lower") == 0.0 and compare.worsening(0.0, 1.0, "lower") > 1


def _run(*args: str, cwd: Path = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", *args], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_the_contract_line(trace, section):
    done = _run("--workload", "roaming-storm", "--seed", "3", "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared_section = getattr(DECLARED, section)
    assert set(line["metrics"]) == set(declared_section)
    for name, entry in line["metrics"].items():
        assert entry["unit"] == declared_section[name][0]
        assert isinstance(entry["value"], (int, float))
        assert section == "per_layer" or entry["value"] > 0
    result_file = re.search(r"^result file: perf/out/(\S+)$", done.stdout, re.MULTILINE).group(1)
    result_path = PERF_DIR / "out" / result_file
    result = json.loads(result_path.read_text())
    result_path.unlink()
    assert {"git_sha", "python", "numpy", "cpu", "nproc", "load_1m_before", "load_1m_after",
            "sizes", "seed"} <= set(result["provenance"])
    assert set(result["workloads"]["roaming-storm"][section]) == set(declared_section)


def test_harness_error_without_the_program(tmp_path):
    """With only BENCHMARK.json and perf/ present the run fails and prints no result,
    even where a ``repro`` is importable from elsewhere (``pip install -e .``)."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = _run("--workload", "bulk-packet", "--seed", "0", "--seconds", "1", "--trace", "0",
                "--scale", "tiny", cwd=tmp_path, env=env)
    assert done.returncode == 2 and done.stdout == ""
    assert "harness error" in done.stderr


def test_end_to_end_path_imports_only_the_scenarios_waist():
    for module in ("run", "worker", "workloads", "counters", "trace", "metrics", "compare"):
        tree = ast.parse((PERF_DIR / f"{module}.py").read_text())
        for node in ast.walk(tree):
            imported = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported = [node.module]
            for target in imported:
                if target == "repro" or target.startswith("repro."):
                    assert target == "repro.scenarios", f"perf/{module}.py imports {target}"


def test_probe_degrades_when_its_import_fails(monkeypatch):
    monkeypatch.setitem(sys.modules, "repro.netem.fluid", None)
    values, skipped = probes.run_probes("tiny")
    assert set(values) == set(probes.PROBES)
    assert values["netem.fluid.probe_solves_per_s"] is None
    assert list(skipped) == ["netem.fluid.probe_solves_per_s"]
    assert all(value > 0 for name, value in values.items() if name not in skipped)
