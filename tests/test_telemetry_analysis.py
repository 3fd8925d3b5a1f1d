"""Unit tests for telemetry (metrics, collector, export) and analysis helpers."""

from __future__ import annotations

import json

import pytest

from repro.analysis.report import ExperimentReport, ExperimentResult
from repro.analysis.stats import mean, median, percentile, ratio, stdev, summarize
from repro.netem.simulator import Simulator
from repro.telemetry.collector import ResourceCollector
from repro.telemetry.export import render_table, snapshot_to_json
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry, TimeSeries


# --------------------------------------------------------------------------
# Metrics primitives
# --------------------------------------------------------------------------


def test_counter_increments_and_rejects_decrease():
    counter = Counter("packets")
    counter.increment()
    counter.increment(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.increment(-1)
    counter.reset()
    assert counter.value == 0


def test_gauge_set_and_add():
    gauge = Gauge("memory")
    gauge.set(10)
    gauge.add(-4)
    assert gauge.value == 6


def test_timeseries_records_and_summarises():
    series = TimeSeries("cpu")
    for t in range(5):
        series.record(float(t), float(t * 10))
    assert len(series) == 5
    assert series.latest() == (4.0, 40.0)
    assert series.mean() == pytest.approx(20.0)
    assert series.maximum() == 40.0
    assert series.rate_per_second() == pytest.approx(10.0)
    assert series.window(since=3.0) == [(3.0, 30.0), (4.0, 40.0)]


def test_timeseries_bounded():
    series = TimeSeries("x", max_samples=3)
    for t in range(10):
        series.record(float(t), float(t))
    assert len(series) == 3
    assert series.values() == [7.0, 8.0, 9.0]


def test_timeseries_empty_edge_cases():
    series = TimeSeries("empty")
    assert series.latest() is None
    assert series.mean() == 0.0
    assert series.rate_per_second() == 0.0
    with pytest.raises(ValueError):
        TimeSeries("bad", max_samples=0)


def test_registry_reuses_instruments_and_snapshots():
    registry = MetricsRegistry("station")
    registry.counter("a").increment()
    registry.counter("a").increment()
    registry.gauge("b").set(3)
    registry.series("c").record(1.0, 9.0)
    snapshot = registry.snapshot()
    assert snapshot == {"a": 2.0, "b": 3.0, "c": 9.0}
    assert registry.series_names() == ["c"]


# --------------------------------------------------------------------------
# Collector
# --------------------------------------------------------------------------


def test_collector_samples_sources_periodically():
    simulator = Simulator()
    collector = ResourceCollector(simulator, interval_s=1.0)
    values = {"cpu": 0.0}
    collector.add_source("host", lambda: dict(values))
    collector.start()
    values["cpu"] = 5.0
    simulator.run(until=3.5)
    assert collector.samples_taken == 3
    assert collector.latest() == {"host.cpu": 5.0}
    collector.stop()
    values["cpu"] = 9.0
    simulator.run(until=6.0)
    assert collector.samples_taken == 3
    assert collector.latest() == {"host.cpu": 5.0}


def test_collector_survives_broken_source():
    simulator = Simulator()
    collector = ResourceCollector(simulator, interval_s=1.0)

    def broken():
        raise RuntimeError("boom")

    collector.add_source("bad", broken)
    collector.add_source("good", lambda: {"ok": 1.0})
    collector.start()
    simulator.run(until=2.5)
    assert collector.samples_taken == 2
    assert collector.latest() == {"bad.collection_errors": 2.0, "good.ok": 1.0}


def test_collector_keeps_latest_values_only():
    simulator = Simulator()
    collector = ResourceCollector(simulator)
    collector.add_source("a", lambda: {"x": 1})
    collector.add_source("b", lambda: {"y": 2.5})
    assert collector.sample_once() == {"a.x": 1.0, "b.y": 2.5}
    # A removed source keeps its last value in latest(); the tick's own
    # sample carries only what was collected on that tick.
    collector.remove_source("a")
    assert collector.sample_once() == {"b.y": 2.5}
    assert collector.latest() == {"a.x": 1.0, "b.y": 2.5}
    # latest() is a copy: callers cannot write into the collector.
    view = collector.latest()
    view["a.x"] = 99.0
    view["new"] = 1.0
    assert collector.latest() == {"a.x": 1.0, "b.y": 2.5}
    assert collector.latest() is not collector.latest()
    assert isinstance(collector.latest()["a.x"], float)


def test_collector_source_management():
    simulator = Simulator()
    collector = ResourceCollector(simulator, interval_s=1.0)
    collector.add_source("x", lambda: {})
    assert collector.sources() == ["x"]
    collector.remove_source("x")
    assert collector.sources() == []
    with pytest.raises(ValueError):
        ResourceCollector(simulator, interval_s=0)


# --------------------------------------------------------------------------
# Export helpers
# --------------------------------------------------------------------------


def test_snapshot_to_json_is_deterministic():
    first = snapshot_to_json({"b": 1, "a": {"y": 2, "x": 1}})
    second = snapshot_to_json({"a": {"x": 1, "y": 2}, "b": 1})
    assert first == second
    assert json.loads(first)["a"]["x"] == 1


def test_render_table_alignment_and_title():
    text = render_table(["name", "value"], [["a", 1.23456], ["longer-name", 2]], title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[2]
    assert "longer-name" in text
    assert "1.235" in text  # default precision 3


def test_render_table_bool_formatting():
    text = render_table(["flag"], [[True], [False]])
    assert "yes" in text and "no" in text


# --------------------------------------------------------------------------
# Analysis stats
# --------------------------------------------------------------------------


def test_mean_median_empty_and_simple():
    assert mean([]) == 0.0
    assert mean([1, 2, 3]) == 2.0
    assert median([]) == 0.0
    assert median([3, 1, 2]) == 2.0
    assert median([1, 2, 3, 4]) == 2.5


def test_percentile_interpolation_and_bounds():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 5
    assert percentile(values, 50) == 3
    assert percentile(values, 62.5) == pytest.approx(3.5)
    with pytest.raises(ValueError):
        percentile(values, 120)
    assert percentile([], 50) == 0.0
    assert percentile([7], 99) == 7


def test_stdev_and_ratio():
    assert stdev([5]) == 0.0
    assert stdev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)
    assert ratio(10, 4) == 2.5
    assert ratio(10, 0) == 0.0


def test_summarize_block():
    block = summarize([1.0, 2.0, 3.0, 4.0])
    assert block["count"] == 4
    assert block["min"] == 1.0 and block["max"] == 4.0
    assert block["mean"] == 2.5


# --------------------------------------------------------------------------
# Experiment reporting
# --------------------------------------------------------------------------


def test_experiment_result_render_and_markdown():
    result = ExperimentResult(
        experiment_id="E2",
        title="Instantiation latency",
        headers=["platform", "latency_s"],
        paper_claim="NFs can be attached in seconds",
    )
    result.add_row("container", 0.35)
    result.add_row("vm", 20.1)
    text = result.render()
    assert "E2: Instantiation latency" in text
    assert "paper claim" in text
    markdown = result.to_markdown()
    assert markdown.startswith("### E2")
    assert "| container |" in markdown


def test_experiment_report_save(tmp_path):
    report = ExperimentReport(title="run")
    result = ExperimentResult("E1", "Roaming", headers=["metric", "value"])
    result.add_row("handovers", 1)
    report.add(result)
    target = tmp_path / "report.md"
    report.save(str(target))
    content = target.read_text()
    assert "# run" in content
    assert "### E1" in content
    assert "handovers" in report.render()
