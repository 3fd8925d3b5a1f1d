"""E4 -- Edge vs core NF placement: per-request latency.

Paper claim: edge compute nodes "provide customized services to users at low
latency and high throughput"; GNF leverages edge resources so services such
as caches answer clients locally.  This experiment runs the same web workload
with an edge cache attached to the client versus the same function placed
centrally (next to the origin, i.e. no edge benefit), plus a placement-
strategy ablation for the edge case.
"""

from __future__ import annotations

from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.analysis.stats import ratio
from repro.baselines.core_nfv import CoreNFVScenario
from repro.core.testbed import TestbedConfig


def _run_experiment():
    edge = CoreNFVScenario(edge_nf=True, mean_think_time_s=0.2).run(duration_s=40.0)
    core = CoreNFVScenario(edge_nf=False, mean_think_time_s=0.2).run(duration_s=40.0)

    ablation = []
    for placement in ("closest-agent", "load-aware", "latency-aware"):
        config = TestbedConfig(station_count=2, placement_strategy=placement)
        run = CoreNFVScenario(edge_nf=True, mean_think_time_s=0.2, config=config).run(duration_s=30.0)
        ablation.append((placement, run))
    return edge, core, ablation


def test_e4_edge_vs_core_latency(benchmark, record_experiment):
    edge, core, ablation = run_once(benchmark, _run_experiment)

    result = ExperimentResult(
        experiment_id="E4",
        title="Per-request latency: edge NF (cache at the client's station) vs centralised deployment",
        headers=["deployment", "mean latency (s)", "p95 latency (s)", "requests", "served at the edge"],
        paper_claim="Edge NFs provide customized services at low latency",
        notes=(
            "centralised = the same function next to the origin servers, so every request "
            "crosses the backhaul; ablation rows vary the Manager's placement strategy"
        ),
    )
    result.add_row("edge (closest agent)", edge.mean_latency_s, edge.p95_latency_s, edge.requests, edge.served_locally)
    result.add_row("core / centralised", core.mean_latency_s, core.p95_latency_s, core.requests, core.served_locally)
    for name, run in ablation:
        result.add_row(f"edge ({name} placement)", run.mean_latency_s, run.p95_latency_s, run.requests, run.served_locally)
    record_experiment(result)

    # Shape: edge deployment wins on mean latency because repeated objects are
    # served from the station instead of crossing the backhaul.
    assert edge.served_locally > 0
    assert core.served_locally == 0
    assert edge.mean_latency_s < core.mean_latency_s
    assert ratio(core.mean_latency_s, edge.mean_latency_s) > 1.2
