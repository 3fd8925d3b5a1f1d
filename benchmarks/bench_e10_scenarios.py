"""E10 -- Scenario engine throughput and reproducibility (shard matrix).

Runs **every** canned scenario once per control-plane shard count
(``SHARD_COUNTS``), checks that each run drains cleanly and
that every shard count replays to the **identical** ``MetricsDigest`` -- the
sharded control plane must be an implementation detail, invisible to the
telemetry fingerprint -- and reports the simulation rate the engine
sustains.  This is the regression gate every future scale/perf PR runs
against.
"""

from __future__ import annotations

import time

from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.scenarios import run_scenario, scenario_names

SEED = 0
SHARD_COUNTS = (1, 4)


def _run_matrix():
    rows = []
    for name in scenario_names():
        results = []
        elapsed_first = 0.0
        for shard_count in SHARD_COUNTS:
            started = time.perf_counter()
            result = run_scenario(name, seed=SEED, shard_count=shard_count)
            if not results:
                elapsed_first = time.perf_counter() - started
            results.append(result)
        first = results[0]
        diffs = [first.digest.diff(other.digest) for other in results[1:]]
        rows.append(
            {
                "name": name,
                "events": first.events_processed,
                "sim_s": first.duration_s,
                "real_s": elapsed_first,
                "sim_per_wall": first.duration_s / elapsed_first if elapsed_first > 0 else 0.0,
                "events_per_s": first.events_processed / elapsed_first if elapsed_first > 0 else 0.0,
                "handovers": first.handovers,
                "migrations": first.migrations_completed,
                "faults": first.faults_injected,
                "drained": all(result.drained for result in results),
                "shard_invariant": all(not diff for diff in diffs),
                "digest": first.digest.short,
                "diff": [diff for diff in diffs if diff],
            }
        )
    return rows


def test_e10_scenario_matrix(benchmark, record_experiment):
    rows = run_once(benchmark, _run_matrix)
    result = ExperimentResult(
        experiment_id="E10",
        title=(
            "Declarative scenarios -- replay determinism across shard counts "
            f"{list(SHARD_COUNTS)} and simulation rate"
        ),
        headers=[
            "scenario", "events", "sim time (s)", "wall (s)", "sim/wall x",
            "events/s", "handovers", "migrations", "faults", "digest", "shard-invariant",
        ],
        paper_claim=(
            "The demo's scenarios (roaming users, NF attach/removal, station "
            "failures) are reproducible experiments, not one-off runs"
        ),
    )
    for row in rows:
        result.add_row(
            row["name"], row["events"], row["sim_s"], f"{row['real_s']:.2f}",
            f"{row['sim_per_wall']:.1f}", f"{row['events_per_s']:.0f}",
            row["handovers"], row["migrations"], row["faults"], row["digest"],
            row["shard_invariant"],
        )
    record_experiment(result)

    for row in rows:
        assert row["drained"], f"{row['name']} left live events after teardown"
        assert row["shard_invariant"], (
            f"{row['name']} digest changed with shard count: {row['diff']}"
        )
    # The storm scenarios must actually exercise roaming + chaos machinery.
    by_name = {row["name"]: row for row in rows}
    assert by_name["commuter-rush"]["handovers"] >= 10
    assert by_name["rolling-failure"]["migrations"] >= 1
    assert by_name["chaos-soak"]["faults"] >= 5


#: Scenarios whose placement decisions legitimately differ by strategy,
#: with the reason; each must differ under every compared strategy, so a
#: stale entry fails just as a missing one does.
_STRATEGY_VARIANT = {
    "hotspot-stadium": "saturates a station (that divergence is benchmark E11's subject)",
    "autoscale-daily-wave": (
        "runs the autoscaler, whose replica and rebalance targets depend on "
        "where placement put the wave chains"
    ),
    "slo-tight-embedding": (
        "pins the embedding strategy in its own topology, so any override "
        "swaps the placement algorithm itself; it also saturates by design "
        "(no station can host a whole crowd chain)"
    ),
}
_COMPARED_STRATEGIES = ("least-loaded", "bin-packing")


def test_e10_placement_strategy_digest_invariance(benchmark):
    """The load-aware strategies prefer the client's station until it is
    loaded, so on the unsaturated canned library (autoscaling off, default
    strategy) every strategy must replay to the identical digest as the
    default -- and every exempted scenario must in fact replay differently."""

    def run_matrix():
        failures = []
        for name in scenario_names():
            base = run_scenario(name, seed=SEED)
            for strategy in _COMPARED_STRATEGIES:
                other = run_scenario(name, seed=SEED, placement_strategy=strategy)
                if name in _STRATEGY_VARIANT:
                    if other.digest == base.digest:
                        failures.append((name, strategy, "exempt but strategy-invariant"))
                elif other.digest != base.digest:
                    failures.append((name, strategy, base.digest.diff(other.digest)))
        return failures

    failures = run_once(benchmark, run_matrix)
    assert not failures, failures
    assert set(_STRATEGY_VARIANT) <= set(scenario_names())
