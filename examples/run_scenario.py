#!/usr/bin/env python3
"""Run any canned scenario from the declarative scenario library.

Usage::

    python examples/run_scenario.py --list
    python examples/run_scenario.py --list-bundles
    python examples/run_scenario.py commuter-rush
    python examples/run_scenario.py chaos-soak --seed 7
    python examples/run_scenario.py rolling-failure --check-determinism
    python examples/run_scenario.py commuter-rush --shards 4 --check-determinism
    python examples/run_scenario.py hotspot-stadium --placement least-loaded

``--check-determinism`` runs the scenario twice under the same seed and
exits non-zero if the two telemetry digests differ (the CI smoke matrix
uses this as its regression gate).  ``--shards`` overrides the
control-plane shard count and ``--regions`` the federation region count
(``--shards`` then means shards *per region*); with
``--check-determinism`` the replay drops both overrides (but keeps any
``--placement``/``--strategy`` override), so the check also proves
shard-count and region-count invariance.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios import ScenarioSpecError, TopologySpec, build_scenario, run_scenario, scenario_names

#: (flag, deployment-config field, help): the knobs the CLI can override.  The
#: flag's type is the type of the field's default; validation and the valid
#: names come from the config itself.
OVERRIDE_FLAGS = (
    ("--shards", "shard_count", "control-plane shard count"),
    ("--regions", "region_count", "federation region count; --shards then means shards per region"),
    ("--strategy", "migration_strategy", "migration strategy name"),
    ("--placement", "placement_strategy", "placement strategy name"),
    (
        "--sim-mode",
        "simulation_mode",
        "simulation engine: 'packet' (pure packet-level) or 'hybrid' "
        "(fluid bulk flows with packet fidelity islands)",
    ),
)


def _print_result(result) -> None:
    summary = result.summary()
    print(f"scenario            : {summary.pop('scenario')}")
    for key, value in summary.items():
        print(f"  {key:18s}: {value}")
    if result.workload_stats:
        print("  workloads:")
        for name, stats in result.workload_stats.items():
            print(
                f"    {name:28s} sent={stats['packets_sent']:8.0f} "
                f"echoed={stats['responses_received']:8.0f} "
                f"mean_rtt={stats['mean_rtt_s'] * 1e3:7.2f} ms "
                f"loss={stats['loss_rate'] * 100:5.1f} %"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", nargs="?", help="canned scenario name (see --list)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    defaults = TopologySpec()
    for flag, field, help_text in OVERRIDE_FLAGS:
        parser.add_argument(
            flag,
            dest=field,
            type=type(getattr(defaults, field)),
            default=None,
            help=f"{help_text} (default: the scenario's own setting)",
        )
    parser.add_argument("--list", action="store_true", help="list canned scenarios and exit")
    parser.add_argument(
        "--list-bundles",
        action="store_true",
        help="list the service-bundle catalogue (name, version, NF graph, slices) and exit",
    )
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run twice with the same seed and fail if the digests differ",
    )
    args = parser.parse_args(argv)

    if args.list_bundles:
        from repro.core.bundles import default_catalogue

        print("Service bundle catalogue:")
        for spec in default_catalogue().specs():
            slices = ", ".join(
                f"{s.name}(latency<={s.slo.max_latency_s}s, bw>={s.slo.min_bandwidth_mbps}Mbps)"
                if s.slo is not None and s.slo.constrained
                else s.name
                for s in spec.slices
            ) or "-"
            print(f"  {spec.ref:18s} {spec.nf_graph()}")
            print(f"  {'':18s} slices: {slices}")
            if spec.description:
                print(f"  {'':18s} {spec.description}")
        return 0

    if args.list or not args.scenario:
        print("Canned scenarios:")
        for name in scenario_names():
            spec = build_scenario(name)
            print(f"  {name:22s} {spec.description}")
        return 0

    overrides = {field: getattr(args, field) for _, field, _ in OVERRIDE_FLAGS}
    try:
        result = run_scenario(args.scenario, seed=args.seed, **overrides)
    except ScenarioSpecError as exc:
        parser.error(str(exc))
    _print_result(result)
    if not result.drained:
        print(
            f"ERROR: {result.pending_events_after_teardown} events still live after teardown",
            file=sys.stderr,
        )
        return 2
    if args.check_determinism:
        # Replay with the spec's own shard/region counts: digests must match
        # across both replays *and* those knobs, so one comparison checks
        # determinism plus shard- and region-count invariance.
        overrides.update(shard_count=None, region_count=None)
        again = run_scenario(args.scenario, seed=args.seed, **overrides)
        if result.digest != again.digest:
            print(
                f"ERROR: scenario {args.scenario!r} is NOT deterministic; "
                f"differing sections: {result.digest.diff(again.digest)}",
                file=sys.stderr,
            )
            return 1
        print(f"  determinism       : OK (replay digest {again.digest.short}... matches)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
