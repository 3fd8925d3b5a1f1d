"""Declarative scenarios: specify a GNF run as data, replay it exactly.

This package turns whole end-to-end GNF experiments -- topology, client
fleets, mobility, workload mixes, NF chain schedules and injected faults --
into plain-data :class:`ScenarioSpec` objects that a :class:`ScenarioRunner`
compiles into a :class:`~repro.core.testbed.GNFTestbed` run.  One master
seed is threaded through **every** RNG in the run, and the resulting
telemetry is hashed into a :class:`MetricsDigest`, so every scenario is
byte-reproducible: same spec + same seed => same digest, always.

The spec schema
---------------

``ScenarioSpec`` -- the top level:

=================  =========================================================
``name``           scenario identifier (also the registry key when canned)
``seed``           master seed; every RNG derives a child seed from it
``duration_s``     how long the scenario runs (simulated seconds)
``topology``       a ``TopologySpec`` -- which *is*
                   :class:`repro.core.testbed.TestbedConfig`, the one
                   declaration of every deployment knob (``station_count``,
                   ``migration_strategy``, ``shard_count`` ...).  Any field
                   can be overridden per run:
                   ``ScenarioRunner(spec).start(shard_count=4)``
``fleets``         ``ClientFleetSpec`` list: ``count`` clients named
                   ``<name>-1..N`` at ``position`` (+ up to ``spread_m`` of
                   seeded scatter), appearing at ``appear_at_s`` spaced by
                   ``appear_stagger_s``, moving per a ``MobilitySpec``
                   (``static``/``linear``/``waypoint``/``commuter``/
                   ``trace`` + model params) and generating traffic per a
                   list of ``WorkloadSpec`` (``cbr``/``http``/``dns``/
                   ``video``/``bulk``/``quic``/``abr`` + generator params,
                   ``start_s``/``stop_s``, ``era_scaled``)
``assignments``    ``ChainAssignmentSpec`` list: attach the NF chain
                   ``nfs`` (names or ``{"nf_type", "config"}`` dicts) to
                   every client of ``fleet`` at ``attach_at_s``, optionally
                   detach at ``detach_at_s``, optionally gate it on a
                   ``daily_window`` (start > end wraps the day boundary)
                   with a compressed ``day_length_s``
``faults``         ``FaultSpec`` list: ``station-crash``, ``link-degrade``
                   (``loss_rate``/``bandwidth_factor`` params),
                   ``link-down``, ``container-oom`` against ``station``
                   (name or 1-based index) at ``at_s``, auto-recovering
                   after ``duration_s``
``eras``           ``TrafficEraSpec`` list: at each (strictly increasing)
                   ``at_s`` the per-protocol ``shares`` map (summing to 1)
                   rescales every era-scalable generator -- the evolving
                   traffic-mix schedule
=================  =========================================================

All times are simulated seconds from scenario start.  The full authoring
guide (field tables, a worked example and the canned-library reference)
lives in ``docs/SCENARIOS.md``.

Adding a canned scenario
------------------------

Write a builder ``(seed: int) -> ScenarioSpec`` in
:mod:`repro.scenarios.library` (drawing any structural randomness from
``_builder_rng(seed, name)`` so the build itself replays) and decorate it::

    @register_scenario("my-scenario")
    def _my_scenario(seed: int) -> ScenarioSpec:
        return ScenarioSpec(name="my-scenario", seed=seed, ...)

It is then runnable via ``run_scenario("my-scenario", seed=...)``, the
``examples/run_scenario.py`` CLI and the determinism test matrix in
``tests/test_scenarios.py`` (which automatically replays every registered
scenario twice and compares digests).

Quickstart
----------
>>> from repro.scenarios import run_scenario
>>> result = run_scenario("fig2-roaming", seed=7)   # doctest: +SKIP
>>> result.migrations_completed >= 1                # doctest: +SKIP
True
>>> result.digest == run_scenario("fig2-roaming", seed=7).digest  # doctest: +SKIP
True
"""

from repro.scenarios.digest import MetricsDigest, canonicalize
from repro.scenarios.faults import FaultInjector
from repro.scenarios.library import (
    build_scenario,
    register_scenario,
    run_scenario,
    scenario_has_bulk,
    scenario_names,
)
from repro.scenarios.runner import ScenarioResult, ScenarioRun, ScenarioRunner
from repro.scenarios.spec import (
    ChainAssignmentSpec,
    ClientFleetSpec,
    FaultSpec,
    MobilitySpec,
    ScenarioSpec,
    ScenarioSpecError,
    TopologySpec,
    TrafficEraSpec,
    WorkloadSpec,
)

__all__ = [
    "MetricsDigest",
    "canonicalize",
    "FaultInjector",
    "ScenarioResult",
    "ScenarioRun",
    "ScenarioRunner",
    "ScenarioSpec",
    "ScenarioSpecError",
    "TopologySpec",
    "ClientFleetSpec",
    "MobilitySpec",
    "WorkloadSpec",
    "TrafficEraSpec",
    "ChainAssignmentSpec",
    "FaultSpec",
    "register_scenario",
    "scenario_names",
    "build_scenario",
    "run_scenario",
    "scenario_has_bulk",
]
