"""Compile a :class:`ScenarioSpec` into a live, fully seeded testbed run.

The :class:`ScenarioRunner` is the only place where declarative specs meet
live objects.  It builds a :class:`~repro.core.testbed.GNFTestbed` from the
spec's topology, spawns the client fleets (creation, mobility, workloads and
chain attach/detach are all *scheduled*, so staggered appearances and churn
are first-class), wires the fault plan through a
:class:`~repro.scenarios.faults.FaultInjector`, and threads **one** master
seed through every random decision:

* per-client mobility RNGs     -- ``seed_for("mobility", client)``
* per-workload generator RNGs  -- ``seed_for("workload", client, index)``
* handover scan jitter         -- ``seed_for("handover", "scan-jitter")``
* fault victim selection       -- ``seed_for("faults")``
* fleet position scatter       -- ``seed_for("fleet", fleet, index)``

Because nothing else draws randomness, two runs of the same spec with the
same seed replay identically, which :class:`~repro.scenarios.digest.MetricsDigest`
turns into an assertable fact.

Phased use (benchmarks that measure mid-run)::

    run = ScenarioRunner(spec).start()
    run.advance(10.0)            # ... inspect run.testbed / run.generators ...
    result = run.finalize()      # digest + teardown + drain

One-shot use::

    result = ScenarioRunner(spec).run()
    assert result.drained and result.digest == expected
"""

from __future__ import annotations

import bisect
import math
import random
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.chain import ChainSLO, NFRequirements, NFSpec, ServiceChain
from repro.core.errors import UnknownClientError
from repro.core.manager import Assignment, AssignmentState
from repro.core.scheduler import TimeSchedule
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import (
    ABRVideoGenerator,
    BulkTransferGenerator,
    CBRTrafficGenerator,
    DNSWorkloadGenerator,
    HTTPWorkloadGenerator,
    QUICWorkloadGenerator,
    VideoWorkloadGenerator,
)
from repro.scenarios.digest import MetricsDigest
from repro.scenarios.faults import FaultInjector
from repro.scenarios.spec import (
    ClientFleetSpec,
    MobilitySpec,
    ScenarioSpec,
    ScenarioSpecError,
    TrafficEraSpec,
    WorkloadSpec,
)
from repro.wireless.mobility import (
    CommuterMobility,
    LinearMobility,
    MobilityModel,
    RandomWaypointMobility,
    StaticMobility,
    TraceMobility,
)

#: Attach requests arriving before the Manager learnt the client's location
#: are retried on this period, up to the attempt cap (then logged as failed).
_ATTACH_RETRY_S = 0.5
_ATTACH_MAX_ATTEMPTS = 30

#: Hard ceiling on post-teardown drain work: a correctly stopped scenario
#: needs a tiny fraction of this, so hitting the cap means some component
#: kept rescheduling itself -- exactly what the drain check must catch.
_DRAIN_MAX_EVENTS = 500_000

#: Smallest length at which the runner's list of orchestration handles is
#: compacted (see ``ScenarioRun._control``).
_CONTROL_COMPACT_MIN = 64


class _LiveSection(Mapping):
    """A read-only view of a live name -> object mapping whose entries are
    built only when read, so a digest that streams a section entry by entry
    never holds more than one of them."""

    __slots__ = ("_source", "_entry")

    def __init__(self, source: Dict[str, object], entry: Callable[[object], object]) -> None:
        self._source = source
        self._entry = entry

    def __getitem__(self, name: str) -> object:
        return self._entry(self._source[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._source)

    def __len__(self) -> int:
        return len(self._source)


class _WorkloadStats(Mapping):
    """Every generator's ``stats()`` as read at one instant, kept packed.

    The mapping holds the sorted generator names, one buffer of rows (each
    generator's values as C doubles), one index of ``(row offset, layout)``
    pairs in name order, and the layouts: a key tuple and its
    ``struct.Struct``, one per distinct key tuple.  A name is found with
    ``bisect``, and each read builds a fresh dict, so the mapping is
    read-only and what a caller gets is its own to change.  ``struct`` is
    imported anyway, where nothing else loads the ``array`` extension module.
    """

    __slots__ = ("_names", "_index", "_rows", "_layouts")

    #: One index entry: the row's byte offset and its layout's number.
    _ENTRY = struct.Struct("=II")

    def __init__(self, generators: Dict[str, object]) -> None:
        self._names: List[str] = sorted(generators)
        self._index = bytearray(self._ENTRY.size * len(self._names))
        self._rows = bytearray()
        self._layouts: List[Tuple[Tuple[str, ...], struct.Struct]] = []
        numbers: Dict[Tuple[str, ...], int] = {}
        for position, name in enumerate(self._names):
            stats = generators[name].stats()
            keys = tuple(stats)
            number = numbers.get(keys)
            if number is None:
                number = numbers[keys] = len(self._layouts)
                self._layouts.append((keys, struct.Struct(f"{len(keys)}d")))
            self._ENTRY.pack_into(self._index, position * self._ENTRY.size, len(self._rows), number)
            self._rows += self._layouts[number][1].pack(*stats.values())

    def __getitem__(self, name: str) -> Dict[str, float]:
        names = self._names
        position = bisect.bisect_left(names, name) if isinstance(name, str) else len(names)
        if position == len(names) or names[position] != name:
            raise KeyError(name)
        offset, number = self._ENTRY.unpack_from(self._index, position * self._ENTRY.size)
        keys, row_format = self._layouts[number]
        return dict(zip(keys, row_format.unpack_from(self._rows, offset)))

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _client_entry(client) -> Dict[str, float]:
    return client.stats()


def _workload_entry(generator) -> Dict[str, object]:
    return {"stats": generator.stats(), "rtt_samples": generator.rtts}


@dataclass
class ScenarioResult:
    """Everything a finished scenario run reports back."""

    spec: ScenarioSpec
    seed: int
    digest: MetricsDigest
    testbed: GNFTestbed
    duration_s: float
    events_processed: int
    #: True when the post-teardown drain emptied the event queue.
    drained: bool
    pending_events_after_teardown: int
    #: Each generator's ``stats()`` as read before teardown (read-only).
    workload_stats: Mapping[str, Dict[str, float]]
    handovers: int = 0
    migrations_started: int = 0
    migrations_completed: int = 0
    faults_injected: int = 0
    attach_failures: List[str] = field(default_factory=list)
    #: Placement-engine counters (placements local/remote, admission queue
    #: depth/timeouts) plus the strategy name, and the autoscaler summary.
    placement_stats: Dict[str, object] = field(default_factory=dict)
    autoscale_summary: Dict[str, float] = field(default_factory=dict)
    #: Hybrid-core counters (flows promoted/demoted, bytes fluid vs packet,
    #: solver epochs).  All zeros in pure packet mode.
    fluid_summary: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """Compact run report (printed by the scenario CLI)."""
        return {
            "scenario": self.spec.name,
            "seed": self.seed,
            "digest": self.digest.hexdigest,
            "duration_s": self.duration_s,
            "events_processed": self.events_processed,
            "handovers": self.handovers,
            "migrations_completed": self.migrations_completed,
            "faults_injected": self.faults_injected,
            "drained": self.drained,
        }


class ScenarioRun:
    """A live, started scenario (returned by :meth:`ScenarioRunner.start`)."""

    def __init__(self, spec: ScenarioSpec, seed: Optional[int] = None, **overrides) -> None:
        self.spec = spec.validate()
        self.seed = spec.seed if seed is None else seed
        knobs = [f.name for f in fields(TestbedConfig)]
        unknown = sorted(set(overrides) - set(knobs))
        if unknown:
            raise ScenarioSpecError(f"unknown deployment knob(s) {unknown}; valid: {knobs}")
        given = {name: value for name, value in overrides.items() if value is not None}
        # The spec is never touched: the run gets its own (validated) copy of
        # the deployment config, carrying the run seed and the overrides.
        self.testbed = GNFTestbed(replace(spec.topology, seed=self.seed, **given))
        self.simulator = self.testbed.simulator
        self.faults = FaultInjector(
            self.testbed, rng=random.Random(self.testbed.seed_for("faults"))
        )
        self.generators: Dict[str, object] = {}
        #: Workload spec behind each generator (era scaling needs the kind).
        self._generator_workloads: Dict[str, WorkloadSpec] = {}
        #: Era currently in force (None until the first boundary fires) and
        #: the applied-boundary log that feeds the digest's ``eras`` section.
        self._current_era: Optional[TrafficEraSpec] = None
        self._eras_applied: List[Dict[str, object]] = []
        self.mobilities: Dict[str, MobilityModel] = {}
        self.assignments: List[Tuple[str, Assignment]] = []
        self.attach_failures: List[str] = []
        self._advanced_s = 0.0
        self._finalized: Optional[ScenarioResult] = None
        # Orchestration events (spawns, workload starts, attaches, detaches)
        # still pending at finalize are cancelled, so an early finalize can
        # never have future scenario activity fire into the drain.  Fired
        # ones are dropped at the end of every ``advance()`` and whenever the
        # list has doubled since it was last compacted, so between advances
        # it holds only pending handles.
        self._control_events: List[object] = []
        self._control_compact_at = _CONTROL_COMPACT_MIN
        self._build()
        self.testbed.start()

    # ------------------------------------------------------------------ build

    def _control(self, delay_s: float, callback, *args) -> None:
        """Schedule an orchestration step, cancellable at finalize."""
        self._control_events.append(self.simulator.schedule(delay_s, callback, *args))
        if len(self._control_events) >= self._control_compact_at:
            self._compact_control_events()

    def _compact_control_events(self) -> None:
        """Drop the orchestration handles that have fired."""
        self._control_events = [event for event in self._control_events if event.pending]
        self._control_compact_at = max(_CONTROL_COMPACT_MIN, 2 * len(self._control_events))

    def _build(self) -> None:
        client_index = 0
        for fleet in self.spec.fleets:
            for index, client_name in enumerate(fleet.client_names()):
                appear_at = fleet.appear_at_s + index * fleet.appear_stagger_s
                position = self._scatter(fleet, index)
                if appear_at <= 0:
                    self._spawn_client(fleet, client_name, client_index, position)
                else:
                    self._control(
                        appear_at, self._spawn_client, fleet, client_name, client_index, position
                    )
                client_index += 1
        for order, assignment_spec in enumerate(self.spec.assignments):
            fleet = self.spec.fleet(assignment_spec.fleet)
            for client_name in fleet.client_names():
                self._control(
                    assignment_spec.attach_at_s, self._attach, assignment_spec, order, client_name, 0
                )
        for order, bundle_spec in enumerate(self.spec.bundles):
            fleet = self.spec.fleet(bundle_spec.fleet)
            for client_name in fleet.client_names():
                self._control(
                    bundle_spec.attach_at_s,
                    self._attach_bundle, bundle_spec, order, client_name, 0,
                )
        for upgrade_spec in self.spec.upgrades:
            self._control(upgrade_spec.at_s, self._run_upgrade, upgrade_spec)
        for era in self.spec.eras:
            self._control(era.at_s, self._apply_era, era)
        self.faults.schedule_all(self.spec.faults)

    def _scatter(self, fleet: ClientFleetSpec, index: int) -> Tuple[float, float]:
        base_x, base_y = fleet.position
        if fleet.spread_m <= 0:
            return (base_x, base_y)
        rng = random.Random(self.testbed.seed_for("fleet", fleet.name, index))
        radius = fleet.spread_m * math.sqrt(rng.random())
        angle = rng.uniform(0.0, 2 * math.pi)
        return (base_x + radius * math.cos(angle), base_y + radius * math.sin(angle))

    def _spawn_client(
        self,
        fleet: ClientFleetSpec,
        client_name: str,
        client_index: int,
        position: Tuple[float, float],
    ) -> None:
        client = self.testbed.add_client(client_name, position=position)
        now = self.simulator.now
        mobility = self._make_mobility(fleet.mobility, client, client_name)
        if mobility is not None:
            self.mobilities[client_name] = mobility
            start_delay = max(0.0, fleet.mobility.start_s - now)
            self._control(start_delay, mobility.start)
        for workload_index, workload in enumerate(fleet.workloads):
            start_delay = max(0.0, workload.start_s - now)
            self._control(
                start_delay, self._start_workload, workload, client_name, client_index, workload_index
            )

    def _make_mobility(
        self, spec: MobilitySpec, client, client_name: str
    ) -> Optional[MobilityModel]:
        params = dict(spec.params)
        if spec.model == "static":
            # A static client needs no ticking model at all.
            return None
        if spec.model == "linear":
            return LinearMobility(self.simulator, client, **params)
        if spec.model == "waypoint":
            params.setdefault("seed", self.testbed.seed_for("mobility", client_name))
            return RandomWaypointMobility(self.simulator, client, **params)
        if spec.model == "commuter":
            return CommuterMobility(self.simulator, client, **params)
        if spec.model == "trace":
            return TraceMobility(self.simulator, client, **params)
        raise ValueError(f"unknown mobility model {spec.model!r}")

    def _start_workload(
        self, workload: WorkloadSpec, client_name: str, client_index: int, workload_index: int
    ) -> None:
        client = self.testbed.clients[client_name]
        name = f"{client_name}/{workload.kind}{workload_index}"
        params = dict(workload.params)
        if workload.kind == "cbr":
            params.setdefault("server_ip", self.testbed.server_ip)
            params.setdefault("src_port", 40_000 + client_index * 8 + workload_index)
            generator = CBRTrafficGenerator(self.simulator, client, name=name, **params)
        elif workload.kind == "http":
            params.setdefault("server_ip", self.testbed.server_ip)
            params.setdefault("seed", self.testbed.seed_for("workload", client_name, workload_index))
            generator = HTTPWorkloadGenerator(self.simulator, client, name=name, **params)
        elif workload.kind == "dns":
            params.setdefault("resolver_ip", self.testbed.server_ip)
            params.setdefault("seed", self.testbed.seed_for("workload", client_name, workload_index))
            generator = DNSWorkloadGenerator(self.simulator, client, name=name, **params)
        elif workload.kind == "video":
            params.setdefault("server_ip", self.testbed.server_ip)
            generator = VideoWorkloadGenerator(self.simulator, client, name=name, **params)
        elif workload.kind == "quic":
            params.setdefault("server_ip", self.testbed.server_ip)
            params.setdefault("seed", self.testbed.seed_for("workload", client_name, workload_index))
            generator = QUICWorkloadGenerator(self.simulator, client, name=name, **params)
        elif workload.kind == "abr":
            params.setdefault("server_ip", self.testbed.server_ip)
            params.setdefault("seed", self.testbed.seed_for("workload", client_name, workload_index))
            params.setdefault("src_port", 46_000 + client_index * 8 + workload_index)
            generator = ABRVideoGenerator(self.simulator, client, name=name, **params)
        elif workload.kind == "bulk":
            params.setdefault("server_ip", self.testbed.server_ip)
            params.setdefault("total_bytes", 1_500_000.0)
            params.setdefault("src_port", 47_000 + client_index * 8 + workload_index)
            generator = BulkTransferGenerator(
                self.simulator,
                client,
                scheduler=self.testbed.hybrid,
                name=name,
                **params,
            )
        else:
            raise ValueError(f"unknown workload kind {workload.kind!r}")
        self.generators[name] = generator
        self._generator_workloads[name] = workload
        generator.start()
        # A generator spawned mid-era (staggered appearance) starts at the
        # era's share for its kind, not at full native pace.
        self._apply_era_to(name, generator)
        if workload.stop_s is not None:
            self._control(max(0.0, workload.stop_s - self.simulator.now), generator.stop)

    # ------------------------------------------------------------ traffic eras

    def _apply_era(self, era: TrafficEraSpec) -> None:
        """Rescale every era-scalable generator at an era boundary."""
        self._current_era = era
        self._eras_applied.append(
            {"at_s": era.at_s, "name": era.name, "shares": era.to_dict()["shares"]}
        )
        for name, generator in self.generators.items():
            self._apply_era_to(name, generator)

    def _apply_era_to(self, name: str, generator) -> None:
        if self._current_era is None:
            return
        workload = self._generator_workloads.get(name)
        if workload is None or not workload.era_scaled or workload.kind == "bulk":
            return
        intensity = self._current_era.intensity_for(workload.kind)
        if intensity is not None:
            generator.set_intensity(intensity)

    # ----------------------------------------------------------- attach/detach

    def _attach(self, assignment_spec, order: int, client_name: str, attempt: int) -> None:
        client = self.testbed.clients.get(client_name)
        if client is None or not client.is_connected:
            self._retry_attach(assignment_spec, order, client_name, attempt)
            return
        specs = []
        for (nf_type, config), requirements in zip(
            assignment_spec.nf_specs(), assignment_spec.nf_requirements()
        ):
            specs.append(
                NFSpec(
                    nf_type,
                    config=config,
                    requirements=NFRequirements.from_dict(requirements) if requirements else None,
                )
            )
        slo = None
        if assignment_spec.has_slo():
            slo = ChainSLO(
                max_latency_s=assignment_spec.slo_max_latency_s,
                min_bandwidth_mbps=assignment_spec.slo_min_bandwidth_mbps,
            )
        chain = ServiceChain(
            specs,
            name=f"{self.spec.name}/{assignment_spec.fleet}",
            slo=slo,
        )
        schedule = None
        if assignment_spec.daily_window is not None:
            start, end = assignment_spec.daily_window
            schedule = TimeSchedule.daily(start, end, day_length_s=assignment_spec.day_length_s)
        try:
            assignment = self.testbed.manager.attach_chain(client.ip, chain, schedule=schedule)
        except UnknownClientError:
            # Associated, but the (dis)connect event is still in flight on the
            # control channel: fall back to the station the client sees.
            station = client.current_station_name
            if station is None:
                self._retry_attach(assignment_spec, order, client_name, attempt)
                return
            assignment = self.testbed.manager.attach_chain(
                client.ip, chain, schedule=schedule, station_name=station
            )
        self.assignments.append((client_name, assignment))
        if assignment_spec.detach_at_s is not None:
            delay = max(0.0, assignment_spec.detach_at_s - self.simulator.now)
            self._control(delay, self._detach, assignment)

    def _attach_bundle(self, bundle_spec, order: int, client_name: str, attempt: int) -> None:
        """Instantiate a catalogued bundle (or one slice of it) for a client.

        The compiled chain goes through the exact same attach machinery as a
        plain ChainAssignmentSpec; the only extra step is registering the
        live instance with the BundleUpgradeOrchestrator so a later
        BundleUpgradeSpec can find and roll it.
        """
        client = self.testbed.clients.get(client_name)
        if client is None or not client.is_connected:
            self._retry_bundle_attach(bundle_spec, order, client_name, attempt)
            return
        bundle = self.testbed.upgrades.catalogue.get(bundle_spec.bundle, bundle_spec.version)
        chain = bundle.chain_for(bundle_spec.slice)
        try:
            assignment = self.testbed.manager.attach_chain(client.ip, chain)
        except UnknownClientError:
            station = client.current_station_name
            if station is None:
                self._retry_bundle_attach(bundle_spec, order, client_name, attempt)
                return
            assignment = self.testbed.manager.attach_chain(client.ip, chain, station_name=station)
        self.assignments.append((client_name, assignment))
        self.testbed.upgrades.register_instance(
            assignment.assignment_id,
            bundle.name,
            bundle.version,
            bundle_spec.slice,
            client.ip,
            fleet=bundle_spec.fleet,
        )
        if bundle_spec.detach_at_s is not None:
            delay = max(0.0, bundle_spec.detach_at_s - self.simulator.now)
            self._control(delay, self._detach_bundle, assignment)

    def _retry_bundle_attach(self, bundle_spec, order: int, client_name: str, attempt: int) -> None:
        if attempt + 1 >= _ATTACH_MAX_ATTEMPTS:
            self.attach_failures.append(f"{client_name}/bundle{order}")
            return
        self._control(
            _ATTACH_RETRY_S, self._attach_bundle, bundle_spec, order, client_name, attempt + 1
        )

    def _detach_bundle(self, assignment: Assignment) -> None:
        self.testbed.upgrades.forget_instance(assignment.assignment_id)
        self._detach(assignment)

    def _run_upgrade(self, upgrade_spec) -> None:
        self.testbed.upgrades.upgrade_bundle(
            upgrade_spec.bundle, upgrade_spec.to_version, mode=upgrade_spec.mode
        )

    def _retry_attach(self, assignment_spec, order: int, client_name: str, attempt: int) -> None:
        if attempt + 1 >= _ATTACH_MAX_ATTEMPTS:
            self.attach_failures.append(f"{client_name}/assignment{order}")
            return
        self._control(
            _ATTACH_RETRY_S, self._attach, assignment_spec, order, client_name, attempt + 1
        )

    def _detach(self, assignment: Assignment) -> None:
        if assignment.state in (AssignmentState.REMOVED, AssignmentState.FAILED):
            return
        self.testbed.manager.detach(assignment.assignment_id)

    # ---------------------------------------------------------------- running

    def advance(self, duration_s: float) -> "ScenarioRun":
        """Advance the scenario clock (callable repeatedly for phased runs)."""
        if self._finalized is not None:
            raise RuntimeError("scenario run already finalized")
        self.testbed.run(duration_s)
        self._advanced_s += duration_s
        self._compact_control_events()
        return self

    def finalize(self) -> ScenarioResult:
        """Digest the telemetry, tear everything down and drain the queue."""
        if self._finalized is not None:
            return self._finalized
        # Station -> region/shard labels (empty for a single GNFManager) let
        # MetricsDigest.diff() point a cross-region mismatch at the owning
        # shard; provenance is excluded from the hash itself.
        provenance = getattr(self.testbed.manager, "station_provenance", lambda: {})()
        digest = MetricsDigest.compute(self.telemetry_sections(), provenance=provenance)
        workload_stats = _WorkloadStats(self.generators)
        # Teardown: stop every periodic source, then run the queue dry.  A
        # correctly behaved scenario always drains; leftovers mean some
        # component kept rescheduling itself after stop() -- surfaced via
        # ``drained`` / ``pending_events_after_teardown`` and asserted on by
        # the property tests.
        for event in self._control_events:
            if event.pending:
                event.cancel()
        self._control_events.clear()
        for generator in self.generators.values():
            generator.stop()
        for mobility in self.mobilities.values():
            mobility.stop()
        self.faults.cancel_pending()
        self.testbed.stop()
        self.simulator.run(max_events=_DRAIN_MAX_EVENTS)
        pending = self.simulator.pending_events
        roaming = self.testbed.roaming
        self._finalized = ScenarioResult(
            spec=self.spec,
            seed=self.seed,
            digest=digest,
            testbed=self.testbed,
            duration_s=self._advanced_s,
            events_processed=self.simulator.events_processed,
            drained=pending == 0,
            pending_events_after_teardown=pending,
            workload_stats=workload_stats,
            handovers=len(self.testbed.handover.events),
            migrations_started=len(roaming.records),
            migrations_completed=len(roaming.completed_migrations()),
            faults_injected=int(self.faults.summary().get("faults_injected", 0.0)),
            attach_failures=list(self.attach_failures),
            placement_stats={
                "strategy": self.testbed.placement_engine.strategy.name,
                **self.testbed.placement_engine.stats(),
            },
            autoscale_summary=self.testbed.autoscaler.summary(),
            fluid_summary=self.testbed.hybrid.summary(),
        )
        return self._finalized

    # -------------------------------------------------------------- telemetry

    def telemetry_sections(self) -> Dict[str, object]:
        """The telemetry tree fed into :class:`MetricsDigest`.

        Only values that are deterministic *per run* may appear here.  In
        particular nothing derived from process-global counters (assignment
        ids, container/chain names) is included -- those differ between two
        back-to-back runs in the same process even when behaviour is
        identical.

        The per-client ``clients`` section and the per-generator
        ``workloads`` section are read-only mappings over the *live* run:
        each entry is built when it is read, so reading one after further
        ``advance()`` calls sees the run as it is then.  Copy them with
        ``dict()`` to keep a snapshot.
        """
        testbed = self.testbed
        stations: Dict[str, object] = {}
        for station_name, agent in testbed.agents.items():
            runtime = agent.runtime
            stations[station_name] = {
                "switch": testbed.topology.stations[station_name].switch.summary(),
                "fastpath": testbed.topology.stations[station_name].switch.flow_cache.stats(),
                "containers_started": runtime.containers_started,
                "containers_failed": runtime.containers_failed,
                "pulls_performed": runtime.pulls_performed,
                "containers_running": runtime.running_count,
                "deployments_completed": agent.deployments_completed,
                "deployments_failed": agent.deployments_failed,
                "heartbeats_sent": agent.heartbeats_sent,
                "connected_clients": sorted(agent.connected_clients.values()),
                # Edge-cache effectiveness is a per-station property (backhaul
                # savings), sampled by the Agent collector's ``cache`` source
                # on every tick -- digested here the way ``flows.*`` counters
                # are observable, so cache regressions flip the digest.
                "cache": {
                    key: value
                    for key, value in sorted(agent.collector.latest().items())
                    if key.startswith("cache.")
                },
            }
        gateway = testbed.topology.gateway
        manager = testbed.manager
        assignment_states: Dict[str, int] = {}
        total_migrations = 0
        for _, assignment in self.assignments:
            state = assignment.state.value
            assignment_states[state] = assignment_states.get(state, 0) + 1
            total_migrations += assignment.migrations
        return {
            # The raw simulator event count is deliberately NOT digested: it
            # is an implementation detail of the control-plane transport (a
            # coalescing ControlBus delivers the same messages at the same
            # times under far fewer events), and the digest must be identical
            # with sharding on or off.  It stays observable via
            # ``ScenarioResult.events_processed``.
            "simulator": {
                "now": self.simulator.now,
            },
            "stations": stations,
            "gateway": {
                "packets_routed_upstream": gateway.packets_routed_upstream,
                "packets_routed_downstream": gateway.packets_routed_downstream,
                "packets_dropped": gateway.packets_dropped,
                "state_chunks_routed": gateway.state_chunks_routed,
                "location_updates": gateway.location_updates,
            },
            "clients": _LiveSection(testbed.clients, _client_entry),
            "workloads": _LiveSection(self.generators, _workload_entry),
            "handover": {
                "summary": testbed.handover.summary(),
                "events": [
                    {
                        "time": event.time,
                        "client": event.client_name,
                        "old_cell": event.old_cell,
                        "new_cell": event.new_cell,
                        "completed_at": event.completed_at,
                    }
                    for event in testbed.handover.events
                ],
            },
            "roaming": {
                "summary": testbed.roaming.summary(),
                "records": [
                    {
                        "client": record.client_ip,
                        "nf_types": list(record.nf_types),
                        "from": record.from_station,
                        "to": record.to_station,
                        "strategy": record.strategy,
                        "started_at": record.started_at,
                        "completed_at": record.completed_at,
                        "coverage_gap_s": record.coverage_gap_s,
                        "state_transferred_mb": record.state_transferred_mb,
                        "bytes_moved": record.bytes_moved,
                        "rounds": record.rounds,
                        "freeze_time_s": record.freeze_time_s,
                        "downtime_s": record.downtime_s,
                        "success": record.success,
                    }
                    for record in testbed.roaming.records
                ],
            },
            "manager": {
                "heartbeats_processed": manager.heartbeats_processed,
                "client_events_processed": manager.client_events_processed,
                "assignment_states": assignment_states,
                "assignment_migrations": total_migrations,
                "scheduler_transitions": manager.scheduler.transitions,
                "notifications": manager.notifications.summary(),
            },
            # Placement counters and autoscaler actions are digested too:
            # both are stations-and-counts only (no strategy names, no
            # process-global ids), so the digest stays invariant across
            # shard counts -- and across placement strategies whenever the
            # strategies actually make the same decisions.
            "placement": testbed.placement_engine.stats(),
            # Only the behaviourally meaningful hybrid counters are digested
            # (``digest_summary`` excludes epoch bookkeeping), so scenarios
            # whose flows never go fluid digest identically across
            # ``simulation_mode`` -- the contract the cross-mode equivalence
            # tests assert.
            "fluid": testbed.hybrid.digest_summary(),
            "autoscaler": {
                "summary": testbed.autoscaler.summary(),
                "events": [
                    {
                        "time": event.time,
                        "kind": event.kind,
                        "from": event.from_station,
                        "to": event.to_station,
                        "nf_count": event.nf_count,
                    }
                    for event in testbed.autoscaler.events
                ],
            },
            "faults": {
                "summary": self.faults.summary(),
                "log": self.faults.applied,
            },
            # Live bundle census (``bundle@vN`` -> count), upgrade walk
            # counters and the per-upgrade records -- keyed by client_ip,
            # never by assignment id (process-global counter).
            "bundles": testbed.upgrades.telemetry(),
            # Applied era boundaries (time, name, shares): purely spec-driven
            # and client-side, so the section is identical across shard,
            # region and placement knobs by construction -- but any drift in
            # *when* the mix shifted flips the digest.
            "eras": self._eras_applied,
            "attach_failures": sorted(self.attach_failures),
        }


class ScenarioRunner:
    """Runs declarative scenarios (one-shot or phased)."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec.validate()

    def start(self, seed: Optional[int] = None, **overrides) -> ScenarioRun:
        """Build and start a live run (use for phased/mid-run observation).

        ``seed`` overrides the *runtime* master seed only: mobility, workload,
        jitter and fault-victim RNGs are re-derived from it, while the spec's
        structure (fleet speeds, fault plans drawn by canned builders from
        ``spec.seed``) is kept fixed -- useful for sensitivity analysis on an
        identical scenario shape.  To reseed the structure too, rebuild via
        ``build_scenario(name, seed)``.

        ``overrides`` name fields of the deployment config
        (:class:`~repro.core.testbed.TestbedConfig`, e.g. ``shard_count=4``,
        ``migration_strategy="precopy"``): the run is built from
        ``dataclasses.replace(spec.topology, **overrides)``, validated like
        any other config, and the spec itself is left untouched.  ``None``
        keeps the spec's value; a name that is not a config field raises
        :class:`ScenarioSpecError`.  ``run.testbed.config`` is what the run
        actually used.
        """
        return ScenarioRun(self.spec, seed=seed, **overrides)

    def run(self, seed: Optional[int] = None, **overrides) -> ScenarioResult:
        """Run the whole scenario; ``seed`` and ``overrides`` as for :meth:`start`."""
        run = self.start(seed=seed, **overrides)
        run.advance(self.spec.duration_s)
        return run.finalize()
