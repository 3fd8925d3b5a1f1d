"""Declarative service bundles and zero-gap rolling upgrades.

The charmed-OSM OAI bundle deploys a whole 5G core as per-NF operators from
one declarative document.  This module mirrors that shape on top of the
existing assignment machinery:

* :class:`BundleSpec` -- a versioned, named multi-NF service template:
  per-NF type / configuration / :class:`~repro.core.chain.NFRequirements`,
  per-NF replica bounds, ``requires`` relations, and named
  *slices* (subsets of the NF graph with their own
  :class:`~repro.core.chain.ChainSLO` -- eMBB vs. IoT).  ``chain_for``
  compiles a bundle (or one slice of it) into a plain
  :class:`~repro.core.chain.ServiceChain`, so every existing placement,
  embedding, autoscaling, migration, sharding and federation path serves
  bundles unchanged.
* :class:`BundleCatalogue` -- the registry scenarios and the CLI list;
  :func:`default_catalogue` ships the OAI-shaped ``mobile-core`` bundle in
  two versions.
* :class:`BundleUpgradeOrchestrator` -- given ``bundle@v1 -> bundle@v2``,
  walks the live instances one at a time: boot the replacement chain
  *unsteered* next to the live one, copy state (iterative precopy rounds
  through the MigrationEngine's cost model, or one stateful freeze), then
  atomically re-key the replacement under the live assignment id in a
  single simulator event -- a packet arriving at any instant sees either
  the old steering rules or the new ones, never neither.  A station crash
  (FaultInjector) or a scheduler disable racing the window makes the
  cutover *retry or stall*, never half-cut-over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.chain import ChainSLO, NFRequirements, NFSpec, ServiceChain
from repro.core.manager import AssignmentState, upgrade_staging_id
from repro.netem.simulator import Simulator
from repro.nfs import nf_entry_problem


class BundleError(ValueError):
    """Raised for malformed bundle specs or unknown catalogue lookups."""


# --------------------------------------------------------------------- specs


@dataclass(frozen=True)
class BundleNF:
    """One NF of a bundle: type, config, requirements, replica bounds and relations."""

    name: str
    nf_type: str
    config: Tuple[Tuple[str, object], ...] = ()
    requirements: Optional[NFRequirements] = None
    #: Autoscaler hints: how many replicas this NF may fan out to.
    min_replicas: int = 1
    max_replicas: int = 1
    #: Names of bundle NFs this one depends on (relations, OSM-style).
    requires: Tuple[str, ...] = ()

    def config_dict(self) -> Dict[str, object]:
        return dict(self.config)


@dataclass(frozen=True)
class SliceSpec:
    """A named subset of the bundle's NF graph with its own SLO."""

    name: str
    nf_names: Tuple[str, ...]
    slo: Optional[ChainSLO] = None
    description: str = ""


@dataclass(frozen=True)
class BundleSpec:
    """A versioned, named multi-chain service template."""

    name: str
    version: int
    description: str = ""
    nfs: Tuple[BundleNF, ...] = ()
    slices: Tuple[SliceSpec, ...] = ()

    @property
    def ref(self) -> str:
        """The catalogue reference, e.g. ``mobile-core@v2``."""
        return f"{self.name}@v{self.version}"

    def validate(self) -> None:
        if not self.name:
            raise BundleError("bundle name must be non-empty")
        if self.version < 1:
            raise BundleError(f"bundle version must be >= 1, got {self.version}")
        if not self.nfs:
            raise BundleError(f"bundle {self.ref} needs at least one NF")
        names = [nf.name for nf in self.nfs]
        if len(set(names)) != len(names):
            raise BundleError(f"bundle {self.ref} has duplicate NF names: {names}")
        known = set(names)
        for position, nf in enumerate(self.nfs):
            problem = nf_entry_problem(nf.nf_type, nf.config_dict())
            if problem is not None:
                raise BundleError(f"bundle {self.ref} NF {position} ({nf.name!r}): {problem}")
            if nf.min_replicas < 1 or nf.max_replicas < nf.min_replicas:
                raise BundleError(
                    f"bundle {self.ref} NF {nf.name!r} has invalid replica bounds "
                    f"[{nf.min_replicas}, {nf.max_replicas}]"
                )
            for dependency in nf.requires:
                if dependency not in known:
                    raise BundleError(
                        f"bundle {self.ref} NF {nf.name!r} requires unknown NF {dependency!r}"
                    )
        slice_names = [s.name for s in self.slices]
        if len(set(slice_names)) != len(slice_names):
            raise BundleError(f"bundle {self.ref} has duplicate slice names: {slice_names}")
        for slice_spec in self.slices:
            if not slice_spec.nf_names:
                raise BundleError(f"bundle {self.ref} slice {slice_spec.name!r} is empty")
            for nf_name in slice_spec.nf_names:
                if nf_name not in known:
                    raise BundleError(
                        f"bundle {self.ref} slice {slice_spec.name!r} references "
                        f"unknown NF {nf_name!r}"
                    )

    def slice(self, slice_name: str) -> SliceSpec:
        for slice_spec in self.slices:
            if slice_spec.name == slice_name:
                return slice_spec
        raise BundleError(
            f"bundle {self.ref} has no slice {slice_name!r}; "
            f"known: {[s.name for s in self.slices]}"
        )

    def slice_names(self) -> List[str]:
        return [slice_spec.name for slice_spec in self.slices]

    def nf_graph(self) -> str:
        """The NF traversal order, rendered (``amf -> smf -> upf``)."""
        return " -> ".join(nf.name for nf in self.nfs)

    def chain_for(self, slice_name: str = "") -> ServiceChain:
        """Compile this bundle (or one slice of it) into a ServiceChain.

        Every call builds a fresh chain: chains are per-assignment objects
        in the existing machinery.  The chain name carries the bundle ref
        (and slice), which is how telemetry identifies the version a live
        instance runs.
        """
        by_name = {nf.name: nf for nf in self.nfs}
        if slice_name:
            slice_spec = self.slice(slice_name)
            nf_names = slice_spec.nf_names
            slo = slice_spec.slo
            label = f"{self.ref}/{slice_name}"
        else:
            nf_names = tuple(nf.name for nf in self.nfs)
            slo = None
            label = self.ref
        specs = [
            NFSpec(
                nf_type=by_name[nf_name].nf_type,
                config=by_name[nf_name].config_dict(),
                requirements=by_name[nf_name].requirements,
            )
            for nf_name in nf_names
        ]
        return ServiceChain(specs, name=label, slo=slo)


class BundleCatalogue:
    """The registry of deployable service bundles, keyed by name@version."""

    def __init__(self) -> None:
        self._bundles: Dict[str, Dict[int, BundleSpec]] = {}

    def register(self, spec: BundleSpec) -> BundleSpec:
        spec.validate()
        versions = self._bundles.setdefault(spec.name, {})
        if spec.version in versions:
            raise BundleError(f"bundle {spec.ref} is already registered")
        versions[spec.version] = spec
        return spec

    def get(self, name: str, version: int = 0) -> BundleSpec:
        """Resolve a bundle; ``version=0`` means the latest registered."""
        versions = self._bundles.get(name)
        if not versions:
            raise BundleError(f"unknown bundle {name!r}; known: {self.names()}")
        if version == 0:
            return versions[max(versions)]
        try:
            return versions[version]
        except KeyError as exc:
            raise BundleError(
                f"bundle {name!r} has no version {version}; known: {sorted(versions)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self._bundles

    def names(self) -> List[str]:
        return sorted(self._bundles)

    def versions(self, name: str) -> List[int]:
        return sorted(self._bundles.get(name, {}))

    def refs(self) -> List[str]:
        """Every registered ``name@vN`` reference, sorted."""
        return [
            f"{name}@v{version}"
            for name in self.names()
            for version in self.versions(name)
        ]

    def specs(self) -> List[BundleSpec]:
        return [self.get(name, version) for name in self.names() for version in self.versions(name)]


def default_catalogue() -> BundleCatalogue:
    """The bundle catalogue shipped with the reproduction.

    ``mobile-core`` mirrors the charmed-OSM OAI shape: AMF/SMF control NFs
    and a UPF user plane, instantiable per slice (``embb`` runs the full
    graph under a tight SLO, ``iot`` skips the SMF under a loose one).  v2
    tightens the AMF signalling cadence and turns on UPF edge breakout --
    exactly the kind of config-only revision a rolling upgrade rolls out.
    """
    catalogue = BundleCatalogue()
    slices = (
        SliceSpec(
            name="embb",
            nf_names=("amf", "smf", "upf"),
            slo=ChainSLO(max_latency_s=0.05, min_bandwidth_mbps=6.0),
            description="high-throughput video slice",
        ),
        SliceSpec(
            name="iot",
            nf_names=("amf", "upf"),
            slo=ChainSLO(max_latency_s=0.25, min_bandwidth_mbps=0.5),
            description="massive-IoT slice",
        ),
    )
    catalogue.register(
        BundleSpec(
            name="mobile-core",
            version=1,
            description="OAI-shaped edge mobile core (AMF/SMF/UPF)",
            nfs=(
                BundleNF(
                    name="amf",
                    nf_type="amf",
                    config=(("signalling_interval_s", 5.0),),
                    requirements=NFRequirements(cpu_units=0.5),
                ),
                BundleNF(
                    name="smf",
                    nf_type="smf",
                    config=(("session_ttl_s", 60.0),),
                    requires=("amf",),
                ),
                BundleNF(
                    name="upf",
                    nf_type="upf",
                    config=(("edge_breakout", False),),
                    max_replicas=4,
                    requires=("smf",),
                ),
            ),
            slices=slices,
        )
    )
    catalogue.register(
        BundleSpec(
            name="mobile-core",
            version=2,
            description="mobile core v2: faster signalling, UPF edge breakout on",
            nfs=(
                BundleNF(
                    name="amf",
                    nf_type="amf",
                    config=(("signalling_interval_s", 4.0),),
                    requirements=NFRequirements(cpu_units=0.5),
                ),
                BundleNF(
                    name="smf",
                    nf_type="smf",
                    config=(("session_ttl_s", 90.0),),
                    requires=("amf",),
                ),
                BundleNF(
                    name="upf",
                    nf_type="upf",
                    config=(("edge_breakout", True), ("breakout_ports", (8080,))),
                    max_replicas=4,
                    requires=("smf",),
                ),
            ),
            slices=slices,
        )
    )
    return catalogue


# ----------------------------------------------------------------- upgrades


@dataclass
class BundleInstance:
    """One live bundle instantiation the orchestrator tracks."""

    assignment_id: str
    bundle: str
    version: int
    slice_name: str
    client_ip: str
    fleet: str = ""

    @property
    def ref(self) -> str:
        return f"{self.bundle}@v{self.version}"


@dataclass
class UpgradeRecord:
    """One instance's walk through the rolling-upgrade state machine.

    Deliberately keyed by ``client_ip`` (not assignment id) in telemetry:
    assignment ids come from a process-global counter and would break
    back-to-back replay digests.
    """

    client_ip: str
    bundle: str
    slice_name: str
    from_version: int
    to_version: int
    mode: str
    started_at: float
    completed_at: Optional[float] = None
    rounds: int = 0
    retries: int = 0
    state_mb: float = 0.0
    coverage_gap_s: Optional[float] = None
    downtime_s: Optional[float] = None
    success: bool = False
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "client_ip": self.client_ip,
            "bundle": self.bundle,
            "slice": self.slice_name,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "mode": self.mode,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "rounds": self.rounds,
            "retries": self.retries,
            "state_mb": round(self.state_mb, 6),
            "coverage_gap_s": self.coverage_gap_s,
            "downtime_s": self.downtime_s,
            "success": self.success,
            "detail": self.detail,
        }


UPGRADE_MODES = ("precopy", "stateful")


class BundleUpgradeOrchestrator:
    """Walks live bundle instances through ``v1 -> v2`` with zero coverage gap.

    One instance is in transition at a time (rolling), in registration
    order -- deterministic and tier-invariant, since instances register in
    scenario-controlled order and every control interaction goes through
    the Manager tier methods (whose channels are the same per-station
    objects at every shard/region count).

    Per-instance state machine::

        stage (boot v2 unsteered) --> copy (precopy rounds | stateful
        freeze) --> cutover (atomic re-key + steer, one simulator event)

    Any step that finds the world changed -- assignment gone or not ACTIVE,
    split across stations, agent down (FaultInjector crash window), staged
    containers dead -- aborts the staged chain and retries after
    ``retry_interval_s``, up to ``max_retries`` times.  The live chain is
    never touched until the cutover event itself, so a failed attempt
    leaves coverage exactly as it was.
    """

    retry_interval_s = 1.0
    max_retries = 60

    def __init__(self, simulator: Simulator, manager, engine) -> None:
        self.simulator = simulator
        self.manager = manager
        self.engine = engine
        self.catalogue = default_catalogue()
        #: assignment_id -> instance, insertion-ordered (walk order).
        self.instances: Dict[str, BundleInstance] = {}
        self.records: List[UpgradeRecord] = []
        self.cutovers = 0
        self.retries = 0
        self.aborts = 0
        self.failures = 0
        self._jobs: List[Tuple[str, BundleSpec, str]] = []
        self._busy = False
        self._stopped = False

    # ------------------------------------------------------------- registry

    def register_instance(
        self,
        assignment_id: str,
        bundle: str,
        version: int,
        slice_name: str,
        client_ip: str,
        fleet: str = "",
    ) -> BundleInstance:
        """Track one live instantiation (called by the ScenarioRunner on a
        successful bundle attach)."""
        instance = BundleInstance(
            assignment_id=assignment_id,
            bundle=bundle,
            version=version,
            slice_name=slice_name,
            client_ip=client_ip,
            fleet=fleet,
        )
        self.instances[assignment_id] = instance
        return instance

    def forget_instance(self, assignment_id: str) -> None:
        self.instances.pop(assignment_id, None)

    def live_refs(self) -> Dict[str, int]:
        """Census of live instances by ``bundle@vN`` reference."""
        census: Dict[str, int] = {}
        for instance in self.instances.values():
            census[instance.ref] = census.get(instance.ref, 0) + 1
        return dict(sorted(census.items()))

    # -------------------------------------------------------------- control

    def upgrade_bundle(self, bundle: str, to_version: int, mode: str = "precopy") -> int:
        """Queue a rolling upgrade of every live ``bundle`` instance not yet
        at ``to_version``; returns how many instances were queued."""
        if mode not in UPGRADE_MODES:
            raise BundleError(f"unknown upgrade mode {mode!r}; valid: {UPGRADE_MODES}")
        spec = self.catalogue.get(bundle, to_version)
        queued = 0
        for assignment_id, instance in self.instances.items():
            if instance.bundle == bundle and instance.version != to_version:
                self._jobs.append((assignment_id, spec, mode))
                queued += 1
        self._advance()
        return queued

    def shutdown(self) -> None:
        """Stop driving the walk (pending simulator callbacks become no-ops)."""
        self._stopped = True

    # -------------------------------------------------------- state machine

    def _advance(self) -> None:
        if self._busy or self._stopped or not self._jobs:
            return
        assignment_id, spec, mode = self._jobs.pop(0)
        instance = self.instances.get(assignment_id)
        if instance is None or instance.version == spec.version:
            self._advance()
            return
        self._busy = True
        record = UpgradeRecord(
            client_ip=instance.client_ip,
            bundle=instance.bundle,
            slice_name=instance.slice_name,
            from_version=instance.version,
            to_version=spec.version,
            mode=mode,
            started_at=self.simulator.now,
        )
        self.records.append(record)
        self._try_stage(instance, spec, mode, record)

    def _finish_job(self, record: UpgradeRecord, success: bool, detail: str) -> None:
        record.success = success
        record.detail = detail
        record.completed_at = self.simulator.now
        if not success:
            self.failures += 1
        self._busy = False
        self._advance()

    def _retry(self, instance: BundleInstance, spec: BundleSpec, mode: str,
               record: UpgradeRecord, reason: str) -> None:
        """Schedule another attempt (or give up past the retry budget)."""
        if self._stopped:
            return
        if record.retries >= self.max_retries:
            self._finish_job(record, False, f"gave up after {record.retries} retries: {reason}")
            return
        record.retries += 1
        self.retries += 1
        self.simulator.schedule(self.retry_interval_s, self._try_stage, instance, spec, mode, record)

    def _instance_ready(self, instance: BundleInstance) -> Tuple[bool, str]:
        """Preconditions every attempt re-checks against the live world."""
        assignment = self.manager.find_assignment(instance.assignment_id)
        if assignment is None:
            return False, "assignment unknown"
        if assignment.state is not AssignmentState.ACTIVE:
            return False, f"assignment {assignment.state.value}"
        if assignment.is_split:
            # A split embedding's head/remote segments would need a
            # coordinated multi-station cutover; stall until it re-merges.
            return False, "assignment is split across stations"
        agent = self.manager.agents.get(assignment.station_name)
        if agent is None or not agent.is_running:
            return False, "station agent down"
        return True, ""

    def _try_stage(self, instance: BundleInstance, spec: BundleSpec, mode: str,
                   record: UpgradeRecord) -> None:
        if self._stopped:
            return
        if instance.assignment_id not in self.instances:
            self._finish_job(record, False, "instance detached")
            return
        ready, reason = self._instance_ready(instance)
        if not ready:
            self._retry(instance, spec, mode, record, reason)
            return
        assignment = self.manager.find_assignment(instance.assignment_id)
        staged_station = assignment.station_name
        new_chain = spec.chain_for(instance.slice_name)

        def staged(success: bool, detail: str) -> None:
            if self._stopped:
                return
            if not success:
                self._abort_staged(instance.assignment_id, staged_station)
                self._retry(instance, spec, mode, record, f"staging failed: {detail}")
                return
            current = self.manager.find_assignment(instance.assignment_id)
            if current is None or current.station_name != staged_station:
                # The client roamed mid-boot: the staged chain sits at the
                # wrong station now.  Drop it there and start over.
                self._abort_staged(instance.assignment_id, staged_station)
                self._retry(instance, spec, mode, record, "assignment moved during staging")
                return
            self._copy_phase(instance, spec, mode, record, new_chain, staged_station)

        self.manager.stage_chain_upgrade(instance.assignment_id, new_chain, staged)

    def _abort_staged(self, assignment_id: str, station_name: str) -> None:
        """Remove a staged replacement at the station it was booted on.

        Targets the station directly (not the assignment's *current* home):
        a client may have roamed since staging, and the leak would otherwise
        sit at the old station forever.
        """
        agent = self.manager.agents.get(station_name)
        if agent is not None:
            self.manager.channels[station_name].call(
                agent.remove_chain, upgrade_staging_id(assignment_id)
            )
        self.aborts += 1

    # ----------------------------------------------------------- copy phase

    def _export_live_state(self, instance: BundleInstance, station_name: str) -> Optional[List[Dict[str, object]]]:
        """Synchronously snapshot the live chain's NF state (StatefulPolicy
        reads the old agent the same way)."""
        agent = self.manager.agents.get(station_name)
        if agent is None:
            return None
        return agent.export_chain_state(instance.assignment_id)

    def _copy_phase(self, instance: BundleInstance, spec: BundleSpec, mode: str,
                    record: UpgradeRecord, new_chain: ServiceChain, station: str) -> None:
        if self._stopped:
            return
        if mode == "stateful":
            self._stateful_freeze(instance, spec, record, new_chain, station)
        else:
            states = self._export_live_state(instance, station) or []
            state_mb = self.engine.serialized_state_mb(states)
            record.state_mb = state_mb
            # Round 0 moves the full state while the old chain keeps
            # serving; each later round moves the fraction dirtied since.
            copy_time = self.engine.estimate_copy_time_s(station, state_mb)
            self.simulator.schedule(
                copy_time, self._precopy_round, instance, spec, record, new_chain, station,
                state_mb * self.engine.precopy_dirty_fraction, 1,
            )

    def _precopy_round(self, instance: BundleInstance, spec: BundleSpec, record: UpgradeRecord,
                       new_chain: ServiceChain, station: str, delta_mb: float, round_index: int) -> None:
        if self._stopped:
            return
        record.rounds = round_index
        next_delta_time = self.engine.estimate_copy_time_s(station, delta_mb)
        if (
            next_delta_time <= self.engine.precopy_downtime_target_s
            or round_index >= self.engine.precopy_max_rounds
        ):
            # Converged (or out of rounds): the final delta rides inside the
            # freeze window.  The old chain stays steered until the cutover
            # event, so the coverage gap is structurally zero; the freeze is
            # the *downtime* (the window where new state stops applying).
            final_states = self._export_live_state(instance, station)
            if final_states is None:
                self._abort_staged(instance.assignment_id, station)
                self._retry(instance, spec, "precopy", record, "station lost before final copy")
                return
            record.downtime_s = next_delta_time
            record.coverage_gap_s = 0.0
            self.simulator.schedule(
                next_delta_time, self._do_cutover, instance, spec, "precopy",
                record, new_chain, station, final_states,
            )
            return
        self.simulator.schedule(
            next_delta_time, self._precopy_round, instance, spec, record, new_chain, station,
            delta_mb * self.engine.precopy_dirty_fraction, round_index + 1,
        )

    def _stateful_freeze(self, instance: BundleInstance, spec: BundleSpec, record: UpgradeRecord,
                         new_chain: ServiceChain, station: str) -> None:
        """Suspend the live chain, copy everything, cut over: simple, but the
        coverage gap is the whole copy."""

        def suspended(gap_start: float) -> None:
            if self._stopped:
                return
            final_states = self._export_live_state(instance, station) or []
            state_mb = self.engine.serialized_state_mb(final_states)
            record.state_mb = state_mb
            copy_time = self.engine.estimate_copy_time_s(station, state_mb)
            record.coverage_gap_s = None  # measured at the cutover event
            self.simulator.schedule(
                copy_time, self._do_cutover, instance, spec, "stateful",
                record, new_chain, station, final_states, gap_start,
            )

        self.manager.suspend_chain_upgrade(instance.assignment_id, suspended)

    # -------------------------------------------------------------- cutover

    def _do_cutover(self, instance: BundleInstance, spec: BundleSpec, mode: str,
                    record: UpgradeRecord, new_chain: ServiceChain, station: str,
                    final_states: List[Dict[str, object]],
                    gap_start: Optional[float] = None) -> None:
        if self._stopped:
            return

        def done(success: bool, detail: str) -> None:
            if self._stopped:
                return
            if not success:
                self._abort_staged(instance.assignment_id, station)
                if mode == "stateful":
                    self._resume_suspended(instance.assignment_id, station)
                self._retry(instance, spec, mode, record, f"cutover failed: {detail}")
                return
            if mode == "stateful" and gap_start is not None:
                gap = self.simulator.now - gap_start
                record.coverage_gap_s = gap
                record.downtime_s = gap
            instance.version = spec.version
            self.cutovers += 1
            self._finish_job(record, True, "upgraded")

        current = self.manager.find_assignment(instance.assignment_id)
        if current is None or current.station_name != station:
            self._abort_staged(instance.assignment_id, station)
            self._retry(instance, spec, mode, record, "assignment moved before cutover")
            return
        self.manager.cutover_chain_upgrade(instance.assignment_id, new_chain, final_states, done)

    def _resume_suspended(self, assignment_id: str, station_name: str) -> None:
        """A stateful cutover failed after the suspend: put the old chain's
        steering back exactly as the scheduler last wanted it."""
        agent = self.manager.agents.get(station_name)
        if agent is None:
            return
        deployment = agent.deployments.get(assignment_id)
        if deployment is not None and deployment.desired_active:
            self.manager.channels[station_name].call(
                agent.set_chain_active, assignment_id, True
            )

    # ------------------------------------------------------------ telemetry

    def telemetry(self) -> Dict[str, object]:
        """Digest-safe summary: census, counters, per-upgrade records.

        No assignment ids anywhere -- they come from a process-global
        counter and would break back-to-back replay digests.
        """
        gaps = [r.coverage_gap_s for r in self.records if r.coverage_gap_s is not None]
        downtimes = [r.downtime_s for r in self.records if r.downtime_s is not None]
        return {
            "instances": self.live_refs(),
            "cutovers": self.cutovers,
            "retries": self.retries,
            "aborts": self.aborts,
            "failures": self.failures,
            "max_coverage_gap_s": max(gaps) if gaps else 0.0,
            "max_downtime_s": max(downtimes) if downtimes else 0.0,
            "records": [record.to_dict() for record in self.records],
        }
