"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain-data description of one end-to-end GNF
run: the topology to build, the client fleets to populate it with (each with
a mobility model and a workload mix), the NF chains to attach on a time
schedule, and the faults to inject.  Specs contain no live objects and no
callables, so they can be validated, serialised (``to_dict``) and replayed
byte-for-byte by :class:`~repro.scenarios.runner.ScenarioRunner`.

All times are in simulated seconds relative to scenario start (t=0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.bundles import UPGRADE_MODES
from repro.core.errors import ScenarioSpecError
from repro.core.testbed import TestbedConfig, require_finite

MOBILITY_MODELS = ("static", "linear", "waypoint", "commuter", "trace")
WORKLOAD_KINDS = ("cbr", "http", "dns", "video", "bulk", "quic", "abr")
#: Kinds a :class:`TrafficEraSpec` may scale.  ``bulk`` is excluded: its
#: pacing is a byte-budget contract owned by the hybrid fluid core, and
#: scaling it would break packet/hybrid digest equivalence.
ERA_SCALABLE_KINDS = ("cbr", "http", "dns", "video", "quic", "abr")
FAULT_KINDS = ("station-crash", "link-degrade", "link-down", "container-oom")

#: A scenario's deployment shape *is* the testbed's config: every knob is
#: declared, defaulted, documented and validated on
#: :class:`~repro.core.testbed.TestbedConfig` and nowhere else.
TopologySpec = TestbedConfig


def _as_dict(value: Any) -> Any:
    """Recursively convert a spec tree into plain JSON-able data."""
    if is_dataclass(value):
        return {f.name: _as_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): _as_dict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_dict(item) for item in value]
    return value


class _Spec:
    """Base of every spec dataclass: serialisation comes from the fields."""

    def to_dict(self) -> Dict[str, Any]:
        """The spec (and everything nested in it) as plain JSON-able data."""
        return _as_dict(self)


@dataclass
class MobilitySpec(_Spec):
    """How a fleet's clients move.

    ``model`` selects the class from :mod:`repro.wireless.mobility`;
    ``params`` holds that model's constructor keywords (``area``,
    ``speed_mps``, ``velocity_mps``, ``anchor_a`` ...).  Random models derive
    their RNG seed from the scenario's master seed automatically; an explicit
    ``seed`` in ``params`` overrides it.  ``start_s`` delays the first
    movement tick.
    """

    model: str = "static"
    start_s: float = 0.0
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        require_finite(self)
        if self.model not in MOBILITY_MODELS:
            raise ScenarioSpecError(f"unknown mobility model {self.model!r}; valid: {MOBILITY_MODELS}")
        if self.start_s < 0:
            raise ScenarioSpecError(f"mobility start_s must be >= 0, got {self.start_s}")


@dataclass
class WorkloadSpec(_Spec):
    """One traffic generator attached to every client of a fleet.

    ``kind`` selects the generator from :mod:`repro.netem.trafficgen`
    (``cbr``/``http``/``dns``/``video``/``quic``/``abr``/``bulk``);
    ``params`` holds its constructor keywords (``rate_pps``,
    ``mean_think_time_s``, ``names`` ...).  The generator starts at
    ``start_s`` and, when ``stop_s`` is set, stops there.  Seeded generators
    derive per-client seeds from the master seed.  ``era_scaled`` opts the
    generator out of :class:`TrafficEraSpec` intensity scaling when False
    (bulk workloads are never era-scaled regardless).
    """

    kind: str = "cbr"
    start_s: float = 0.0
    stop_s: Optional[float] = None
    era_scaled: bool = True
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        require_finite(self)
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioSpecError(f"unknown workload kind {self.kind!r}; valid: {WORKLOAD_KINDS}")
        if self.start_s < 0:
            raise ScenarioSpecError(f"workload start_s must be >= 0, got {self.start_s}")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ScenarioSpecError(f"workload stop_s ({self.stop_s}) must be after start_s ({self.start_s})")


@dataclass
class TrafficEraSpec(_Spec):
    """One step of a piecewise per-protocol traffic-share schedule.

    At ``at_s`` the scenario's generators are rescaled so every workload
    kind named in ``shares`` offers ``share * len(shares)`` of its native
    load -- a *uniform* share map (``1/n`` each) is behaviour-neutral, while
    a skewed one shifts the mix (e.g. the residential evening surge towards
    ABR video and QUIC).  A share of 0 pauses that kind's generators until a
    later era resumes them; kinds absent from the map keep their current
    intensity.  Shares must sum to 1 at every era boundary (a *mix*, not an
    absolute load knob) and only :data:`ERA_SCALABLE_KINDS` may appear --
    ``bulk`` byte budgets are contracts the eras must not touch.
    """

    at_s: float
    shares: Dict[str, float] = field(default_factory=dict)
    name: str = ""

    def validate(self) -> None:
        require_finite(self)
        if self.at_s < 0:
            raise ScenarioSpecError(f"era at_s must be >= 0, got {self.at_s}")
        if not self.shares:
            raise ScenarioSpecError("era shares must be non-empty")
        for kind, share in self.shares.items():
            if kind not in ERA_SCALABLE_KINDS:
                raise ScenarioSpecError(
                    f"era shares name non-scalable kind {kind!r}; valid: {ERA_SCALABLE_KINDS}"
                )
            if share < 0:
                raise ScenarioSpecError(f"era share for {kind!r} must be >= 0, got {share}")
        total = sum(self.shares.values())
        if abs(total - 1.0) > 1e-6:
            raise ScenarioSpecError(
                f"era shares must sum to 1.0, got {total} (era at_s={self.at_s})"
            )

    def intensity_for(self, kind: str) -> Optional[float]:
        """Generator intensity for ``kind`` (None = era does not touch it).

        Normalised so uniform shares map to intensity 1.0 for every kind:
        the era reshapes the *mix* without changing the aggregate load a
        uniform split would offer.
        """
        if kind not in self.shares:
            return None
        return self.shares[kind] * len(self.shares)


@dataclass
class ClientFleetSpec(_Spec):
    """A homogeneous group of mobile clients.

    Clients are named ``<name>-1 .. <name>-count`` and placed at
    ``position`` plus a per-client uniform scatter of up to ``spread_m``
    metres (drawn from the scenario seed).  ``appear_at_s`` delays when the
    first client joins the network and ``appear_stagger_s`` spaces the rest
    (the flash-crowd knob).
    """

    name: str
    count: int = 1
    position: Tuple[float, float] = (0.0, 0.0)
    spread_m: float = 0.0
    appear_at_s: float = 0.0
    appear_stagger_s: float = 0.0
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    workloads: List[WorkloadSpec] = field(default_factory=list)

    def client_names(self) -> List[str]:
        return [f"{self.name}-{index + 1}" for index in range(self.count)]

    def validate(self) -> None:
        require_finite(self)
        if not self.name:
            raise ScenarioSpecError("fleet name must be non-empty")
        if self.count < 1:
            raise ScenarioSpecError(f"fleet {self.name!r}: count must be >= 1, got {self.count}")
        if self.spread_m < 0 or self.appear_at_s < 0 or self.appear_stagger_s < 0:
            raise ScenarioSpecError(f"fleet {self.name!r}: spread/appear values must be >= 0")
        self.mobility.validate()
        for workload in self.workloads:
            workload.validate()


NFEntry = Union[str, Dict[str, Any]]


@dataclass
class ChainAssignmentSpec(_Spec):
    """Attach an NF chain to every client of a fleet.

    ``nfs`` lists the chain positions first-to-last; each entry is either a
    bare NF type name or ``{"nf_type": ..., "config": {...}, "requirements":
    {...}}`` where ``requirements`` carries per-NF resource demands
    (``cpu_units``, ``memory_mb``, ``bandwidth_mbps`` -- see
    :class:`repro.core.chain.NFRequirements`).  ``slo_max_latency_s`` and
    ``slo_min_bandwidth_mbps`` declare the chain's end-to-end SLO; the
    ``embedding`` placement strategy prices inter-station detours against it
    and rejects SLO-infeasible attachments outright.  The chain is
    attached at ``attach_at_s`` and, when ``detach_at_s`` is set, detached
    there (the churn knob).  ``daily_window`` (with ``day_length_s``) makes
    the assignment a recurring time-of-day schedule; a window whose start is
    after its end wraps the day boundary.
    """

    fleet: str
    nfs: List[NFEntry] = field(default_factory=list)
    attach_at_s: float = 1.0
    detach_at_s: Optional[float] = None
    daily_window: Optional[Tuple[float, float]] = None
    day_length_s: float = 86_400.0
    slo_max_latency_s: Optional[float] = None
    slo_min_bandwidth_mbps: float = 0.0

    def nf_specs(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Normalise ``nfs`` into (nf_type, config) pairs."""
        pairs: List[Tuple[str, Dict[str, Any]]] = []
        for entry in self.nfs:
            if isinstance(entry, str):
                pairs.append((entry, {}))
            else:
                pairs.append((str(entry["nf_type"]), dict(entry.get("config", {}))))
        return pairs

    def nf_requirements(self) -> List[Optional[Dict[str, Any]]]:
        """Per-position resource demands (``None`` where an entry has none)."""
        demands: List[Optional[Dict[str, Any]]] = []
        for entry in self.nfs:
            if isinstance(entry, str):
                demands.append(None)
            else:
                requirements = entry.get("requirements")
                demands.append(dict(requirements) if requirements else None)
        return demands

    def has_slo(self) -> bool:
        return self.slo_max_latency_s is not None or self.slo_min_bandwidth_mbps > 0

    def validate(self) -> None:
        require_finite(self)
        if not self.fleet:
            raise ScenarioSpecError("assignment fleet must be non-empty")
        if not self.nfs:
            raise ScenarioSpecError(f"assignment for fleet {self.fleet!r} needs at least one NF")
        for nf_type, _ in self.nf_specs():
            if not nf_type:
                raise ScenarioSpecError(f"assignment for fleet {self.fleet!r} has an empty NF type")
        if self.attach_at_s < 0:
            raise ScenarioSpecError(f"attach_at_s must be >= 0, got {self.attach_at_s}")
        if self.detach_at_s is not None and self.detach_at_s <= self.attach_at_s:
            raise ScenarioSpecError(
                f"detach_at_s ({self.detach_at_s}) must be after attach_at_s ({self.attach_at_s})"
            )
        if self.day_length_s <= 0:
            raise ScenarioSpecError(f"day_length_s must be positive, got {self.day_length_s}")
        if self.slo_max_latency_s is not None and self.slo_max_latency_s <= 0:
            raise ScenarioSpecError(
                f"slo_max_latency_s must be positive, got {self.slo_max_latency_s}"
            )
        if self.slo_min_bandwidth_mbps < 0:
            raise ScenarioSpecError(
                f"slo_min_bandwidth_mbps must be >= 0, got {self.slo_min_bandwidth_mbps}"
            )
        for position, requirements in enumerate(self.nf_requirements()):
            if not requirements:
                continue
            for key, value in requirements.items():
                if key not in ("cpu_units", "memory_mb", "bandwidth_mbps"):
                    raise ScenarioSpecError(
                        f"assignment for fleet {self.fleet!r}, NF {position}: "
                        f"unknown requirement {key!r}"
                    )
                if value is not None and float(value) < 0:
                    raise ScenarioSpecError(
                        f"assignment for fleet {self.fleet!r}, NF {position}: "
                        f"{key} must be >= 0, got {value}"
                    )


@dataclass
class BundleAssignmentSpec(_Spec):
    """Instantiate a catalogued service bundle for every client of a fleet.

    ``bundle`` names a :class:`repro.core.bundles.BundleSpec` in the default
    catalogue; ``version`` pins one (0 means the latest registered).
    ``slice`` selects a named slice of the bundle's NF graph (eMBB vs. IoT,
    each with its own SLO) -- empty runs the full graph.  The runner compiles
    the bundle into a plain ServiceChain at ``attach_at_s`` and registers the
    live instance with the testbed's BundleUpgradeOrchestrator, so a later
    :class:`BundleUpgradeSpec` can roll it forward.
    """

    fleet: str
    bundle: str
    version: int = 0
    slice: str = ""
    attach_at_s: float = 1.0
    detach_at_s: Optional[float] = None

    def validate(self) -> None:
        require_finite(self)
        if not self.fleet:
            raise ScenarioSpecError("bundle assignment fleet must be non-empty")
        if not self.bundle:
            raise ScenarioSpecError("bundle assignment bundle name must be non-empty")
        if self.version < 0:
            raise ScenarioSpecError(f"bundle version must be >= 0, got {self.version}")
        if self.attach_at_s < 0:
            raise ScenarioSpecError(f"attach_at_s must be >= 0, got {self.attach_at_s}")
        if self.detach_at_s is not None and self.detach_at_s <= self.attach_at_s:
            raise ScenarioSpecError(
                f"detach_at_s ({self.detach_at_s}) must be after attach_at_s ({self.attach_at_s})"
            )


@dataclass
class BundleUpgradeSpec(_Spec):
    """Roll every live instance of ``bundle`` to ``to_version`` at ``at_s``.

    ``mode`` picks the state-copy discipline: ``precopy`` (iterative dirty
    rounds while the old chain serves; zero coverage gap) or ``stateful``
    (suspend, copy everything, cut over; simple but gapped).
    """

    bundle: str
    to_version: int
    at_s: float = 0.0
    mode: str = "precopy"

    def validate(self) -> None:
        require_finite(self)
        if not self.bundle:
            raise ScenarioSpecError("upgrade bundle name must be non-empty")
        if self.to_version < 1:
            raise ScenarioSpecError(f"upgrade to_version must be >= 1, got {self.to_version}")
        if self.at_s < 0:
            raise ScenarioSpecError(f"upgrade at_s must be >= 0, got {self.at_s}")
        if self.mode not in UPGRADE_MODES:
            raise ScenarioSpecError(f"unknown upgrade mode {self.mode!r}; valid: {UPGRADE_MODES}")


@dataclass
class FaultSpec(_Spec):
    """One injected fault.

    ``kind`` is one of ``station-crash`` (cells off, uplink down, running
    containers killed, agent silent), ``link-degrade`` (uplink loss +
    bandwidth cut; ``params``: ``loss_rate``, ``bandwidth_factor``),
    ``link-down`` (uplink administratively down) and ``container-oom``
    (OOM-kill one running NF container on the station).  Faults with a
    ``duration_s`` recover automatically.
    """

    kind: str
    station: Union[str, int] = 1
    at_s: float = 0.0
    duration_s: Optional[float] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def station_name(self) -> str:
        if isinstance(self.station, int):
            return f"station-{self.station}"
        return self.station

    def validate(self) -> None:
        require_finite(self)
        if self.kind not in FAULT_KINDS:
            raise ScenarioSpecError(f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}")
        if self.at_s < 0:
            raise ScenarioSpecError(f"fault at_s must be >= 0, got {self.at_s}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ScenarioSpecError(f"fault duration_s must be positive, got {self.duration_s}")
        if isinstance(self.station, int) and self.station < 1:
            raise ScenarioSpecError(f"fault station index must be >= 1, got {self.station}")


@dataclass
class ScenarioSpec(_Spec):
    """A complete declarative scenario.

    The five building blocks: a :class:`TopologySpec` (the deployment
    config, i.e. a :class:`~repro.core.testbed.TestbedConfig`), :class:`ClientFleetSpec`
    fleets (who is there and how they move/talk), :class:`ChainAssignmentSpec`
    attachments (which NF chains follow which fleet, on what schedule),
    :class:`FaultSpec` injections, and the master ``seed`` from which every
    RNG in the run derives.  ``validate()`` returns ``self`` after checking
    cross-references (assignments name known fleets, faults target existing
    stations); ``to_dict()`` yields a plain-JSON tree that round-trips the
    whole description.  Specs contain no live objects: the same spec can be
    replayed any number of times by :class:`~repro.scenarios.runner.ScenarioRunner`
    and must produce the identical :class:`~repro.scenarios.digest.MetricsDigest`.
    """

    name: str
    description: str = ""
    #: Master seed of the run.  The runner writes it (or its ``seed=``
    #: override) into its own copy of ``topology``, so ``topology.seed`` is
    #: ignored by a scenario run.
    seed: int = 0
    duration_s: float = 60.0
    topology: TopologySpec = field(default_factory=TopologySpec)
    fleets: List[ClientFleetSpec] = field(default_factory=list)
    assignments: List[ChainAssignmentSpec] = field(default_factory=list)
    bundles: List[BundleAssignmentSpec] = field(default_factory=list)
    upgrades: List[BundleUpgradeSpec] = field(default_factory=list)
    faults: List[FaultSpec] = field(default_factory=list)
    #: Piecewise traffic-share schedule (strictly increasing ``at_s``); the
    #: runner rescales era-scalable generators at every boundary.
    eras: List[TrafficEraSpec] = field(default_factory=list)

    def validate(self) -> "ScenarioSpec":
        require_finite(self)
        if not self.name:
            raise ScenarioSpecError("scenario name must be non-empty")
        if self.duration_s <= 0:
            raise ScenarioSpecError(f"duration_s must be positive, got {self.duration_s}")
        self.topology.validate()
        fleet_names = set()
        for fleet in self.fleets:
            fleet.validate()
            if fleet.name in fleet_names:
                raise ScenarioSpecError(f"duplicate fleet name {fleet.name!r}")
            fleet_names.add(fleet.name)
        for assignment in self.assignments:
            assignment.validate()
            if assignment.fleet not in fleet_names:
                raise ScenarioSpecError(
                    f"assignment references unknown fleet {assignment.fleet!r}; "
                    f"known fleets: {sorted(fleet_names)}"
                )
        for bundle in self.bundles:
            bundle.validate()
            if bundle.fleet not in fleet_names:
                raise ScenarioSpecError(
                    f"bundle assignment references unknown fleet {bundle.fleet!r}; "
                    f"known fleets: {sorted(fleet_names)}"
                )
        bundle_names = {bundle.bundle for bundle in self.bundles}
        for upgrade in self.upgrades:
            upgrade.validate()
            if upgrade.bundle not in bundle_names:
                raise ScenarioSpecError(
                    f"upgrade references bundle {upgrade.bundle!r} but no bundle "
                    f"assignment instantiates it; known: {sorted(bundle_names)}"
                )
        for fault in self.faults:
            fault.validate()
            if isinstance(fault.station, int) and fault.station > self.topology.station_count:
                raise ScenarioSpecError(
                    f"fault targets station {fault.station} but the topology only has "
                    f"{self.topology.station_count} stations"
                )
        previous_at: Optional[float] = None
        for era in self.eras:
            era.validate()
            if previous_at is not None and era.at_s <= previous_at:
                raise ScenarioSpecError(
                    f"era boundaries must be strictly increasing, got {era.at_s} "
                    f"after {previous_at}"
                )
            previous_at = era.at_s
        return self

    def fleet(self, name: str) -> ClientFleetSpec:
        for fleet in self.fleets:
            if fleet.name == name:
                return fleet
        raise KeyError(f"unknown fleet {name!r}")

    def client_names(self) -> List[str]:
        names: List[str] = []
        for fleet in self.fleets:
            names.extend(fleet.client_names())
        return names
