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

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

MOBILITY_MODELS = ("static", "linear", "waypoint", "commuter", "trace")
WORKLOAD_KINDS = ("cbr", "http", "dns", "video", "bulk", "quic", "abr")
#: Kinds a :class:`TrafficEraSpec` may scale.  ``bulk`` is excluded: its
#: pacing is a byte-budget contract owned by the hybrid fluid core, and
#: scaling it would break packet/hybrid digest equivalence.
ERA_SCALABLE_KINDS = ("cbr", "http", "dns", "video", "quic", "abr")
SIMULATION_MODES = ("packet", "hybrid")
FAULT_KINDS = ("station-crash", "link-degrade", "link-down", "container-oom")
STATION_PROFILES = ("router", "server")
MIGRATION_STRATEGIES = ("cold", "stateful", "precopy")
#: Placement strategy names a spec (or the ``--placement`` CLI flag) may
#: select; kept in lockstep with ``repro.core.placement.STRATEGY_FACTORIES``
#: (asserted by the placement-engine tests) so the spec layer stays free of
#: live-code imports.
PLACEMENT_STRATEGIES = (
    "closest-agent",
    "least-loaded",
    "latency-weighted",
    "bin-packing",
    "load-aware",
    "latency-aware",
    "embedding",
)


class ScenarioSpecError(ValueError):
    """A scenario spec failed validation."""


def _as_dict(value: Any) -> Any:
    """Recursively convert a spec tree into plain JSON-able data."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(key): _as_dict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_dict(item) for item in value]
    return value


@dataclass
class MobilitySpec:
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
        if self.model not in MOBILITY_MODELS:
            raise ScenarioSpecError(f"unknown mobility model {self.model!r}; valid: {MOBILITY_MODELS}")
        if self.start_s < 0:
            raise ScenarioSpecError(f"mobility start_s must be >= 0, got {self.start_s}")

    def to_dict(self) -> Dict[str, Any]:
        return {"model": self.model, "start_s": self.start_s, "params": _as_dict(self.params)}


@dataclass
class WorkloadSpec:
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
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioSpecError(f"unknown workload kind {self.kind!r}; valid: {WORKLOAD_KINDS}")
        if self.start_s < 0:
            raise ScenarioSpecError(f"workload start_s must be >= 0, got {self.start_s}")
        if self.stop_s is not None and self.stop_s <= self.start_s:
            raise ScenarioSpecError(f"workload stop_s ({self.stop_s}) must be after start_s ({self.start_s})")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start_s": self.start_s,
            "stop_s": self.stop_s,
            "era_scaled": self.era_scaled,
            "params": _as_dict(self.params),
        }


@dataclass
class TrafficEraSpec:
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_s": self.at_s,
            "shares": {kind: self.shares[kind] for kind in sorted(self.shares)},
            "name": self.name,
        }


@dataclass
class ClientFleetSpec:
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
        if not self.name:
            raise ScenarioSpecError("fleet name must be non-empty")
        if self.count < 1:
            raise ScenarioSpecError(f"fleet {self.name!r}: count must be >= 1, got {self.count}")
        if self.spread_m < 0 or self.appear_at_s < 0 or self.appear_stagger_s < 0:
            raise ScenarioSpecError(f"fleet {self.name!r}: spread/appear values must be >= 0")
        self.mobility.validate()
        for workload in self.workloads:
            workload.validate()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "position": list(self.position),
            "spread_m": self.spread_m,
            "appear_at_s": self.appear_at_s,
            "appear_stagger_s": self.appear_stagger_s,
            "mobility": self.mobility.to_dict(),
            "workloads": [workload.to_dict() for workload in self.workloads],
        }


NFEntry = Union[str, Dict[str, Any]]


@dataclass
class ChainAssignmentSpec:
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fleet": self.fleet,
            "nfs": [entry if isinstance(entry, str) else _as_dict(entry) for entry in self.nfs],
            "attach_at_s": self.attach_at_s,
            "detach_at_s": self.detach_at_s,
            "daily_window": list(self.daily_window) if self.daily_window else None,
            "day_length_s": self.day_length_s,
            "slo_max_latency_s": self.slo_max_latency_s,
            "slo_min_bandwidth_mbps": self.slo_min_bandwidth_mbps,
        }


UPGRADE_MODES = ("precopy", "stateful")


@dataclass
class BundleAssignmentSpec:
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fleet": self.fleet,
            "bundle": self.bundle,
            "version": self.version,
            "slice": self.slice,
            "attach_at_s": self.attach_at_s,
            "detach_at_s": self.detach_at_s,
        }


@dataclass
class BundleUpgradeSpec:
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
        if not self.bundle:
            raise ScenarioSpecError("upgrade bundle name must be non-empty")
        if self.to_version < 1:
            raise ScenarioSpecError(f"upgrade to_version must be >= 1, got {self.to_version}")
        if self.at_s < 0:
            raise ScenarioSpecError(f"upgrade at_s must be >= 0, got {self.at_s}")
        if self.mode not in UPGRADE_MODES:
            raise ScenarioSpecError(f"unknown upgrade mode {self.mode!r}; valid: {UPGRADE_MODES}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bundle": self.bundle,
            "to_version": self.to_version,
            "at_s": self.at_s,
            "mode": self.mode,
        }


@dataclass
class FaultSpec:
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
        if self.kind not in FAULT_KINDS:
            raise ScenarioSpecError(f"unknown fault kind {self.kind!r}; valid: {FAULT_KINDS}")
        if self.at_s < 0:
            raise ScenarioSpecError(f"fault at_s must be >= 0, got {self.at_s}")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ScenarioSpecError(f"fault duration_s must be positive, got {self.duration_s}")
        if isinstance(self.station, int) and self.station < 1:
            raise ScenarioSpecError(f"fault station index must be >= 1, got {self.station}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "station": self.station,
            "at_s": self.at_s,
            "duration_s": self.duration_s,
            "params": _as_dict(self.params),
        }


@dataclass
class TopologySpec:
    """Deployment shape, mapped onto :class:`repro.core.testbed.TestbedConfig`."""

    station_count: int = 2
    cells_per_station: int = 1
    station_spacing_m: float = 80.0
    server_count: int = 1
    station_profile: str = "router"
    migration_strategy: str = "cold"
    #: Migration-engine knobs (see :mod:`repro.core.migration`): the wire
    #: chunk size for link-routed state transfers and the iterative
    #: pre-copy round budget / downtime target / dirty-delta fraction.
    migration_chunk_bytes: int = 65536
    precopy_max_rounds: int = 4
    precopy_downtime_target_s: float = 0.05
    precopy_dirty_fraction: float = 0.25
    fastpath_enabled: bool = True
    #: Placement strategy name (see :mod:`repro.core.placement`).  The
    #: default is the paper's closest-agent behaviour; the load-aware
    #: strategies only diverge from it when stations saturate, so the
    #: existing canned library digests are strategy-invariant.
    placement_strategy: str = "closest-agent"
    #: Manager-side admission control (queue deployments aimed at saturated
    #: stations instead of letting the runtime reject them).
    admission_control: bool = False
    admission_queue_timeout_s: float = 30.0
    #: Utilization-driven horizontal autoscaling of hot chains (off by
    #: default; no autoscaler events are scheduled when disabled).
    autoscale_enabled: bool = False
    autoscale_interval_s: float = 5.0
    autoscale_up_threshold: float = 0.8
    autoscale_down_threshold: float = 0.4
    autoscale_max_replicas: int = 2
    #: Control-plane shards per region (1 x 1 = the single historical
    #: Manager).  A scenario replays to the identical MetricsDigest for any
    #: shard count -- the knob trades control-plane event overhead, not
    #: behaviour.
    shard_count: int = 1
    #: Regions: contiguous station bands labelling the
    #: :class:`~repro.core.sharding.ShardedManager`'s ``region_count *
    #: shard_count`` leaves; a scenario replays to the identical
    #: MetricsDigest for any region count.
    region_count: int = 1
    #: ``packet`` or ``hybrid`` (fluid bulk flows with packet fidelity
    #: islands; see :mod:`repro.netem.fluid`).  Scenarios without ``bulk``
    #: workloads digest identically across this knob.
    simulation_mode: str = "packet"
    fluid_epoch_s: float = 0.25
    uplink_bandwidth_bps: float = 100e6
    heartbeat_interval_s: float = 2.0
    scan_interval_s: float = 0.5
    handover_scan_jitter_s: float = 0.0
    dns_zone: Dict[str, List[str]] = field(
        default_factory=lambda: {"cdn.example.com": ["203.0.113.10"]}
    )

    def validate(self) -> None:
        if self.station_count < 1:
            raise ScenarioSpecError(f"station_count must be >= 1, got {self.station_count}")
        if self.cells_per_station < 1:
            raise ScenarioSpecError(f"cells_per_station must be >= 1, got {self.cells_per_station}")
        if self.server_count < 1:
            raise ScenarioSpecError(f"server_count must be >= 1, got {self.server_count}")
        if self.station_profile not in STATION_PROFILES:
            raise ScenarioSpecError(
                f"unknown station profile {self.station_profile!r}; valid: {STATION_PROFILES}"
            )
        if self.migration_strategy not in MIGRATION_STRATEGIES:
            raise ScenarioSpecError(
                f"unknown migration strategy {self.migration_strategy!r}; valid: {MIGRATION_STRATEGIES}"
            )
        if self.migration_chunk_bytes < 1:
            raise ScenarioSpecError(
                f"migration_chunk_bytes must be >= 1, got {self.migration_chunk_bytes}"
            )
        if self.precopy_max_rounds < 1:
            raise ScenarioSpecError(
                f"precopy_max_rounds must be >= 1, got {self.precopy_max_rounds}"
            )
        if self.precopy_downtime_target_s <= 0:
            raise ScenarioSpecError(
                f"precopy_downtime_target_s must be positive, got {self.precopy_downtime_target_s}"
            )
        if not 0.0 < self.precopy_dirty_fraction < 1.0:
            raise ScenarioSpecError(
                f"precopy_dirty_fraction must be in (0, 1), got {self.precopy_dirty_fraction}"
            )
        if self.placement_strategy not in PLACEMENT_STRATEGIES:
            raise ScenarioSpecError(
                f"unknown placement strategy {self.placement_strategy!r}; "
                f"valid: {PLACEMENT_STRATEGIES}"
            )
        if self.admission_queue_timeout_s <= 0:
            raise ScenarioSpecError(
                f"admission_queue_timeout_s must be positive, got {self.admission_queue_timeout_s}"
            )
        if self.autoscale_interval_s <= 0:
            raise ScenarioSpecError(
                f"autoscale_interval_s must be positive, got {self.autoscale_interval_s}"
            )
        if not 0.0 < self.autoscale_down_threshold < self.autoscale_up_threshold:
            raise ScenarioSpecError(
                "autoscale thresholds must satisfy 0 < down < up, got "
                f"down={self.autoscale_down_threshold}, up={self.autoscale_up_threshold}"
            )
        if self.autoscale_max_replicas < 0:
            raise ScenarioSpecError(
                f"autoscale_max_replicas must be >= 0, got {self.autoscale_max_replicas}"
            )
        if self.shard_count < 1:
            raise ScenarioSpecError(f"shard_count must be >= 1, got {self.shard_count}")
        if self.region_count < 1:
            raise ScenarioSpecError(f"region_count must be >= 1, got {self.region_count}")
        if self.region_count > self.station_count:
            raise ScenarioSpecError(
                f"region_count ({self.region_count}) cannot exceed "
                f"station_count ({self.station_count})"
            )
        if self.simulation_mode not in SIMULATION_MODES:
            raise ScenarioSpecError(
                f"unknown simulation mode {self.simulation_mode!r}; valid: {SIMULATION_MODES}"
            )
        if self.fluid_epoch_s <= 0:
            raise ScenarioSpecError(
                f"fluid_epoch_s must be positive, got {self.fluid_epoch_s}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "station_count": self.station_count,
            "cells_per_station": self.cells_per_station,
            "station_spacing_m": self.station_spacing_m,
            "server_count": self.server_count,
            "station_profile": self.station_profile,
            "migration_strategy": self.migration_strategy,
            "migration_chunk_bytes": self.migration_chunk_bytes,
            "precopy_max_rounds": self.precopy_max_rounds,
            "precopy_downtime_target_s": self.precopy_downtime_target_s,
            "precopy_dirty_fraction": self.precopy_dirty_fraction,
            "fastpath_enabled": self.fastpath_enabled,
            "placement_strategy": self.placement_strategy,
            "admission_control": self.admission_control,
            "admission_queue_timeout_s": self.admission_queue_timeout_s,
            "autoscale_enabled": self.autoscale_enabled,
            "autoscale_interval_s": self.autoscale_interval_s,
            "autoscale_up_threshold": self.autoscale_up_threshold,
            "autoscale_down_threshold": self.autoscale_down_threshold,
            "autoscale_max_replicas": self.autoscale_max_replicas,
            "shard_count": self.shard_count,
            "region_count": self.region_count,
            "simulation_mode": self.simulation_mode,
            "fluid_epoch_s": self.fluid_epoch_s,
            "uplink_bandwidth_bps": self.uplink_bandwidth_bps,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "scan_interval_s": self.scan_interval_s,
            "handover_scan_jitter_s": self.handover_scan_jitter_s,
            "dns_zone": _as_dict(self.dns_zone),
        }


@dataclass
class ScenarioSpec:
    """A complete declarative scenario.

    The five building blocks: a :class:`TopologySpec` (deployment shape,
    including the control plane's ``shard_count``), :class:`ClientFleetSpec`
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "topology": self.topology.to_dict(),
            "fleets": [fleet.to_dict() for fleet in self.fleets],
            "assignments": [assignment.to_dict() for assignment in self.assignments],
            "bundles": [bundle.to_dict() for bundle in self.bundles],
            "upgrades": [upgrade.to_dict() for upgrade in self.upgrades],
            "faults": [fault.to_dict() for fault in self.faults],
            "eras": [era.to_dict() for era in self.eras],
        }
