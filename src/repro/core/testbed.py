"""One-call assembly of a complete emulated GNF deployment.

The demo setup in Fig. 2 is: two wireless networks (each a home router
hosting GNF), a provider network behind them, smartphones roaming between
the networks, and the Manager + UI watching everything.  ``GNFTestbed``
builds exactly that -- topology, cells, clients, Agents, Manager, migration
engine and dashboard -- so examples, tests and benchmarks can focus on
the scenario instead of the wiring.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Set, Tuple

from repro.core.agent import GNFAgent
from repro.core.bundles import BundleUpgradeOrchestrator
from repro.core.errors import ScenarioSpecError
from repro.core.manager import AssignmentState, GNFManager
from repro.core.migration import VALID_STRATEGIES, MigrationEngine
from repro.core.placement import (
    MAX_UTILIZATION,
    STRATEGY_FACTORIES,
    NFAutoscaler,
    PlacementEngine,
    make_strategy,
)
from repro.core.repository import NFRepository
from repro.core.seeds import derive_seed
from repro.core.sharding import ShardedManager
from repro.core.ui import GNFDashboard
from repro.netem.fluid import SIMULATION_MODES, FluidFlow, FluidPath, HybridScheduler
from repro.netem.simulator import Simulator
from repro.netem.topology import STATION_PROFILES, EdgeTopology, TopologyConfig
from repro.wireless.cell import Cell
from repro.wireless.client import MobileClient
from repro.wireless.handover import HandoverManager
from repro.wireless.radio import RadioEnvironment


def require_finite(spec) -> None:
    """Reject a NaN or infinite number in a dataclass's own fields.

    Every comparison with NaN is false, so a ``x <= 0`` rule lets it pass,
    and an infinite time or rate never fires.  A tuple or list (a
    position) is checked element-wise; nested specs check themselves.
    """
    for item in fields(spec):
        value = getattr(spec, item.name)
        numbers = value if isinstance(value, (tuple, list)) else (value,)
        if any(isinstance(number, float) and not math.isfinite(number) for number in numbers):
            raise ScenarioSpecError(f"{item.name} must be finite, got {value!r}")


@dataclass
class TestbedConfig:
    """Every knob of the emulated deployment, declared once.

    Plain data: names and numbers only, so a config compares, copies
    (``dataclasses.replace``) and serialises (:meth:`to_dict`) as a value.
    ``repro.scenarios.TopologySpec`` is this class; a scenario's
    ``topology`` is one of these and run-time overrides are a ``replace``
    on it.  :meth:`validate` is the only place a knob is checked.
    """

    # Not a pytest test class, despite the name.
    __test__ = False

    #: Master seed for the whole run.  Every RNG in the deployment (mobility,
    #: workload generators, handover jitter, fault schedules) derives its own
    #: child seed from this one via :func:`repro.core.seeds.derive_seed`, so
    #: two testbeds built from the same config replay identically and varying
    #: this single knob varies every random decision at once.  A scenario run
    #: ignores the value on ``spec.topology`` and writes ``ScenarioSpec.seed``
    #: (or the runner's ``seed=`` override) into its own copy.
    seed: int = 0
    station_count: int = 2
    cells_per_station: int = 1
    #: Station compute class by name, a key of
    #: :data:`repro.netem.topology.STATION_PROFILES` (``router``/``server``).
    station_profile: str = "router"
    station_spacing_m: float = 80.0
    uplink_bandwidth_bps: float = 100e6
    server_count: int = 1
    dns_zone: Dict[str, List[str]] = field(default_factory=lambda: {"cdn.example.com": ["203.0.113.10"]})
    #: ``cold``/``stateful``/``precopy`` (see :mod:`repro.core.migration`).
    migration_strategy: str = "cold"
    #: Iterative pre-copy knobs: maximum dirty-delta rounds before the
    #: freeze, the downtime the final copy must fit into, and how much of
    #: the state is re-dirtied between rounds.
    precopy_max_rounds: int = 4
    precopy_downtime_target_s: float = 0.05
    precopy_dirty_fraction: float = 0.25
    heartbeat_interval_s: float = 2.0
    scan_interval_s: float = 0.5
    #: Uniform +/- jitter applied to every handover scan interval (models
    #: unsynchronised Wi-Fi scan timers).  0 keeps scans strictly periodic.
    handover_scan_jitter_s: float = 0.0
    #: Placement strategy, a key of
    #: :data:`repro.core.placement.STRATEGY_FACTORIES`.  ``closest-agent`` is
    #: the paper's behaviour; the load-aware strategies only diverge from it
    #: when stations saturate, so the canned library digests are
    #: strategy-invariant.
    placement_strategy: str = "closest-agent"
    #: Manager-side admission control: when on, deployments aimed at a
    #: saturated station are queued (retried as capacity frees, timed out
    #: after ``admission_queue_timeout_s``) instead of dispatched to fail at
    #: the runtime.  Off by default -- the historical behaviour.
    admission_control: bool = False
    admission_queue_timeout_s: float = 30.0
    #: Utilization-driven autoscaler: scales hot chains horizontally with
    #: load-balancer-fronted replicas on nearby stations and rebalances via
    #: the migration engine.  Off by default (no autoscaler events are
    #: scheduled when disabled).
    autoscale_enabled: bool = False
    autoscale_interval_s: float = 5.0
    autoscale_up_threshold: float = 0.8
    autoscale_down_threshold: float = 0.4
    autoscale_max_replicas: int = 2
    #: Flow-cached fast path on the station switches (disable to measure the
    #: pure slow-path baseline, e.g. in benchmark E6).
    fastpath_enabled: bool = True
    #: Control-plane shards *per region*.  ``1 x 1`` (the default) builds
    #: the single historical :class:`~repro.core.manager.GNFManager`; any
    #: other shape builds one :class:`~repro.core.sharding.ShardedManager`
    #: over ``region_count * shard_count`` leaves, each serving a contiguous
    #: band of stations, with agent->Manager traffic coalesced through a
    #: ControlBus.  Scenario digests are identical for every shape.
    shard_count: int = 1
    #: Number of regions: contiguous station bands that label the leaves
    #: (``region-r/shard-s``), group them in the streaming telemetry rollup
    #: tree and decide which roaming handoffs count as cross-region.
    region_count: int = 1
    #: ``packet`` (the historical pure packet-level engine) or ``hybrid``
    #: (bulk flows become fluid rate processes solved per-link, demoted to
    #: packets inside fidelity islands -- see :mod:`repro.netem.fluid`).
    #: Non-bulk workloads are packet-level in both modes, so scenarios
    #: without bulk traffic digest identically across this knob.
    simulation_mode: str = "packet"

    def validate(self) -> "TestbedConfig":
        """Check every knob; raise :class:`ScenarioSpecError` for the first bad one."""

        def reject(name: str, rule: str) -> None:
            raise ScenarioSpecError(f"{name} {rule}, got {getattr(self, name)!r}")

        require_finite(self)

        for name, registry in (
            ("station_profile", STATION_PROFILES),
            ("migration_strategy", VALID_STRATEGIES),
            ("placement_strategy", STRATEGY_FACTORIES),
            ("simulation_mode", SIMULATION_MODES),
        ):
            if getattr(self, name) not in registry:
                reject(name, f"must be one of {list(registry)}")
        for name in (
            "station_count",
            "cells_per_station",
            "server_count",
            "precopy_max_rounds",
            "shard_count",
            "region_count",
        ):
            if getattr(self, name) < 1:
                reject(name, "must be >= 1")
        for name in (
            "uplink_bandwidth_bps",
            "precopy_downtime_target_s",
            "heartbeat_interval_s",
            "scan_interval_s",
            "admission_queue_timeout_s",
            "autoscale_interval_s",
        ):
            if getattr(self, name) <= 0:
                reject(name, "must be positive")
        for name in ("handover_scan_jitter_s", "autoscale_max_replicas"):
            if getattr(self, name) < 0:
                reject(name, "must be >= 0")
        if not 0.0 < self.precopy_dirty_fraction < 1.0:
            reject("precopy_dirty_fraction", "must be in (0, 1)")
        if not 0.0 < self.autoscale_down_threshold < self.autoscale_up_threshold:
            raise ScenarioSpecError(
                "need 0 < autoscale_down_threshold < autoscale_up_threshold, got "
                f"{self.autoscale_down_threshold} and {self.autoscale_up_threshold}"
            )
        if self.autoscale_up_threshold > MAX_UTILIZATION:
            # No station above MAX_UTILIZATION fits a replica, so a higher
            # threshold would call stations cool that can never take one.
            reject("autoscale_up_threshold", f"must be <= MAX_UTILIZATION ({MAX_UTILIZATION})")
        if self.region_count > self.station_count:
            reject("region_count", f"cannot exceed station_count ({self.station_count})")
        return self

    def to_dict(self) -> Dict[str, object]:
        """The config as plain JSON-able data (``TestbedConfig(**d)`` rebuilds it)."""
        return asdict(self)


class GNFTestbed:
    """A fully wired emulated edge deployment running GNF.

    Construction assembles everything Fig. 2 shows: the edge topology
    (stations, gateway, core servers), one cell and one
    :class:`~repro.core.agent.GNFAgent` per station, the central Manager --
    a single :class:`~repro.core.manager.GNFManager` by default, or a
    :class:`~repro.core.sharding.ShardedManager` when
    ``config.region_count * config.shard_count > 1`` -- the migration
    engine (``roaming``), the handover manager and the operator dashboard.  :meth:`start` begins client
    association scanning; :meth:`run` advances the shared simulator;
    :meth:`stop` halts every periodic activity so the event queue drains.
    """

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        # Validate before anything is built: a bad knob leaves nothing behind.
        self.config = (config or TestbedConfig()).validate()
        self.simulator = Simulator()
        self.topology = EdgeTopology(
            self.simulator,
            TopologyConfig(
                station_count=self.config.station_count,
                station_profile=STATION_PROFILES[self.config.station_profile],
                station_spacing_m=self.config.station_spacing_m,
                uplink_bandwidth_bps=self.config.uplink_bandwidth_bps,
                server_count=self.config.server_count,
                # Copied, so a run never mutates the config it was built from.
                dns_zone={name: list(ips) for name, ips in self.config.dns_zone.items()},
                fastpath_enabled=self.config.fastpath_enabled,
            ),
        )
        self.repository = NFRepository.with_default_catalog()
        self.placement_engine = PlacementEngine(
            self.simulator,
            strategy=make_strategy(self.config.placement_strategy),
            repository=self.repository,
            admission_control=self.config.admission_control,
            queue_timeout_s=self.config.admission_queue_timeout_s,
            # Commitments only need to bridge the heartbeat blind window.
            pending_ttl_s=self.config.heartbeat_interval_s + 1.0,
        )
        if self.config.region_count * self.config.shard_count > 1:
            self.manager = ShardedManager(
                self.simulator,
                shard_count=self.config.shard_count,
                region_count=self.config.region_count,
                station_count=self.config.station_count,
                repository=self.repository,
                topology=self.topology,
                placement_engine=self.placement_engine,
            )
        else:
            self.manager = GNFManager(
                self.simulator,
                repository=self.repository,
                topology=self.topology,
                placement_engine=self.placement_engine,
            )
        self.radio = RadioEnvironment()
        self.handover = HandoverManager(
            self.simulator,
            self.topology,
            radio_environment=self.radio,
            scan_interval_s=self.config.scan_interval_s,
            scan_jitter_s=self.config.handover_scan_jitter_s,
            jitter_rng=random.Random(self.seed_for("handover", "scan-jitter")),
        )
        # Feed the embedding strategy the handover scan path's radio view so
        # SLO pricing can use per-client PHY rates and backhaul headroom.
        self.placement_engine.bind_radio(
            self.handover.station_link_rates,
            uplink_bandwidth_mbps=self.config.uplink_bandwidth_bps / 1e6,
        )
        self.roaming = self.manager.roaming = MigrationEngine(
            self.simulator,
            self.manager,
            strategy=self.config.migration_strategy,
            precopy_max_rounds=self.config.precopy_max_rounds,
            precopy_downtime_target_s=self.config.precopy_downtime_target_s,
            precopy_dirty_fraction=self.config.precopy_dirty_fraction,
        )
        self.autoscaler = NFAutoscaler(
            self.simulator,
            self.manager,
            roaming=self.roaming,
            interval_s=self.config.autoscale_interval_s,
            scale_up_threshold=self.config.autoscale_up_threshold,
            scale_down_threshold=self.config.autoscale_down_threshold,
            max_replicas_per_chain=self.config.autoscale_max_replicas,
        )
        self.upgrades = BundleUpgradeOrchestrator(self.simulator, self.manager, engine=self.roaming)
        self.ui = GNFDashboard(self.manager)
        self.hybrid = HybridScheduler(self.simulator, mode=self.config.simulation_mode)
        self.hybrid.chained_clients = self._chained_client_ips
        self.hybrid.migration_stations = self.roaming.transfers.active_transfer_stations
        self.hybrid.path_resolver = self._resolve_fluid_path
        #: One :class:`FluidPath` per ``(station, dst_ip)``: the links between
        #: a station and a server are fixed once the topology is built.
        self._fluid_paths: Dict[Tuple[str, str], FluidPath] = {}
        self.agents: Dict[str, GNFAgent] = {}
        self.cells: Dict[str, Cell] = {}
        self.clients: Dict[str, MobileClient] = {}
        self._build_stations()
        # Price the runtime's per-container bookkeeping into placement's
        # memory estimates, so fit checks match what admission charges
        # (validate() guarantees at least one station, hence one agent).
        self.placement_engine.nf_overhead_mb = next(
            iter(self.agents.values())
        ).runtime.per_container_overhead_mb
        self.manager.start()

    # ----------------------------------------------------------------- seeds

    def seed_for(self, *path: object) -> int:
        """Child seed for one component, derived from ``config.seed``.

        Use a stable label path (e.g. ``seed_for("mobility", client.name)``)
        so the same component gets the same seed on every replay while
        distinct components get independent streams.
        """
        return derive_seed(self.config.seed, *path)

    # ---------------------------------------------------------- hybrid wiring

    def _chained_client_ips(self) -> Set[str]:
        """Fidelity island: IPs of the clients with a live NF chain attached."""
        dead = (AssignmentState.REMOVED, AssignmentState.FAILED)
        return {
            assignment.client_ip
            for assignment in self.manager.assignments.values()
            if assignment.state not in dead
        }

    def _resolve_fluid_path(self, flow: FluidFlow) -> Optional[FluidPath]:
        """Shared links an upload from ``flow.client`` to ``flow.dst_ip`` crosses.

        Keyed by the client's *current* station, so a roaming client's flow
        picks up the other station's path at the next epoch.  Unroutable
        flows (client not associated anywhere) resolve to ``None`` and stay
        packet-level.
        """
        cell = getattr(flow.client, "associated_cell", None)
        if cell is None:
            return None
        key = (cell.station_name, flow.dst_ip)
        path = self._fluid_paths.get(key)
        if path is None:
            path = self._build_fluid_path(*key)
            if path is not None:
                self._fluid_paths[key] = path
        return path

    def _build_fluid_path(self, station_name: str, dst_ip: str) -> Optional[FluidPath]:
        """The path from ``station_name`` to ``dst_ip``, or None for an unknown station.

        Direction keys follow the attach order in
        :class:`~repro.netem.topology.EdgeTopology`: station->gateway and
        gateway->core are the links' ``a_to_b`` sides, core->server is the
        server link's ``b_to_a`` side.
        """
        uplink = self.topology.uplink_links.get(station_name)
        if uplink is None:
            return None
        links: List[Tuple[object, str]] = [(uplink, "a_to_b"), (self.topology.core_link, "a_to_b")]
        server_link = self.topology.server_links.get(dst_ip)
        if server_link is not None:
            links.append((server_link, "b_to_a"))
        return FluidPath(
            station=station_name,
            links=links,
            counters=self.hybrid.station_counters_for(station_name),
            switch=self.topology.stations[station_name].switch,
        )

    # ----------------------------------------------------------------- build

    def _build_stations(self) -> None:
        for station_name, station in self.topology.stations.items():
            agent = GNFAgent(
                self.simulator,
                station,
                self.repository,
                pull_bandwidth_bps=self.config.uplink_bandwidth_bps,
                heartbeat_interval_s=self.config.heartbeat_interval_s,
            )
            if self.hybrid.hybrid_enabled:
                agent.collector.add_source(
                    "fluid",
                    lambda name=station_name: dict(self.hybrid.station_counters_for(name)),
                )
            self.agents[station_name] = agent
            self.manager.register_agent(agent)
            for cell_index in range(self.config.cells_per_station):
                self._add_cell(station_name, station.position, cell_index, agent)

    def _add_cell(
        self,
        station_name: str,
        station_position: Tuple[float, float],
        cell_index: int,
        agent: GNFAgent,
    ) -> Cell:
        cell_name = f"{station_name}-cell{cell_index + 1}"
        position = (station_position[0] + cell_index * 10.0, station_position[1])
        cell = Cell(
            self.simulator,
            name=cell_name,
            station_name=station_name,
            position=position,
            mac=self.topology.addresses.allocate_mac(),
            radio_environment=self.radio,
        )
        self.topology.connect_cell(cell, station_name, cell.wired_interface)
        agent.watch_cell(cell)
        self.handover.add_cell(cell)
        self.cells[cell_name] = cell
        return cell

    # --------------------------------------------------------------- clients

    def add_client(self, name: Optional[str] = None, position: Tuple[float, float] = (0.0, 0.0)) -> MobileClient:
        """Create a mobile client at ``position`` (not yet associated)."""
        client_name = name or f"client-{len(self.clients) + 1}"
        client = MobileClient(
            self.simulator,
            name=client_name,
            ip=self.topology.addresses.allocate_ip("clients", owner=client_name),
            mac=self.topology.addresses.allocate_mac(),
            position=position,
        )
        self.clients[client_name] = client
        self.handover.add_client(client)
        return client

    def add_server(self, name: str):
        """Add an extra application server in the core."""
        self._fluid_paths.clear()  # a path interned before the server existed lacks its link
        return self.topology.add_server(name)

    # --------------------------------------------------------------- running

    def start(self) -> "GNFTestbed":
        """Associate clients with their best cells and start periodic scanning."""
        self.handover.start()
        if self.config.autoscale_enabled:
            self.autoscaler.start()
        self.hybrid.start()
        return self

    def stop(self) -> None:
        """Stop every periodic activity owned by the testbed.

        After this call the only events left on the simulator queue are
        one-shot ones (in-flight packets, boots, migrations), so running the
        simulator to exhaustion terminates -- which is what scenario teardown
        relies on to assert a clean drain.
        """
        self.handover.stop()
        # Settle the fluid world's partial epoch and stop the solver task.
        self.hybrid.stop()
        # Tear down autoscaled replicas and stop the admission retry task so
        # neither subsystem keeps rescheduling itself (or leaks containers).
        self.autoscaler.shutdown()
        self.placement_engine.stop()
        # Stop walking rolling upgrades before the migration machinery goes
        # away underneath them.
        self.upgrades.shutdown()
        # Abandon in-flight state transfers and tear down speculative
        # replicas so no migration machinery keeps rescheduling itself (and
        # no captured state or replica outlives the run).
        self.roaming.shutdown()
        self.manager.scheduler.stop()
        for agent in self.agents.values():
            agent.stop()

    def run(self, duration_s: float) -> float:
        """Advance the simulation by ``duration_s`` seconds."""
        return self.simulator.run_for(duration_s)

    def run_until(self, time_s: float) -> float:
        """Advance the simulation up to absolute time ``time_s``."""
        return self.simulator.run(until=time_s)

    # --------------------------------------------------------------- queries

    @property
    def server_ip(self) -> str:
        """IP of the first core application server."""
        return self.topology.any_server_ip()

    def agent_for(self, station_name: str) -> GNFAgent:
        """The GNF Agent daemon running on ``station_name``."""
        return self.agents[station_name]

    def station_names(self) -> List[str]:
        """Sorted names of every station in the deployment."""
        return sorted(self.topology.stations)

    def client(self, name: str) -> MobileClient:
        """Look up a mobile client created via :meth:`add_client`."""
        return self.clients[name]
