"""The placement subsystem: strategies, admission control and autoscaling.

Section 3: "the Manager notifies the closest Agent".  The original
reproduction kept that one-liner pluggable so benchmark E4 could ablate the
choice; this module promotes placement into a full subsystem:

* :class:`StationView` -- the live telemetry snapshot a strategy scores
  (memory, container slots, chain density, uplink utilization).
* :class:`CandidateMap` -- the candidates of one decision: station name ->
  view in global station order, each view built the first time it is read,
  so a strategy that only needs the client's station builds only that view.
* Pluggable :class:`PlacementStrategy` objects.  The paper's
  :class:`ClosestAgentPlacement` stays the default; the load-aware family
  (:class:`LeastLoadedPlacement`, :class:`LatencyWeightedPlacement`,
  :class:`BinPackingPlacement`) prefers the client's own station until it is
  actually loaded, so an unloaded deployment behaves exactly like the paper
  regardless of the configured strategy (the digest-invariance the E10
  matrix asserts) and the strategies only diverge under pressure -- which
  benchmark E11 measures with the ``hotspot-stadium`` scenario.
* :class:`PlacementEngine` -- the Manager-facing facade: runs the strategy
  over pending-commitment-adjusted views, applies admission control (queue
  deployments aimed at saturated stations, retry them as capacity frees,
  time them out), and keeps the placement counters.
* :class:`NFAutoscaler` -- watches per-station utilization and scales hot
  chains horizontally: replica chains (fronted by a ``load-balancer`` NF)
  boot on nearby under-loaded stations, are drained again when the hotspot
  cools, and -- when a chain is already at its replica budget -- whole
  assignments are rebalanced away through the existing
  :class:`~repro.core.migration.MigrationEngine`.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from typing import Callable, Collection, Dict, Iterable, Iterator, List, Optional, Protocol

from repro.core.api import ClientEvent
from repro.core.chain import NFSpec, ServiceChain
from repro.core.errors import DeploymentError
from repro.netem.simulator import PeriodicTask, Simulator


@dataclass
class StationView:
    """What the Manager knows about one station when placing an NF.

    Views are built by ``GNFManager.station_view()`` -- one at a time, as a
    :class:`CandidateMap` is read -- from the latest Agent heartbeat,
    falling back to the live runtime when no heartbeat has arrived yet.
    All fields beyond the original six are optional so hand-built views in
    tests and benchmarks keep working.

    :ivar name: station name (``station-1`` ...).
    :ivar free_memory_mb: memory still allocatable to NF containers.
    :ivar memory_utilization: allocated / allocatable fraction (0..1).
    :ivar running_nfs: running NF containers (the "container slots" in use).
    :ivar control_latency_s: one-way Manager->station control latency.
    :ivar client_latency_s: one-way latency from the *client's* station.
    :ivar allocatable_memory_mb: total memory the runtime may hand to NFs.
    :ivar chains: chain deployments currently hosted (chain density).
    :ivar uplink_utilization: lifetime-average uplink usage fraction (0..1).
    """

    name: str
    free_memory_mb: float
    memory_utilization: float
    running_nfs: int
    control_latency_s: float
    client_latency_s: float
    allocatable_memory_mb: float = 0.0
    chains: int = 0
    uplink_utilization: float = 0.0

    def load_score(self) -> float:
        """Composite load in ~[0, 1.1]: memory pressure dominates, uplink
        pressure and chain density break ties between memory-similar
        stations (documented so strategy comparisons are explainable)."""
        return (
            self.memory_utilization
            + 0.1 * min(1.0, self.uplink_utilization)
            + 0.01 * self.chains
        )


class CandidateMap(Mapping):
    """Station name -> :class:`StationView`, each view built when first read.

    Iterates ``stations`` (an ordered name collection) in its order, so a
    strategy that scans ``values()`` sees the global station order and its
    tie-breaks never move; a strategy that reads one station (``in``,
    ``get``) builds only that view.  A map serves one placement decision:
    its views are the telemetry of the instant it was made.
    """

    __slots__ = ("_stations", "_build", "_built")

    def __init__(self, stations: Collection[str], build: Callable[[str], StationView]) -> None:
        self._stations = stations
        self._build = build
        self._built: Dict[str, StationView] = {}

    def __getitem__(self, name: str) -> StationView:
        view = self._built.get(name)
        if view is None:
            if name not in self._stations:
                raise KeyError(name)
            view = self._built[name] = self._build(name)
        return view

    def __contains__(self, name: object) -> bool:
        return name in self._stations

    def __iter__(self) -> Iterator[str]:
        return iter(self._stations)

    def __len__(self) -> int:
        return len(self._stations)


class PlacementStrategy(Protocol):
    """Chooses a station for a client's chain.

    ``choose`` receives the station the client is attached to, the candidate
    views keyed by station name (in global station order; a
    :class:`CandidateMap` builds each on read, so read only what the rule
    needs) and the chain's estimated memory footprint; a strategy that has
    no use for the size ignores it.  The one strategy that splits a chain
    across stations (:class:`EmbeddingPlacement`) implements ``embed``
    instead, and the engine calls that.
    """

    name: str

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        """Return the chosen station name."""


def _require_candidates(candidates: Mapping[str, StationView]) -> None:
    if not candidates:
        raise DeploymentError("no candidate stations")


#: The saturation thresholds: a station fits a chain while it keeps
#: ``HEADROOM_MB`` free beyond it and sits at or below ``MAX_UTILIZATION``.
MAX_UTILIZATION = 0.85
HEADROOM_MB = 4.0


def station_fits(view: StationView, required_mb: float) -> bool:
    """The one saturation predicate: can ``required_mb`` more land here?

    Shared by bin-packing, embedding and admission control, with one pair
    of thresholds, so a strategy and the gate can never disagree about what
    "fits" means.
    """
    return (
        view.free_memory_mb >= required_mb + HEADROOM_MB
        and view.memory_utilization <= MAX_UTILIZATION
    )


class ClosestAgentPlacement:
    """Place on the station the client is currently attached to (the paper)."""

    name = "closest-agent"

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        if client_station in candidates:
            return client_station
        raise DeploymentError(f"client station {client_station!r} is not a known candidate")


class LoadAwarePlacement:
    """Pick the station with the most free memory within a latency budget.

    Unlike :class:`LeastLoadedPlacement` this legacy strategy never prefers
    the client's own station, so it spreads chains even on an idle
    deployment (kept for the E4 ablation).
    """

    name = "load-aware"

    def __init__(self, latency_budget_s: float = 0.02, min_free_memory_mb: float = 8.0) -> None:
        self.latency_budget_s = latency_budget_s
        self.min_free_memory_mb = min_free_memory_mb

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        _require_candidates(candidates)
        views = list(candidates.values())
        eligible = [
            candidate
            for candidate in views
            if candidate.client_latency_s <= self.latency_budget_s
            and candidate.free_memory_mb >= self.min_free_memory_mb
        ]
        if not eligible:
            # Relax the latency budget first but keep the memory floor: a
            # latency-miss is a degraded placement, a memory-miss is a dead
            # one.  Only when *no* station clears the floor fall back to the
            # raw candidate list (the deployment will queue or fail loudly
            # downstream instead of silently landing on a full station).
            eligible = [
                candidate
                for candidate in views
                if candidate.free_memory_mb >= self.min_free_memory_mb
            ] or views
        best = min(
            eligible,
            key=lambda candidate: (-candidate.free_memory_mb, candidate.client_latency_s, candidate.name),
        )
        return best.name


class LatencyAwarePlacement:
    """Minimise latency to the client, breaking ties by free memory."""

    name = "latency-aware"

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        _require_candidates(candidates)
        best = min(
            candidates.values(),
            key=lambda candidate: (candidate.client_latency_s, -candidate.free_memory_mb),
        )
        return best.name


class CorePlacement:
    """Always place on a designated central station (centralised-NFV baseline)."""

    name = "core"

    def __init__(self, core_station: str) -> None:
        self.core_station = core_station

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        if self.core_station in candidates:
            return self.core_station
        raise DeploymentError(f"core station {self.core_station!r} is not a known candidate")


class LeastLoadedPlacement:
    """Stay at the client's station until it is loaded, then spread.

    Below ``prefer_local_below`` (composite :meth:`StationView.load_score`)
    the client's own station wins -- the paper's behaviour, and what keeps
    an unloaded deployment digest-identical to ``closest-agent``.  Above it,
    the least-loaded candidate within ``latency_budget_s`` of the client is
    chosen (ties broken by latency, then name, so the choice is
    deterministic across shard counts).
    """

    name = "least-loaded"
    latency_budget_s = 0.05

    def __init__(self, prefer_local_below: float = 0.6) -> None:
        self.prefer_local_below = prefer_local_below

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        _require_candidates(candidates)
        local = candidates.get(client_station)
        if local is not None and local.load_score() < self.prefer_local_below:
            return client_station
        views = list(candidates.values())
        eligible = [c for c in views if c.client_latency_s <= self.latency_budget_s]
        pool = eligible or views
        best = min(pool, key=lambda c: (c.load_score(), c.client_latency_s, c.name))
        return best.name


class LatencyWeightedPlacement:
    """Minimise ``client_latency + load_weight * load_score``.

    With the default weight an off-station candidate one backhaul hop away
    (0.01 s) only wins once the local station is ~0.5 load-score units
    hotter, so light deployments keep the paper's closest-agent behaviour
    while saturated stations shed load to near neighbours first.
    """

    name = "latency-weighted"
    load_weight_s = 0.02

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        _require_candidates(candidates)
        best = min(
            candidates.values(),
            key=lambda c: (c.client_latency_s + self.load_weight_s * c.load_score(), c.name),
        )
        return best.name


class BinPackingPlacement:
    """First-fit-decreasing packing: use as few stations as possible.

    The client's station wins while the chain still fits there.  Once it is
    full, the chain is packed onto the *most* loaded station that still fits
    it (so spare stations stay empty for e.g. scheduled scale-out), falling
    back to the least-loaded station when nothing fits.
    """

    name = "bin-packing"

    def choose(self, client_station: str, candidates: Mapping[str, StationView], required_mb: float) -> str:
        _require_candidates(candidates)
        local = candidates.get(client_station)
        if local is not None and station_fits(local, required_mb):
            return client_station
        views = list(candidates.values())
        fitting = [c for c in views if station_fits(c, required_mb)]
        if fitting:
            best = max(fitting, key=lambda c: (c.load_score(), -c.client_latency_s, c.name))
            return best.name
        best = min(views, key=lambda c: (c.load_score(), c.client_latency_s, c.name))
        return best.name


@dataclass(frozen=True)
class ChainSegment:
    """One contiguous run of a chain's NFs embedded on one station.

    ``start``/``end`` index the chain's specs (``end`` exclusive), so a whole
    chain is the single segment ``(station, 0, len(chain))`` and a split
    deployment is two or more segments covering the chain without gaps.
    """

    station_name: str
    start: int
    end: int


@dataclass
class EmbeddingResult:
    """Outcome of one embedding attempt: the segment map and its SLO verdict."""

    segments: List[ChainSegment]
    feasible: bool
    slo_violation: bool = False
    reason: str = ""
    latency_s: float = 0.0
    bandwidth_mbps: float = 0.0  # 0.0 = unconstrained / unknown


class EmbeddingPlacement:
    """Constraint-aware SFC embedding: a chain may split across stations.

    While the client's station is unloaded the whole chain lands there --
    exactly :class:`LeastLoadedPlacement`'s local-preference rule, so an
    unsaturated deployment stays digest-identical to the whole-chain
    strategies.  Under pressure the chain is embedded greedily: the local
    station keeps as long a *prefix* of the chain as still fits (the NFs
    nearest the client), and the remainder spills onto neighbouring stations
    ranked by load, then by the client's radio quality towards them (stations
    the client hears poorly are deprioritized), then latency, then name.

    The engine prices each embedding against the chain's
    :class:`~repro.core.chain.ChainSLO` via :meth:`embed`: every remote
    segment adds a there-and-back inter-station hop to the latency estimate,
    and the end-to-end bandwidth is the weakest of the client's radio rate
    and the residual uplink of every station the chain crosses.  An
    SLO-infeasible chain is *rejected* -- not queued, since waiting frees
    memory but never shortens a detour.  Per-NF ``cpu_units`` demands are
    carried on the specs but not priced yet (stations publish no CPU
    capacity); memory gates the fit and bandwidth gates the SLO.
    """

    name = "embedding"
    latency_budget_s = 0.05
    prefer_local_below = 0.6

    def embed(
        self,
        client_station: str,
        candidates: Mapping[str, StationView],
        nf_sizes_mb: List[float],
        max_latency_s: Optional[float] = None,
        required_bandwidth_mbps: float = 0.0,
        radio_rates_bps: Optional[Dict[str, float]] = None,
        uplink_bandwidth_mbps: float = 0.0,
    ) -> EmbeddingResult:
        """Map the chain's NFs onto stations and price the result's SLO."""
        _require_candidates(candidates)
        if not nf_sizes_mb:
            raise DeploymentError("cannot embed an empty chain")
        rates = radio_rates_bps or {}
        local = candidates.get(client_station)
        n = len(nf_sizes_mb)
        total_mb = sum(nf_sizes_mb)

        def priced(segments: List[ChainSegment]) -> EmbeddingResult:
            latency = 0.0
            bandwidth = float("inf")
            access_rate = rates.get(client_station)
            if access_rate is not None:
                bandwidth = min(bandwidth, access_rate / 1e6)
            crossed = [client_station] + [
                segment.station_name
                for segment in segments
                if segment.station_name != client_station
            ]
            for name in crossed:
                view = candidates.get(name)
                if view is None:
                    continue
                if name != client_station:
                    # The detour out to a remote segment and back: two
                    # traversals of the client-station<->there path.
                    latency += 2.0 * view.client_latency_s
                if uplink_bandwidth_mbps > 0.0:
                    bandwidth = min(
                        bandwidth,
                        uplink_bandwidth_mbps * max(0.0, 1.0 - view.uplink_utilization),
                    )
            reported_bw = 0.0 if bandwidth == float("inf") else bandwidth
            if max_latency_s is not None and latency > max_latency_s:
                return EmbeddingResult(
                    segments,
                    feasible=False,
                    slo_violation=True,
                    reason=(
                        f"SLO infeasible: detour latency {latency * 1e3:.1f} ms "
                        f"exceeds {max_latency_s * 1e3:.1f} ms"
                    ),
                    latency_s=latency,
                    bandwidth_mbps=reported_bw,
                )
            if required_bandwidth_mbps > 0.0 and bandwidth < required_bandwidth_mbps:
                return EmbeddingResult(
                    segments,
                    feasible=False,
                    slo_violation=True,
                    reason=(
                        f"SLO infeasible: path bandwidth {reported_bw:.1f} Mbit/s "
                        f"below {required_bandwidth_mbps:.1f} Mbit/s"
                    ),
                    latency_s=latency,
                    bandwidth_mbps=reported_bw,
                )
            return EmbeddingResult(
                segments, feasible=True, latency_s=latency, bandwidth_mbps=reported_bw
            )

        # Unloaded client station: whole chain local, whatever its size --
        # the same rule (and therefore the same digests) as least-loaded.
        if local is not None and local.load_score() < self.prefer_local_below:
            return priced([ChainSegment(client_station, 0, n)])

        # Saturated: greedy prefix packing.  The local station keeps as many
        # head NFs as fit its scraps, the remainder spills onto neighbours
        # ranked by load / radio quality / latency / name.
        views = list(candidates.values())
        eligible = [c for c in views if c.client_latency_s <= self.latency_budget_s]
        pool = eligible or views

        def rank(candidate: StationView):
            return (
                candidate.load_score(),
                -rates.get(candidate.name, 0.0),
                candidate.client_latency_s,
                candidate.name,
            )

        order: List[StationView] = [local] if local is not None else []
        order.extend(sorted((c for c in pool if c.name != client_station), key=rank))
        segments: List[ChainSegment] = []
        index = 0
        for view in order:
            if index >= n:
                break
            count = 0
            while index + count < n and station_fits(
                view, sum(nf_sizes_mb[index : index + count + 1])
            ):
                count += 1
            if count:
                segments.append(ChainSegment(view.name, index, index + count))
                index += count
        if index < n:
            # Capacity-infeasible right now (may clear via the admission
            # queue).  Surface the least-loaded station as the nominal
            # target so failure reporting matches the whole-chain path.
            fallback = min(pool, key=lambda c: (c.load_score(), c.client_latency_s, c.name))
            return EmbeddingResult(
                [ChainSegment(fallback.name, 0, n)],
                feasible=False,
                slo_violation=False,
                reason=(
                    f"no embedding fits: {total_mb:.0f} MB of NFs exceed the "
                    f"capacity of all {len(order)} candidate stations"
                ),
            )
        return priced(segments)


#: Strategy names accepted by :func:`make_strategy`; the
#: ``TestbedConfig.placement_strategy`` knob (and so the ``run_scenario.py
#: --placement`` flag) accepts exactly these keys.
STRATEGY_FACTORIES: Dict[str, Callable[[], PlacementStrategy]] = {
    "closest-agent": ClosestAgentPlacement,
    "least-loaded": LeastLoadedPlacement,
    "latency-weighted": LatencyWeightedPlacement,
    "bin-packing": BinPackingPlacement,
    "load-aware": LoadAwarePlacement,
    "latency-aware": LatencyAwarePlacement,
    "embedding": EmbeddingPlacement,
}


def make_strategy(name: str) -> PlacementStrategy:
    """Build a placement strategy from its registry name."""
    try:
        factory = STRATEGY_FACTORIES[name]
    except KeyError as exc:
        raise DeploymentError(
            f"unknown placement strategy {name!r}; valid: {sorted(STRATEGY_FACTORIES)}"
        ) from exc
    return factory()


@dataclass
class PlacementDecision:
    """One placement verdict: where, and whether the deployment may proceed.

    ``segments`` is non-empty only for a *split* embedding: two or more
    :class:`ChainSegment` entries covering the chain, the first of which (the
    head, holding the client-nearest NFs) lives on ``station_name``.  An
    empty list means the historical whole-chain deployment on
    ``station_name``.  ``slo_rejected`` marks a rejection that no amount of
    queueing can cure (the SLO, not capacity, is infeasible).
    """

    station_name: str
    admitted: bool
    queued: bool = False
    reason: str = ""
    segments: List[ChainSegment] = field(default_factory=list)
    slo_rejected: bool = False


class _QueuedPlacement:
    __slots__ = ("assignment", "client_station", "chain", "enqueued_at")

    def __init__(self, assignment, client_station: str, chain, enqueued_at: float) -> None:
        self.assignment = assignment
        self.client_station = client_station
        self.chain = chain
        self.enqueued_at = enqueued_at


def _with_pending(view: StationView, extra_mb: float) -> StationView:
    """``view`` with ``extra_mb`` of booked-but-unreported memory taken off."""
    if extra_mb <= 0.0:
        return view
    allocatable = view.allocatable_memory_mb or (
        view.free_memory_mb / max(1e-9, 1.0 - view.memory_utilization)
        if view.memory_utilization < 1.0
        else view.free_memory_mb
    )
    free = max(0.0, view.free_memory_mb - extra_mb)
    utilization = (
        min(1.0, (allocatable - free) / allocatable) if allocatable > 0 else view.memory_utilization
    )
    return replace(view, free_memory_mb=free, memory_utilization=utilization)


class PlacementEngine:
    """The Manager's placement subsystem.

    One engine serves one Manager (each shard of a ``ShardedManager`` gets a
    trivial engine; the frontend's engine sees the *global* station view).
    Responsibilities:

    * run the configured :class:`PlacementStrategy` over the candidate
      :class:`StationView`\\ s, each adjusted for **pending commitments** as
      it is read --
      placements decided in the last ``pending_ttl_s`` seconds whose
      containers have not yet shown up in heartbeats, so a same-tick attach
      burst cannot pile every chain onto one stale-looking station.  Keep
      the TTL near the heartbeat interval: it only has to cover the
      telemetry blind window, and a longer TTL double-counts chains that
      heartbeats already report;
    * apply admission control when ``admission_control`` is on: queue
      deployments whose chosen station is saturated (``station_fits``),
      retry them every ``retry_interval_s`` until capacity frees, and fail
      those still waiting after ``queue_timeout_s``.  Off, every placement
      is admitted and no extra simulator event is scheduled;
    * keep the placement counters surfaced by ``stats()`` (local vs remote
      placements, rejections, queue depth high-water).

    The engine is wired to its Manager with :meth:`bind`; the callbacks keep
    this module free of Manager imports.
    """

    retry_interval_s = 1.0

    def __init__(
        self,
        simulator: Simulator,
        strategy: Optional[PlacementStrategy] = None,
        repository=None,
        admission_control: bool = False,
        queue_timeout_s: float = 30.0,
        pending_ttl_s: float = 3.0,
    ) -> None:
        self.simulator = simulator
        self.strategy: PlacementStrategy = strategy or ClosestAgentPlacement()
        self.repository = repository
        self.admission_control = admission_control
        self.queue_timeout_s = queue_timeout_s
        self.pending_ttl_s = pending_ttl_s
        # (expires_at, station, mb) commitments not yet visible in telemetry.
        self._pending: List[tuple] = []
        self._queue: List[_QueuedPlacement] = []
        self._task: Optional[PeriodicTask] = None
        self._views_provider: Optional[Callable[[str], Mapping[str, StationView]]] = None
        self._on_admit: Optional[Callable[[object, PlacementDecision], None]] = None
        self._on_timeout: Optional[Callable[[object, str], None]] = None
        self._locate: Optional[Callable[[str], Optional[str]]] = None
        # Radio signal for embedding: client_ip -> {station: PHY rate bps}.
        self._radio_rates: Optional[Callable[[str], Dict[str, float]]] = None
        self.uplink_bandwidth_mbps = 0.0
        #: Per-container bookkeeping the runtime adds on top of each NF's
        #: memory request (``ContainerRuntime.per_container_overhead_mb``).
        #: 0 until the owning testbed binds it; pricing it keeps the
        #: engine's fit checks honest against what admission will charge.
        self.nf_overhead_mb = 0.0
        self.placements = 0
        self.local_placements = 0
        self.remote_placements = 0
        self.split_placements = 0
        self.segments_placed = 0
        self.slo_rejections = 0
        self.rejections = 0
        self.retry_probes = 0
        self.queued_total = 0
        self.queue_timeouts = 0
        self.dispatched_from_queue = 0
        self.queue_high_water = 0

    # --------------------------------------------------------------- wiring

    def bind(
        self,
        views: Callable[[str], Mapping[str, StationView]],
        on_admit: Callable[[object, str], None],
        on_timeout: Callable[[object, str], None],
        locate: Optional[Callable[[str], Optional[str]]] = None,
    ) -> None:
        """Attach the callbacks of the Manager that owns the attach API (the
        last caller wins: a sharded frontend binds after its leaves).

        ``views(client_station)`` must return fresh candidates (a
        :class:`CandidateMap`);
        ``on_admit(assignment, decision)`` dispatches a queued assignment
        that finally got capacity (the decision carries the station and any
        split segments); ``on_timeout(assignment, reason)`` fails one whose
        queue time expired.  ``locate(client_ip)`` returns the client's
        *current* station so queue retries follow a client that roamed while
        its placement waited.
        """
        self._views_provider = views
        self._on_admit = on_admit
        self._on_timeout = on_timeout
        self._locate = locate

    def bind_radio(
        self,
        rates_provider: Optional[Callable[[str], Dict[str, float]]],
        uplink_bandwidth_mbps: float = 0.0,
    ) -> None:
        """Attach the radio signal embedding prices (optional wiring).

        ``rates_provider(client_ip)`` returns the per-station PHY-rate map
        from the handover scan path (``HandoverManager.station_link_rates``);
        ``uplink_bandwidth_mbps`` is the stations' backhaul capacity so
        residual uplink bandwidth can enter the SLO check.  Without this
        wiring embedding still works, it just prices no radio/backhaul term.
        """
        self._radio_rates = rates_provider
        self.uplink_bandwidth_mbps = uplink_bandwidth_mbps

    # ---------------------------------------------------------- chain sizing

    def chain_memory_mb(self, chain) -> float:
        """Estimated memory footprint of a chain (requirements, else catalogue)."""
        return sum(self.nf_sizes_mb(chain))

    def nf_sizes_mb(self, chain) -> List[float]:
        """Per-NF memory estimates: declared requirements win over the
        catalogue's image default; each carries the runtime's per-container
        overhead so estimates match what admission will actually charge."""
        sizes: List[float] = []
        for spec in chain.specs:
            requirements = spec.requirements
            if requirements is not None and requirements.memory_mb is not None:
                sizes.append(requirements.memory_mb + self.nf_overhead_mb)
            else:
                sizes.append(self.nf_memory_mb(spec.nf_type) + self.nf_overhead_mb)
        return sizes

    def chain_bandwidth_mbps(self, chain) -> float:
        """The end-to-end rate the chain's path must sustain: the SLO floor
        or the largest per-NF bandwidth demand, whichever is higher."""
        demand = 0.0
        slo = chain.slo
        if slo is not None and slo.min_bandwidth_mbps is not None:
            demand = slo.min_bandwidth_mbps
        for spec in chain.specs:
            requirements = spec.requirements
            if requirements is not None:
                demand = max(demand, requirements.bandwidth_mbps)
        return demand

    def nf_memory_mb(self, nf_type: str) -> float:
        """Catalogue default memory for one NF type (0 when unknown)."""
        if self.repository is None or nf_type not in self.repository:
            return 0.0
        return self.repository.lookup(nf_type).image.default_memory_mb

    # ------------------------------------------------------------- placement

    def _prune_pending(self) -> None:
        now = self.simulator.now
        self._pending = [entry for entry in self._pending if entry[0] > now]

    def place(
        self,
        client_station: str,
        candidates: Iterable[StationView] | Mapping[str, StationView],
        chain,
        client_ip: Optional[str] = None,
        _retry: bool = False,
    ) -> PlacementDecision:
        """Choose a station (or an embedding) for ``chain`` and apply admission.

        Pure decision logic: no simulator events are scheduled and nothing
        is mutated beyond the engine's own counters/ledger, so with the
        default strategy and admission off this is behaviour-identical to
        the pre-engine ``strategy.choose`` call.  Every strategy but
        embedding is one ``choose(client_station, views, required_mb)``
        call; embedding's ``embed`` also gets the chain's SLO and, given
        ``client_ip``, the client's radio signal.  ``candidates`` is the
        Manager's :class:`CandidateMap` (or a plain list of views).
        """
        views = self.adjusted_views(candidates)
        sizes = self.nf_sizes_mb(chain)
        required_mb = sum(sizes)
        embed = getattr(self.strategy, "embed", None)
        if embed is not None:
            result = embed(
                client_station,
                views,
                sizes,
                max_latency_s=chain.slo.max_latency_s if chain.slo is not None else None,
                required_bandwidth_mbps=self.chain_bandwidth_mbps(chain),
                radio_rates_bps=(
                    self._radio_rates(client_ip)
                    if self._radio_rates is not None and client_ip is not None
                    else None
                ),
                uplink_bandwidth_mbps=self.uplink_bandwidth_mbps,
            )
            if not result.feasible:
                if _retry:
                    self.retry_probes += 1
                else:
                    self.rejections += 1
                if result.slo_violation:
                    # Terminal: queueing frees capacity, never bandwidth or
                    # a detour -- the assignment must fail with the reason.
                    self.slo_rejections += 1
                    return PlacementDecision(
                        station_name=result.segments[0].station_name,
                        admitted=False,
                        queued=False,
                        reason=result.reason,
                        slo_rejected=True,
                    )
                return PlacementDecision(
                    station_name=result.segments[0].station_name,
                    admitted=False,
                    queued=self.admission_control,
                    reason=result.reason,
                )
            if len(result.segments) > 1:
                # A split embedding did its own per-segment fit checks; book
                # each segment's memory where it will actually land.
                for segment in result.segments:
                    self.commit(
                        segment.station_name, sum(sizes[segment.start : segment.end])
                    )
                self.placements += 1
                self.remote_placements += 1
                self.split_placements += 1
                self.segments_placed += len(result.segments)
                return PlacementDecision(
                    station_name=result.segments[0].station_name,
                    admitted=True,
                    segments=list(result.segments),
                )
            # Single segment: fall through to the common whole-chain tail so
            # admission control and the counters behave identically to the
            # non-embedding strategies.
            chosen = result.segments[0].station_name
        else:
            chosen = self.strategy.choose(client_station, views, required_mb)
        if self.admission_control:
            chosen_view = views.get(chosen)
            if chosen_view is None or not station_fits(chosen_view, required_mb):
                # Queue retries are probes, not fresh refusals: count them
                # separately so `rejections` means "deployments refused".
                if _retry:
                    self.retry_probes += 1
                else:
                    self.rejections += 1
                return PlacementDecision(
                    station_name=chosen,
                    admitted=False,
                    queued=True,
                    reason=(
                        f"station {chosen} saturated "
                        f"(free={chosen_view.free_memory_mb:.1f} MB, "
                        f"required={required_mb:.1f} MB)"
                        if chosen_view is not None
                        else f"station {chosen} has no view"
                    ),
                )
        self.commit(chosen, required_mb)
        self.placements += 1
        if chosen == client_station:
            self.local_placements += 1
        else:
            self.remote_placements += 1
        return PlacementDecision(station_name=chosen, admitted=True)

    def commit(self, station: str, required_mb: float) -> None:
        """Book memory against a station for ``pending_ttl_s``.

        :meth:`place` books each decision; the autoscaler books its replica
        and rebalance targets, so its deployments are visible to concurrent
        placement decisions during the telemetry blind window (and vice
        versa).
        """
        if required_mb > 0.0:
            self._pending.append((self.simulator.now + self.pending_ttl_s, station, required_mb))

    def adjusted_views(
        self, candidates: Iterable[StationView] | Mapping[str, StationView]
    ) -> Mapping[str, StationView]:
        """The candidates keyed by name, each view adjusted for the
        un-expired commitments as it is read.

        The commitments are summed once, here, so a view read after a
        :meth:`commit` in the same decision still sees the ledger as it was
        when the decision began.
        """
        if not isinstance(candidates, Mapping):
            candidates = {view.name: view for view in candidates}
        self._prune_pending()
        if not self._pending:
            return candidates
        pending_mb: Dict[str, float] = {}
        for _, station, mb in self._pending:
            pending_mb[station] = pending_mb.get(station, 0.0) + mb
        return CandidateMap(
            candidates, lambda name: _with_pending(candidates[name], pending_mb.get(name, 0.0))
        )

    # ----------------------------------------------------------------- queue

    def enqueue(self, assignment, client_station: str, chain) -> None:
        """Park a not-admitted assignment until capacity frees (or timeout)."""
        self._queue.append(
            _QueuedPlacement(assignment, client_station, chain, self.simulator.now)
        )
        self.queued_total += 1
        self.queue_high_water = max(self.queue_high_water, len(self._queue))
        if self._task is None:
            self._task = self.simulator.every(self.retry_interval_s, self._drain_queue)

    def cancel(self, assignment_id: str) -> bool:
        """Drop a queued placement (the assignment was detached)."""
        before = len(self._queue)
        self._queue = [entry for entry in self._queue if entry.assignment.assignment_id != assignment_id]
        return len(self._queue) != before

    def queued_assignment_ids(self) -> List[str]:
        return [entry.assignment.assignment_id for entry in self._queue]

    def _drain_queue(self) -> None:
        """One retry pass: dispatch entries that now fit, expire stale ones."""
        if self._views_provider is None:
            return
        now = self.simulator.now
        remaining: List[_QueuedPlacement] = []
        for entry in self._queue:
            if now - entry.enqueued_at >= self.queue_timeout_s:
                self.queue_timeouts += 1
                if self._on_timeout is not None:
                    self._on_timeout(
                        entry.assignment,
                        f"admission queue timeout after {self.queue_timeout_s:.0f}s",
                    )
                continue
            # Follow a client that roamed while its placement waited: retry
            # relative to where it is connected *now*, not where it was.
            client_station = entry.client_station
            if self._locate is not None:
                client_station = (
                    self._locate(entry.assignment.client_ip) or entry.client_station
                )
                entry.client_station = client_station
            decision = self.place(
                client_station,
                self._views_provider(client_station),
                entry.chain,
                client_ip=entry.assignment.client_ip,
                _retry=True,
            )
            if decision.admitted:
                self.dispatched_from_queue += 1
                if self._on_admit is not None:
                    self._on_admit(entry.assignment, decision)
            elif decision.slo_rejected:
                # The client roamed somewhere its SLO can never be met from;
                # waiting will not help, so fail the entry with the reason.
                if self._on_timeout is not None:
                    self._on_timeout(entry.assignment, decision.reason)
            else:
                remaining.append(entry)
        self._queue = remaining
        if not self._queue and self._task is not None:
            self._task.stop()
            self._task = None

    def stop(self) -> None:
        """End-of-run teardown: stop retrying and fail whatever is queued.

        Entries still waiting would otherwise be stranded as PENDING
        forever; failing them through the timeout callback gives post-run
        readers an explicit state and reason.
        """
        if self._task is not None:
            self._task.stop()
            self._task = None
        stranded, self._queue = self._queue, []
        for entry in stranded:
            self.queue_timeouts += 1
            if self._on_timeout is not None:
                self._on_timeout(entry.assignment, "run ended while queued for admission")

    # ----------------------------------------------------------------- stats

    def stats(self) -> Dict[str, float]:
        """Placement counters (digest-safe: no strategy name, no ids)."""
        return {
            "placements": float(self.placements),
            "local_placements": float(self.local_placements),
            "remote_placements": float(self.remote_placements),
            "split_placements": float(self.split_placements),
            "segments_placed": float(self.segments_placed),
            "slo_rejections": float(self.slo_rejections),
            "rejections": float(self.rejections),
            "retry_probes": float(self.retry_probes),
            "queued_total": float(self.queued_total),
            "queue_depth": float(len(self._queue)),
            "queue_high_water": float(self.queue_high_water),
            "queue_timeouts": float(self.queue_timeouts),
            "dispatched_from_queue": float(self.dispatched_from_queue),
        }


# ---------------------------------------------------------------------------
# Autoscaling
# ---------------------------------------------------------------------------


@dataclass
class ScaleEvent:
    """One autoscaler action (digest-safe: stations and sizes, no ids)."""

    time: float
    kind: str  # "scale-up" | "scale-down" | "rebalance"
    from_station: str
    to_station: str
    nf_count: int


@dataclass
class _Replica:
    """One horizontally scaled replica chain the autoscaler tracks."""

    replica_id: str
    station_name: str
    home_station: str
    nf_count: int


class NFAutoscaler:
    """Utilization-driven horizontal scaling of NF chains.

    Every ``interval_s`` the autoscaler scores each station's
    :meth:`StationView.load_score`.  A station hot for ``hot_evals``
    consecutive evaluations gets one action per evaluation:

    * **scale-up** -- the largest active chain on the hot station gains a
      replica on the least-loaded station that can fit it.  Replica chains
      are the original chain fronted by a ``load-balancer`` NF, deployed
      under a derived chain id so they never collide with the assignment's
      own deployment.
    * **rebalance** -- when no chain on the hot station can scale out any
      further (replica budgets spent, or the eligible targets already host
      their replicas), the smallest assignment is migrated to the target
      station through the existing migration engine (cold / stateful /
      precopy, whatever the deployment is configured with), which also
      keeps the move handoff-safe under a sharded control plane.  Replicas
      model warm standby capacity; the rebalance migrations are what
      actually shed load off the hot station in the emulation.

    A station cold for ``hot_evals`` evaluations has one replica drained per
    evaluation; replicas whose parent assignment disappeared are pruned
    eagerly and :meth:`shutdown` removes the rest, so a drained scenario can
    never leak replica containers (asserted by the round-trip tests).
    """

    hot_evals = 2
    rebalance_cooldown_s = 15.0

    def __init__(
        self,
        simulator: Simulator,
        manager,
        roaming,
        interval_s: float = 5.0,
        scale_up_threshold: float = 0.8,
        scale_down_threshold: float = 0.4,
        max_replicas_per_chain: int = 2,
    ) -> None:
        self.simulator = simulator
        self.manager = manager
        self.roaming = roaming
        self.interval_s = interval_s
        self.scale_up_threshold = scale_up_threshold
        self.scale_down_threshold = scale_down_threshold
        self.max_replicas_per_chain = max_replicas_per_chain
        # assignment_id -> last rebalance time (damps migration ping-pong:
        # a moved chain makes its target warmer, which must not immediately
        # bounce the same chain somewhere else).
        self._last_rebalance: Dict[str, float] = {}
        self._task: Optional[PeriodicTask] = None
        self._ids = itertools.count(1)
        # assignment_id -> station -> replica
        self._replicas: Dict[str, Dict[str, _Replica]] = {}
        self._hot_streak: Dict[str, int] = {}
        self._cold_streak: Dict[str, int] = {}
        self.events: List[ScaleEvent] = []
        self.evaluations = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.rebalances = 0
        self.replica_boot_failures = 0

    # --------------------------------------------------------------- control

    def start(self) -> "NFAutoscaler":
        """Begin periodic evaluation (idempotent)."""
        if self._task is None:
            self._task = self.simulator.every(self.interval_s, self.evaluate)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def shutdown(self) -> None:
        """End-of-run cleanup: stop evaluating and tear down every replica."""
        self.stop()
        for assignment_id in list(self._replicas):
            for replica in list(self._replicas.get(assignment_id, {}).values()):
                self._remove_replica(assignment_id, replica, count_event=False)
        self._replicas.clear()

    @property
    def active_replicas(self) -> int:
        return sum(len(replicas) for replicas in self._replicas.values())

    # ------------------------------------------------------------- evaluation

    def evaluate(self) -> None:
        """One autoscaling pass over the (shard-merged) station views."""
        self.evaluations += 1
        self._prune_dead_parents()
        views = sorted(self.manager.station_views().values(), key=lambda view: view.name)
        for view in views:
            load = view.load_score()
            if load >= self.scale_up_threshold:
                self._hot_streak[view.name] = self._hot_streak.get(view.name, 0) + 1
                self._cold_streak[view.name] = 0
            elif load <= self.scale_down_threshold:
                self._cold_streak[view.name] = self._cold_streak.get(view.name, 0) + 1
                self._hot_streak[view.name] = 0
            else:
                self._hot_streak[view.name] = 0
                self._cold_streak[view.name] = 0
        for view in views:
            if self._hot_streak.get(view.name, 0) >= self.hot_evals:
                self._handle_hot_station(view, views)
        for view in views:
            if self._cold_streak.get(view.name, 0) >= self.hot_evals:
                self._handle_cold_station(view.name)

    def _assignments_on(self, station_name: str) -> List[object]:
        # state compared by value to stay Manager-duck-typed (no core.manager
        # import from this module).
        assignments = [
            assignment
            for assignment in self.manager.assignments.values()
            if assignment.station_name == station_name and assignment.state.value == "active"
        ]
        assignments.sort(key=lambda a: (-len(a.chain), a.assignment_id))
        return assignments

    def _pick_target(self, views: List[StationView], required_mb: float, exclude: Iterable[str]):
        # Score commitment-adjusted views: deployments booked in the
        # telemetry blind window (including this autoscaler's own, from
        # earlier in the same pass) must not make a station look emptier
        # than it is.  A target must be cool and must fit the chain; with
        # the scale-up threshold at or below MAX_UTILIZATION, coolness
        # already implies station_fits' utilization half.
        excluded = set(exclude)
        candidates = [
            view
            for view in self.manager.placement_engine.adjusted_views(views).values()
            if view.name not in excluded
            and view.load_score() < self.scale_up_threshold
            and station_fits(view, required_mb)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda view: (view.load_score(), view.name))

    def _handle_hot_station(self, view: StationView, views: List[StationView]) -> None:
        assignments = self._assignments_on(view.name)
        if not assignments:
            return
        engine = self.manager.placement_engine
        for assignment in assignments:
            replicas = self._replicas.get(assignment.assignment_id, {})
            if len(replicas) >= self.max_replicas_per_chain:
                continue
            # A replica costs the chain plus its load-balancer front; size
            # both from the catalogue so the fit check and the commitment
            # booked by _scale_up can never diverge.
            required = engine.chain_memory_mb(assignment.chain) + engine.nf_memory_mb(
                "load-balancer"
            )
            target = self._pick_target(views, required, exclude=(view.name,))
            if target is None:
                break  # no station can fit any replica this round
            if target.name in replicas:
                continue  # this chain already replicated there; try the next
            self._scale_up(assignment, view.name, target.name)
            return
        # No chain could scale out (budgets spent or targets already host
        # their replicas): rebalance the smallest one that has not been
        # moved within the cooldown window.
        now = self.simulator.now
        movable = [
            assignment
            for assignment in assignments
            if now - self._last_rebalance.get(assignment.assignment_id, -1e18)
            >= self.rebalance_cooldown_s
        ]
        if not movable:
            return
        smallest = min(movable, key=lambda a: (len(a.chain), a.assignment_id))
        required = engine.chain_memory_mb(smallest.chain)
        # Never migrate a chain onto a station hosting its own replica: the
        # replica is that chain's warm standby, and coexistence would stack
        # two steering-rule sets for the identical selector.
        exclude = {view.name} | set(self._replicas.get(smallest.assignment_id, {}))
        target = self._pick_target(views, required, exclude=exclude)
        if target is not None:
            self._rebalance(smallest, view.name, target.name)

    def _handle_cold_station(self, station_name: str) -> None:
        # Drain one replica per evaluation whose parent lives on the cooled
        # station (gentle scale-down; deterministic pick by assignment id).
        for assignment_id in sorted(self._replicas):
            assignment = self.manager.assignments.get(assignment_id)
            if assignment is None or assignment.station_name != station_name:
                continue
            replicas = self._replicas[assignment_id]
            for target_station in sorted(replicas):
                self._remove_replica(assignment_id, replicas[target_station])
                return

    # ----------------------------------------------------------- scale up/down

    def _scale_up(self, assignment, home_station: str, target_station: str) -> None:
        agent = self.manager.agents.get(target_station)
        channel = self.manager.channels.get(target_station)
        if agent is None or channel is None:
            return
        replica_id = f"{assignment.assignment_id}-scale-{next(self._ids)}"
        replica_chain = ServiceChain(
            [NFSpec(nf_type="load-balancer")] + list(assignment.chain.specs),
            name=f"{assignment.chain.name}/scale",
        )
        replica = _Replica(
            replica_id=replica_id,
            station_name=target_station,
            home_station=home_station,
            nf_count=len(replica_chain),
        )
        self._replicas.setdefault(assignment.assignment_id, {})[target_station] = replica

        def on_complete(deployment, success: bool, detail: str) -> None:
            if success:
                return
            # A replica that failed to boot is no replica: drop the ledger
            # entry (the agent already rolled its containers back).
            self.replica_boot_failures += 1
            replicas = self._replicas.get(assignment.assignment_id)
            if replicas and replicas.get(target_station) is replica:
                replicas.pop(target_station, None)
                if not replicas:
                    self._replicas.pop(assignment.assignment_id, None)

        channel.call(
            agent.deploy_chain,
            replica_id,
            assignment.client_ip,
            replica_chain,
            assignment.selector,
            None,
            on_complete,
        )
        engine = self.manager.placement_engine
        engine.commit(target_station, engine.chain_memory_mb(replica_chain))
        self.scale_ups += 1
        self.events.append(
            ScaleEvent(
                time=self.simulator.now,
                kind="scale-up",
                from_station=home_station,
                to_station=target_station,
                nf_count=len(replica_chain),
            )
        )

    def _remove_replica(self, assignment_id: str, replica: _Replica, count_event: bool = True) -> None:
        replicas = self._replicas.get(assignment_id)
        if replicas is not None:
            replicas.pop(replica.station_name, None)
            if not replicas:
                self._replicas.pop(assignment_id, None)
        agent = self.manager.agents.get(replica.station_name)
        channel = self.manager.channels.get(replica.station_name)
        if agent is not None and channel is not None:
            channel.call(agent.remove_chain, replica.replica_id)
        if count_event:
            self.scale_downs += 1
            self.events.append(
                ScaleEvent(
                    time=self.simulator.now,
                    kind="scale-down",
                    from_station=replica.station_name,
                    to_station=replica.home_station,
                    nf_count=replica.nf_count,
                )
            )

    def _rebalance(self, assignment, from_station: str, to_station: str) -> None:
        """Migrate a whole assignment off a hotspot via the migration engine."""
        event = ClientEvent(
            station_name=to_station,
            client_ip=assignment.client_ip,
            client_name=self.manager.client_names.get(assignment.client_ip, assignment.client_ip),
            event="connected",
            time=self.simulator.now,
        )
        self.roaming.client_connected(assignment, event)
        engine = self.manager.placement_engine
        engine.commit(to_station, engine.chain_memory_mb(assignment.chain))
        self._last_rebalance[assignment.assignment_id] = self.simulator.now
        self.rebalances += 1
        self.events.append(
            ScaleEvent(
                time=self.simulator.now,
                kind="rebalance",
                from_station=from_station,
                to_station=to_station,
                nf_count=len(assignment.chain),
            )
        )

    def _prune_dead_parents(self) -> None:
        """Drop replicas whose parent assignment is gone or no longer active."""
        for assignment_id in sorted(self._replicas):
            assignment = self.manager.assignments.get(assignment_id)
            if assignment is not None and assignment.state.value in ("active", "migrating"):
                continue
            for replica in list(self._replicas.get(assignment_id, {}).values()):
                self._remove_replica(assignment_id, replica)

    # ----------------------------------------------------------------- stats

    def summary(self) -> Dict[str, float]:
        """Autoscaler counters (digested by the scenario telemetry)."""
        return {
            "evaluations": float(self.evaluations),
            "scale_ups": float(self.scale_ups),
            "scale_downs": float(self.scale_downs),
            "rebalances": float(self.rebalances),
            "active_replicas": float(self.active_replicas),
            "replica_boot_failures": float(self.replica_boot_failures),
        }
