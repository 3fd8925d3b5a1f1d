"""Hybrid flow-level simulation core: fluid flows with packet fidelity islands.

The per-packet fast path (the flow cache) still pays one event chain per
packet, which caps the simulator at the bulk-transfer workloads the
million-client north-star needs.  This module implements the classic hybrid
fix from the simulation literature: long-lived bulk flows become *rate
processes* -- a :class:`FluidFlow` carries a demand and a byte budget, a
:class:`FluidSolver` computes max-min fair-share rates over every shared
link by progressive water-filling over groups of flows that share a path,
and bytes advance in coarse solver epochs (one simulator event per epoch,
regardless of how many packets the flow "contains").

Packet fidelity is preserved exactly where the paper's phenomena live.  The
:class:`HybridScheduler` *demotes* a fluid flow back to packet mode when

* its client has an active NF chain attached (the chain under test must see
  real packets),
* its path crosses a station with an in-flight migration state transfer
  (checkpoint chunks contend with client traffic on the real uplinks), or
* its station is inside a fault-injection window,

and *promotes* it back to fluid afterwards.  Byte accounting is continuous
across conversions: a flow's ``bytes_fluid + bytes_packet`` total is exact
no matter how often it bounces between the two regimes.

Fluid occupancy is pushed back onto the packet world: each solved epoch
writes the aggregate fluid rate into every traversed
:class:`~repro.netem.link.Link` direction, and packet serialization on a
fluid-loaded link only sees the *residual* bandwidth -- so migrations and
probe RTTs measured through a fluid-congested backhaul stay honest.

In ``packet`` mode the scheduler is inert: every registered flow stays in
packet mode forever, no epoch task runs, and nothing observable changes --
which is what keeps the packet/hybrid MetricsDigest equivalence on
non-bulk scenarios exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.netem.simulator import PeriodicTask, Simulator

SIMULATION_MODES = ("packet", "hybrid")

#: A solved rate below this is treated as zero (numerical noise floor).
_RATE_EPS = 1e-6


def new_station_counters() -> Dict[str, float]:
    """The per-station ``fluid.*`` gauges, all zero."""
    return {
        "bytes_fluid": 0.0,
        "flows_fluid": 0.0,
        "flows_promoted": 0.0,
        "flows_demoted": 0.0,
    }


@dataclass(frozen=True, eq=False)
class FluidPath:
    """Where a fluid flow's bytes travel: its station and the shared links.

    ``links`` lists ``(link, direction_key)`` pairs -- the same per-direction
    state the packet world serializes against, so fluid occupancy and packet
    queueing meet on the exact same resource.

    Immutable and compared by identity, so flows that travel the same way can
    share one object and the scheduler can group them by it.  The path also
    carries what the scheduler would otherwise look up per flow: the
    station's counter dict (:meth:`HybridScheduler.station_counters_for`; a
    private one when the path is built without) and the station switch
    whose fluid-transit bytes it feeds (optional).
    """

    station: str
    links: Tuple[Tuple[object, str], ...] = ()
    counters: Dict[str, float] = field(default_factory=new_station_counters)
    switch: Optional[object] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))


class FlowOwner(Protocol):
    """What a :class:`FluidFlow` tells the sender that owns it."""

    def flow_mode_changed(self, mode: str) -> None:
        """Called with the new mode after every promote/demote."""

    def flow_completed(self) -> None:
        """Called once when the transfer's byte budget is exhausted."""


class FluidFlow:
    """One bulk transfer as a rate process with exact byte accounting."""

    __slots__ = (
        "flow_id",
        "name",
        "client",
        "dst_ip",
        "demand_bps",
        "total_bytes",
        "bytes_fluid",
        "bytes_packet",
        "mode",
        "allocated_bps",
        "promotions",
        "demotions",
        "completed",
        "owner",
        "path",
    )

    def __init__(
        self,
        name: str,
        demand_bps: float,
        total_bytes: float,
        client: Optional[object] = None,
        dst_ip: str = "",
        owner: Optional[FlowOwner] = None,
    ) -> None:
        if demand_bps <= 0:
            raise ValueError(f"demand_bps must be positive, got {demand_bps}")
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes}")
        self.flow_id = 0  # assigned by the scheduler at registration
        self.name = name
        self.client = client
        self.dst_ip = dst_ip
        self.demand_bps = float(demand_bps)
        self.total_bytes = float(total_bytes)
        self.bytes_fluid = 0.0
        self.bytes_packet = 0.0
        #: ``packet`` until a hybrid scheduler classifies it otherwise.
        self.mode = "packet"
        self.allocated_bps = 0.0
        self.promotions = 0
        self.demotions = 0
        self.completed = False
        #: The sender told about mode changes and completion (None: nobody).
        self.owner = owner
        #: Path resolved at the last epoch (None while unroutable).
        self.path: Optional[FluidPath] = None

    @property
    def bytes_moved(self) -> float:
        return self.bytes_fluid + self.bytes_packet

    @property
    def remaining_bytes(self) -> float:
        return max(0.0, self.total_bytes - self.bytes_moved)

    def record_packet_bytes(self, size_bytes: float) -> None:
        """Account bytes moved by the packet path (demoted or pure packet mode)."""
        self.bytes_packet += size_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FluidFlow({self.name!r}, mode={self.mode}, "
            f"{self.bytes_moved:.0f}/{self.total_bytes:.0f}B)"
        )


class FluidSolver:
    """Max-min fair-share rate allocation over shared links (water-filling)."""

    @staticmethod
    def solve_groups(
        capacities: Sequence[float],
        groups: Iterable[Tuple[Sequence[int], Sequence[int]]],
        demands: Sequence[float],
    ) -> List[float]:
        """Solve the classic progressive-filling allocation over path groups.

        Parameters
        ----------
        capacities:
            ``capacities[l]`` is link ``l``'s capacity in bits per second.
        groups:
            ``(link rows, flow indices)`` pairs: every flow of a group
            traverses exactly those links.  The groups must cover each flow
            exactly once (``ValueError`` otherwise).
        demands:
            ``demands[f]`` is flow ``f``'s demand ceiling in bits per second.

        All unfixed flows' rates rise together until a flow hits its demand
        (it is fixed there) or a link saturates (every flow crossing it is
        fixed at the fair share).  Because every unfixed flow holds the same
        rate ``r``, each round works per group, not per flow: a group's link
        limit is its tightest link share and its headroom is its smallest
        unfixed demand minus ``r`` (``fl(d - r)`` is monotone in ``d``, so
        that equals the smallest per-flow headroom), and its members fix in
        ascending-demand order.  Pure float arithmetic over a deterministic
        flow ordering, so replays are bit-identical.
        """
        flows = len(demands)
        rates = [0.0] * flows
        # Per live group: its distinct link rows, and its unfixed flows by
        # descending demand (the next one to fix is last).
        live = [
            (tuple(dict.fromkeys(rows)), sorted(members, key=demands.__getitem__, reverse=True))
            for rows, members in groups
            if members
        ]
        placed = sorted(itertools.chain.from_iterable(pending for _, pending in live))
        if placed != list(range(flows)):
            raise ValueError(f"groups must cover each of the {flows} flows exactly once")
        residual = [float(capacity) for capacity in capacities]
        unfixed_on = [0] * len(residual)
        for rows, pending in live:
            for row in rows:
                unfixed_on[row] += len(pending)
        rate = 0.0
        for _ in range(flows + len(residual) + 1):
            if not live:
                break
            share = [
                max(left, 0.0) / count if count else math.inf
                for left, count in zip(residual, unfixed_on)
            ]
            # The increment: the tightest link share or the smallest demand
            # headroom, whichever comes first.  Flows crossing no link are
            # only demand-limited.
            delta = math.inf
            for rows, pending in live:
                delta = min(delta, demands[pending[-1]] - rate, *map(share.__getitem__, rows))
            if not math.isfinite(delta):
                # Unconstrained flows: cap at demand and finish.
                for _, pending in live:
                    for flow in pending:
                        rates[flow] = demands[flow]
                return rates
            delta = max(0.0, delta)
            rate += delta
            residual = [left - count * delta for left, count in zip(residual, unfixed_on)]
            # Fix every flow on a saturated link and the demand-satisfied ones.
            saturated = {row for row, left in enumerate(residual) if left <= _RATE_EPS}
            still_live = []
            for rows, pending in live:
                before = len(pending)
                if saturated.isdisjoint(rows):
                    while pending and rate >= demands[pending[-1]] - _RATE_EPS:
                        rates[pending.pop()] = rate
                else:
                    for flow in pending:
                        rates[flow] = rate
                    pending.clear()
                fixed_now = before - len(pending)
                if fixed_now:
                    for row in rows:
                        unfixed_on[row] -= fixed_now
                if pending:
                    still_live.append((rows, pending))
            live = still_live
        for _, pending in live:
            for flow in pending:
                rates[flow] = rate
        return rates

    @staticmethod
    def max_min_rates(capacities, membership, demands) -> List[float]:
        """:meth:`solve_groups` over a dense ``(L, F)`` membership matrix.

        ``membership[l][f]`` is truthy when flow ``f`` traverses link ``l``;
        columns with the same links become one group.
        """
        rows_of: List[List[int]] = [[] for _ in demands]
        for row, on_link in enumerate(membership):
            for flow in itertools.compress(range(len(rows_of)), on_link):
                rows_of[flow].append(row)
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for flow, rows in enumerate(rows_of):
            groups.setdefault(tuple(rows), []).append(flow)
        return FluidSolver.solve_groups(capacities, groups.items(), [float(d) for d in demands])


class HybridScheduler:
    """Classifies flows as fluid or packet and advances the fluid ones.

    One scheduler per testbed.  In ``hybrid`` mode it runs one solver epoch
    every ``epoch_s`` simulated seconds (a single simulator event): settle
    bytes at the previously solved rates, re-resolve paths, re-classify
    against the fidelity-island predicates, re-solve the max-min allocation
    and push the fluid occupancy onto the traversed links.  In ``packet``
    mode nothing ever runs and every flow stays packet-level.

    The testbed wires the three island predicates plus the path resolver:

    * ``chained_clients()`` -- IPs of the clients with an active NF chain,
    * ``migration_stations()`` -- stations with in-flight state transfers,
    * fault windows via :meth:`enter_fault_island` / :meth:`exit_fault_island`,
    * ``path_resolver(flow)`` -> :class:`FluidPath`.

    The first two are asked once per epoch (and once per registration), not
    once per flow.  Byte and load sums accumulate flow by flow in
    ``self.flows`` order: they feed the digest and, through residual
    bandwidth, packet serialization delay, so their floating-point order is
    part of the contract.
    """

    def __init__(
        self,
        simulator: Simulator,
        mode: str = "packet",
        epoch_s: float = 0.25,
    ) -> None:
        if mode not in SIMULATION_MODES:
            raise ValueError(f"unknown simulation mode {mode!r}; valid: {SIMULATION_MODES}")
        if epoch_s <= 0:
            raise ValueError(f"epoch_s must be positive, got {epoch_s}")
        self.simulator = simulator
        self.mode = mode
        self.epoch_s = epoch_s
        self.flows: Dict[int, FluidFlow] = {}
        self._flow_ids = itertools.count(1)
        self._task: Optional[PeriodicTask] = None
        self._last_settle_at = 0.0
        # Coalesced re-solve: registrations/retirements mark the allocation
        # dirty and one zero-delay event re-solves for the whole burst, so a
        # fleet of N generators starting at the same instant costs one
        # solver pass instead of N (the naive per-register resolve is
        # O(N^2) and dominated the 10k-client benchmark).
        self._resolve_event: Optional[object] = None
        # Refcounted fault islands by station (overlapping faults both hold).
        self._fault_islands: Dict[str, int] = {}
        # (link, direction_key) pairs currently carrying a fluid load, so a
        # re-solve can zero out links the flow set no longer touches.
        self._loaded_links: Dict[Tuple[int, str], Tuple[object, str]] = {}
        # Wiring (set by the testbed; every hook is optional so the solver
        # and scheduler stay unit-testable in isolation).
        self.chained_clients: Optional[Callable[[], Collection[str]]] = None
        self.migration_stations: Optional[Callable[[], Iterable[str]]] = None
        self.path_resolver: Optional[Callable[[FluidFlow], Optional[FluidPath]]] = None
        # Counters (``fluid.*`` telemetry).
        self.flows_registered = 0
        self.flows_completed = 0
        self.flows_promoted = 0
        self.flows_demoted = 0
        self.solver_epochs = 0
        self.bytes_fluid_total = 0.0
        self.bytes_packet_total = 0.0
        #: Per-station counters published through the Agents' collectors.
        self.station_counters: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------- properties

    @property
    def hybrid_enabled(self) -> bool:
        return self.mode == "hybrid"

    def station_counters_for(self, station: str) -> Dict[str, float]:
        """The published counter dict of ``station`` (created on first use)."""
        counters = self.station_counters.get(station)
        if counters is None:
            counters = self.station_counters[station] = new_station_counters()
        return counters

    # ---------------------------------------------------------------- control

    def start(self) -> "HybridScheduler":
        """Begin solver epochs (no-op in packet mode)."""
        if self.hybrid_enabled and self._task is None:
            self._last_settle_at = self.simulator.now
            self._task = self.simulator.every(
                self.epoch_s, self._epoch, initial_delay=self.epoch_s
            )
        return self

    def stop(self) -> None:
        """Settle the partial epoch, clear link occupancy, stop the task."""
        if self._task is not None:
            self._task.stop()
            self._task = None
        if self._resolve_event is not None:
            if getattr(self._resolve_event, "pending", False):
                self._resolve_event.cancel()
            self._resolve_event = None
        if self.hybrid_enabled:
            self._settle()
            self._clear_link_loads()

    # ----------------------------------------------------------- registration

    def register(self, flow: FluidFlow) -> FluidFlow:
        """Admit a flow; classifies it immediately (hybrid) or pins it packet."""
        flow.flow_id = next(self._flow_ids)
        self.flows[flow.flow_id] = flow
        self.flows_registered += 1
        if self.hybrid_enabled:
            self._settle()
            flow.path = self.path_resolver(flow) if self.path_resolver else None
            if self._must_stay_packet(flow, *self._island_inputs()):
                flow.mode = "packet"
            else:
                flow.mode = "fluid"
            self._schedule_resolve()
        else:
            flow.mode = "packet"
        return flow

    def deregister(self, flow: FluidFlow) -> None:
        """Remove a flow (generator stop or transfer completion)."""
        if self.flows.pop(flow.flow_id, None) is None:
            return
        flow.allocated_bps = 0.0
        if self.hybrid_enabled:
            self._settle()
            self._schedule_resolve()

    def record_packet_bytes(self, flow: FluidFlow, size_bytes: float) -> None:
        """Packet-path byte accounting hook used by the bulk generator."""
        flow.record_packet_bytes(size_bytes)
        self.bytes_packet_total += size_bytes

    def flow_finished(self, flow: FluidFlow) -> None:
        """The packet path exhausted the flow's byte budget; retire it.

        Mirrors the fluid-side completion in :meth:`_settle` so
        ``flows_completed`` counts transfers identically no matter which
        regime moved the last byte.
        """
        if flow.flow_id not in self.flows:
            return
        if self.hybrid_enabled:
            self._settle()
        self._complete(flow)
        if self.hybrid_enabled:
            self._schedule_resolve()

    # --------------------------------------------------------- fault islands

    def enter_fault_island(self, station: str) -> None:
        """A fault window opened at ``station``: demote its fluid flows now."""
        self._fault_islands[station] = self._fault_islands.get(station, 0) + 1
        if not self.hybrid_enabled:
            return
        self._settle()
        changed = False
        for flow in self.flows.values():
            if flow.mode == "fluid" and flow.path is not None and flow.path.station == station:
                self._demote(flow)
                changed = True
        if changed:
            self._schedule_resolve()

    def exit_fault_island(self, station: str) -> None:
        """A fault window closed; promotion happens at the next epoch."""
        holds = self._fault_islands.get(station, 0) - 1
        if holds <= 0:
            self._fault_islands.pop(station, None)
        else:
            self._fault_islands[station] = holds

    # -------------------------------------------------------- classification

    def _island_inputs(self) -> Tuple[Collection[str], Collection[str]]:
        """``(chained client IPs, migrating stations)`` as of this instant."""
        chained = self.chained_clients() if self.chained_clients is not None else ()
        migrating = set(self.migration_stations()) if self.migration_stations is not None else ()
        return chained, migrating

    def _must_stay_packet(
        self, flow: FluidFlow, chained: Collection[str], migrating: Collection[str]
    ) -> bool:
        """True when any fidelity island covers the flow right now."""
        path = flow.path
        if path is None:
            # Unroutable (client mid-handover): a fluid flow would just
            # stall at rate zero, but packet mode records the disconnect
            # honestly, so unroutable flows stay packet-level.
            return True
        if path.station in self._fault_islands:
            return True
        if chained and flow.client is not None and flow.client.ip in chained:
            return True
        if path.station in migrating:
            return True
        return False

    def _demote(self, flow: FluidFlow) -> None:
        flow.mode = "packet"
        flow.allocated_bps = 0.0
        flow.demotions += 1
        self.flows_demoted += 1
        if flow.path is not None:
            flow.path.counters["flows_demoted"] += 1.0
        if flow.owner is not None:
            flow.owner.flow_mode_changed("packet")

    def _promote(self, flow: FluidFlow) -> None:
        flow.mode = "fluid"
        flow.promotions += 1
        self.flows_promoted += 1
        if flow.path is not None:
            flow.path.counters["flows_promoted"] += 1.0
        if flow.owner is not None:
            flow.owner.flow_mode_changed("fluid")

    # ----------------------------------------------------------- solver epoch

    def _schedule_resolve(self) -> None:
        """Queue one zero-delay re-solve for every change in this instant."""
        if self._resolve_event is not None and getattr(self._resolve_event, "pending", False):
            return
        self._resolve_event = self.simulator.schedule(0.0, self._pending_resolve)

    def _pending_resolve(self) -> None:
        self._resolve_event = None
        if self.hybrid_enabled and self._task is not None:
            self._resolve()

    def _epoch(self) -> None:
        self.solver_epochs += 1
        self._settle()
        self._reclassify()
        self._resolve()

    def _reclassify(self) -> None:
        chained, migrating = self._island_inputs()
        resolver = self.path_resolver
        for flow in list(self.flows.values()):
            if resolver is not None:
                flow.path = resolver(flow)
            if self._must_stay_packet(flow, chained, migrating):
                if flow.mode == "fluid":
                    self._demote(flow)
            elif flow.mode == "packet":
                self._promote(flow)

    def _settle(self) -> None:
        """Advance every fluid flow's bytes at the last solved rates."""
        now = self.simulator.now
        dt = now - self._last_settle_at
        self._last_settle_at = now
        if dt <= 0:
            return
        finished: List[FluidFlow] = []
        for flow in self.flows.values():
            if flow.mode != "fluid" or flow.allocated_bps <= _RATE_EPS:
                continue
            # ``flow.remaining_bytes``, written out (here and below): two
            # property calls per flow per epoch otherwise.
            remaining = flow.total_bytes - (flow.bytes_fluid + flow.bytes_packet)
            moved = min(flow.allocated_bps * dt / 8.0, remaining if remaining > 0.0 else 0.0)
            if moved <= 0:
                continue
            flow.bytes_fluid += moved
            self.bytes_fluid_total += moved
            path = flow.path
            if path is not None:
                path.counters["bytes_fluid"] += moved
                for link, direction_key in path.links:
                    link.add_fluid_bytes(direction_key, moved)
                if path.switch is not None:
                    path.switch.record_fluid_transit(moved)
            if flow.total_bytes - (flow.bytes_fluid + flow.bytes_packet) <= 0.0:
                finished.append(flow)
        for flow in finished:
            self._complete(flow)

    def _complete(self, flow: FluidFlow) -> None:
        flow.completed = True
        flow.allocated_bps = 0.0
        self.flows.pop(flow.flow_id, None)
        self.flows_completed += 1
        if flow.owner is not None:
            flow.owner.flow_completed()

    def _resolve(self) -> None:
        """Re-solve fair shares and push fluid occupancy onto the links."""
        fluid_flows = [
            flow
            for flow in self.flows.values()
            if flow.mode == "fluid" and flow.path is not None
        ]
        # Group the flows by path object -- path -> (its link rows, its flow
        # indices) -- and collect the shared link set in first-seen order
        # (deterministic): work per distinct path, not per flow-link.
        resources: Dict[Tuple[int, str], Tuple[object, str]] = {}
        row_of: Dict[Tuple[int, str], int] = {}
        groups: Dict[FluidPath, Tuple[List[int], List[int]]] = {}
        for f_index, flow in enumerate(fluid_flows):
            group = groups.get(flow.path)
            if group is None:
                rows = []
                for hop in flow.path.links:
                    key = (id(hop[0]), hop[1])
                    row = row_of.get(key)
                    if row is None:
                        row = row_of[key] = len(resources)
                        resources[key] = hop
                    rows.append(row)
                group = groups[flow.path] = (rows, [])
            group[1].append(f_index)
        rates = FluidSolver.solve_groups(
            [link.bandwidth_bps for link, _ in resources.values()],
            groups.values(),
            [flow.demand_bps for flow in fluid_flows],
        )
        # Push the new occupancy, flow by flow: each link's load is the sum
        # of its flows' rates in ``self.flows`` order.
        loads = [0.0] * len(resources)
        for flow, rate in zip(fluid_flows, rates):
            flow.allocated_bps = rate
            if rate <= _RATE_EPS:
                continue
            for row in groups[flow.path][0]:
                loads[row] += rate
        for (link, direction_key), load in zip(resources.values(), loads):
            link.set_fluid_load(direction_key, load)
        # Zero out links that fell out of the set.
        for key, (link, direction_key) in self._loaded_links.items():
            if key not in resources:
                link.set_fluid_load(direction_key, 0.0)
        self._loaded_links = resources
        # Refresh the per-station fluid-flow gauge.
        for counters in self.station_counters.values():
            counters["flows_fluid"] = 0.0
        for path in groups:
            path.counters["flows_fluid"] = 0.0
        for path, (_, members) in groups.items():
            path.counters["flows_fluid"] += float(len(members))

    def _clear_link_loads(self) -> None:
        for link, direction_key in self._loaded_links.values():
            link.set_fluid_load(direction_key, 0.0)
        self._loaded_links = {}

    # ---------------------------------------------------------------- summary

    def summary(self) -> Dict[str, float]:
        """Every counter, including epoch bookkeeping (operational view)."""
        combined = dict(self.digest_summary())
        combined["solver_epochs"] = float(self.solver_epochs)
        combined["flows_active"] = float(len(self.flows))
        return combined

    def digest_summary(self) -> Dict[str, float]:
        """The behaviourally meaningful counters, fed into the MetricsDigest.

        Epoch counts are deliberately excluded: they are an implementation
        detail of the hybrid clock (``packet`` mode runs zero epochs while
        behaving identically on non-bulk scenarios), and the digest must be
        identical across ``simulation_mode`` whenever no flow ever went
        fluid -- the same contract shard_count already obeys.
        """
        return {
            "flows_registered": float(self.flows_registered),
            "flows_completed": float(self.flows_completed),
            "flows_promoted": float(self.flows_promoted),
            "flows_demoted": float(self.flows_demoted),
            "bytes_fluid": float(self.bytes_fluid_total),
            "bytes_packet": float(self.bytes_packet_total),
        }
