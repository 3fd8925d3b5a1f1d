"""The multi-leaf control plane: many Managers behind one frontend.

The paper's Manager "keeps a connection with all the Agents in the network".
A single :class:`~repro.core.manager.GNFManager` does exactly that -- which
also makes it the scalability wall on the road to millions of clients: every
heartbeat, client (dis)connection and NF notification crosses the control
plane as its own simulator event and is processed serially by one object.

This module partitions that control plane:

* :class:`StationShardMap` -- consistent station->leaf routing.  Stations
  are split into ``region_count`` *contiguous bands* by station index, and
  each region's band into ``shard_count`` contiguous sub-bands, so
  geographically adjacent stations -- the ones a roaming client moves
  between most often -- usually share a leaf and handoffs stay rare.
* :class:`ControlBus` -- a coalescing agent->Manager transport.  Messages
  are queued per delivery tick and flushed under **one** simulator event per
  tick instead of one event per message; heartbeats and NF notifications are
  additionally grouped per leaf inside the tick and handed to the leaf's
  batch entry points (``receive_heartbeat_batch`` /
  ``receive_notification_batch``).  Delivery *times* are exactly what a
  per-message :class:`~repro.core.api.ControlChannel` would produce.
* :class:`ShardedManager` -- the frontend.  It owns
  ``region_count x shard_count`` leaves in one flat list (each a plain
  ``GNFManager`` restricted to its band of stations), one bus, one
  placement engine, the *global* client directory, the assignment->leaf
  index, the roaming hook and the notification centre.  When a migration
  lands a chain on a station owned by a different leaf, the frontend moves
  the assignment through an explicit :class:`ShardHandoff` so leaf-local
  state (assignment tables, scheduler tracking) always lives in exactly one
  place.

A *region* is not an object: it is the label ``leaf // shard_count`` and a
node in the streaming telemetry tree (:mod:`repro.telemetry.rollup`), whose
leaves' deltas roll up shard -> region -> global so ``overview()``,
``health`` and ``hotspots`` read pre-aggregated state.

Determinism contract (the digest-invariance matrix): a scenario replays to a
byte-identical :class:`~repro.scenarios.digest.MetricsDigest` for any
``region_count x shard_count``, and equal to the lone ``GNFManager``'s.
Three choices make that hold:

1. **One globally-ordered ControlBus.**  Per-region buses would flush
   same-timestamp ticks in first-enqueue order per bus, reordering a
   disconnect@A / connect@B pair that straddles a boundary and diverging
   roaming decisions.
2. **Global placement, leaf execution.**  The frontend's engine scores the
   network-wide station view exactly like a single Manager's would; leaves
   never re-place.
3. **Synchronous rollups.**  Rollup pushes are plain function calls on the
   delivery path -- no extra simulator events, so the event timeline is
   unchanged.

``ShardedManager`` is a drop-in for ``GNFManager``: the UI, the migration
engine, the fault injector and the scenario telemetry all keep working
against the aggregate views (``overview``, ``station_views``, ``health``,
``hotspots``, ``scheduler``, ``control_plane_stats``).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.agent import GNFAgent
from repro.core.api import AgentHeartbeat, ClientEvent, ControlChannel, NFNotificationMessage
from repro.core.chain import ServiceChain
from repro.core.manager import (
    Assignment,
    AssignmentState,
    ControlPlane,
    GNFManager,
    track_client_event,
)
from repro.core.notifications import NotificationCenter
from repro.core.placement import CandidateMap, PlacementEngine
from repro.core.repository import NFRepository
from repro.netem.simulator import Simulator
from repro.netem.topology import EdgeTopology
from repro.telemetry.rollup import GlobalTelemetry, RollupCounters

_STATION_INDEX = re.compile(r"(\d+)$")


class StationShardMap:
    """Consistent station -> leaf routing over contiguous index bands.

    Station ``i`` (1-based, parsed from the trailing integer of the station
    name) of ``station_count`` lands in region
    ``(i - 1) * region_count // station_count``; inside a region covering
    ``size`` stations from ``lo``, in local shard
    ``(i - lo) * shard_count // size`` -- contiguous, balanced bands at both
    levels.  A leaf's global index is ``region * shard_count + local``.
    Station names without a usable index fall back to a stable CRC32 hash,
    so arbitrary names still route consistently (just without the adjacency
    guarantee).
    """

    def __init__(self, station_count: int, shard_count: int, region_count: int = 1) -> None:
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        if station_count < 1:
            raise ValueError(f"station_count must be >= 1, got {station_count}")
        if region_count < 1:
            raise ValueError(f"region_count must be >= 1, got {region_count}")
        if region_count > station_count:
            raise ValueError(
                f"region_count ({region_count}) cannot exceed station_count ({station_count})"
            )
        self.station_count = station_count
        self.shard_count = shard_count
        self.region_count = region_count
        regions: List[List[int]] = [[] for _ in range(region_count)]
        for index in range(1, station_count + 1):
            regions[(index - 1) * region_count // station_count].append(index)
        self._leaf_of_index: Dict[int, int] = {}
        # 1-based inclusive (lo, hi) per leaf; (0, -1) for a leaf that owns
        # no station (more shards than the region has stations).
        self._bands: List[Tuple[int, int]] = [(0, -1)] * (region_count * shard_count)
        for region, members in enumerate(regions):
            for offset, index in enumerate(members):
                leaf = region * shard_count + offset * shard_count // len(members)
                self._leaf_of_index[index] = leaf
                self._bands[leaf] = (self._bands[leaf][0] or index, index)

    def shard_for(self, station_name: str) -> int:
        """The global leaf index owning ``station_name``."""
        match = _STATION_INDEX.search(station_name)
        if match is not None:
            leaf = self._leaf_of_index.get(int(match.group(1)))
            if leaf is not None:
                return leaf
        crc = zlib.crc32(station_name.encode("utf-8"))
        return (crc % self.region_count) * self.shard_count + crc % self.shard_count

    def region_of(self, shard_index: int) -> int:
        """The region label of a global leaf index."""
        return shard_index // self.shard_count

    def band(self, shard_index: int) -> Tuple[int, int]:
        """The 1-based, inclusive station index range ``shard_index`` owns."""
        if not 0 <= shard_index < len(self._bands):
            raise IndexError(f"shard index {shard_index} out of range")
        return self._bands[shard_index]


@dataclass
class ShardHandoff:
    """One assignment moving between leaves, as the frontend recorded it.

    Produced when a roaming migration moves a client's chain onto a station
    owned by a different leaf: the source leaf releases the assignment
    (dropping it from its table and scheduler), the target leaf adopts it,
    and this message is the durable record of the transfer.
    """

    assignment_id: str
    client_ip: str
    #: Global leaf indices.
    from_shard: int
    to_shard: int
    from_station: str
    to_station: str
    time: float
    #: Whether the two leaves carry different region labels.
    cross_region: bool = False


class _PendingTick:
    """Everything queued on the bus for one delivery instant."""

    __slots__ = ("heartbeats", "notifications", "events")

    def __init__(self, shard_count: int) -> None:
        # Lazily-created per-shard batches for the order-insensitive kinds.
        self.heartbeats: List[Optional[List[AgentHeartbeat]]] = [None] * shard_count
        self.notifications: List[Optional[List[NFNotificationMessage]]] = [None] * shard_count
        # Client events keep global enqueue order: a disconnect at shard A
        # and the matching connect at shard B must be observed in the order
        # they were sent or roaming decisions change.
        self.events: List[Tuple[int, ClientEvent]] = []


class ControlBus:
    """Coalescing agent -> Manager transport for the sharded control plane.

    Each agent sink enqueues its message under the delivery time a plain
    :class:`ControlChannel` would have used (``now + latency``) and bumps the
    station channel's traffic accounting.  The first message for a given
    delivery time schedules **one** flush event; every later message for the
    same tick rides along for free.  At flush time heartbeats and NF
    notifications are delivered per shard through the batch entry points,
    client events one by one in enqueue order.
    """

    def __init__(self, simulator: Simulator, shard_count: int) -> None:
        self.simulator = simulator
        self.shard_count = shard_count
        self._pending: Dict[float, _PendingTick] = {}
        self._deliver_heartbeats: Optional[Callable[[int, List[AgentHeartbeat]], None]] = None
        self._deliver_notifications: Optional[Callable[[int, List[NFNotificationMessage]], None]] = None
        self._deliver_event: Optional[Callable[[int, ClientEvent], None]] = None
        self.messages_enqueued = 0
        self.flushes = 0
        self.largest_batch = 0

    def bind(
        self,
        heartbeats: Callable[[int, List[AgentHeartbeat]], None],
        notifications: Callable[[int, List[NFNotificationMessage]], None],
        event: Callable[[int, ClientEvent], None],
    ) -> None:
        """Attach the frontend's delivery callbacks (one-time wiring)."""
        self._deliver_heartbeats = heartbeats
        self._deliver_notifications = notifications
        self._deliver_event = event

    # ----------------------------------------------------------------- sinks

    def _tick_for(self, latency_s: float) -> _PendingTick:
        deliver_at = self.simulator.now + latency_s
        tick = self._pending.get(deliver_at)
        if tick is None:
            tick = self._pending[deliver_at] = _PendingTick(self.shard_count)
            self.simulator.schedule(latency_s, self._flush, deliver_at)
        return tick

    def _sink(
        self,
        append: Callable[[_PendingTick, object], None],
        latency_s: float,
        channel: Optional[ControlChannel],
    ) -> Callable[[object], None]:
        """Build a sender: enqueue into the delivery tick ``append`` selects,
        with the shared message/traffic accounting applied exactly once."""

        def sink(message: object) -> None:
            append(self._tick_for(latency_s), message)
            self.messages_enqueued += 1
            if channel is not None:
                channel.messages_delivered += 1
                channel.bytes_estimate += 512

        return sink

    def _per_shard_append(self, field: str, shard_index: int) -> Callable[[_PendingTick, object], None]:
        def append(tick: _PendingTick, message: object) -> None:
            batches = getattr(tick, field)
            batch = batches[shard_index]
            if batch is None:
                batch = batches[shard_index] = []
            batch.append(message)

        return append

    def heartbeat_sink(
        self, shard_index: int, latency_s: float, channel: Optional[ControlChannel] = None
    ) -> Callable[[AgentHeartbeat], None]:
        """A sender delivering one station's heartbeats through the bus."""
        return self._sink(self._per_shard_append("heartbeats", shard_index), latency_s, channel)

    def event_sink(
        self, shard_index: int, latency_s: float, channel: Optional[ControlChannel] = None
    ) -> Callable[[ClientEvent], None]:
        """A sender delivering one station's client events through the bus."""
        return self._sink(
            lambda tick, event: tick.events.append((shard_index, event)), latency_s, channel
        )

    def notification_sink(
        self, shard_index: int, latency_s: float, channel: Optional[ControlChannel] = None
    ) -> Callable[[NFNotificationMessage], None]:
        """A sender delivering one station's NF notifications through the bus."""
        return self._sink(self._per_shard_append("notifications", shard_index), latency_s, channel)

    # ----------------------------------------------------------------- flush

    def _flush(self, deliver_at: float) -> None:
        tick = self._pending.pop(deliver_at)
        self.flushes += 1
        deliver_heartbeats = self._deliver_heartbeats
        for shard_index, batch in enumerate(tick.heartbeats):
            if batch:
                if len(batch) > self.largest_batch:
                    self.largest_batch = len(batch)
                deliver_heartbeats(shard_index, batch)
        deliver_notifications = self._deliver_notifications
        for shard_index, batch in enumerate(tick.notifications):
            if batch:
                deliver_notifications(shard_index, batch)
        deliver_event = self._deliver_event
        for shard_index, event in tick.events:
            deliver_event(shard_index, event)

    def stats(self) -> Dict[str, float]:
        """Coalescing counters."""
        return {
            "messages_enqueued": float(self.messages_enqueued),
            "flushes": float(self.flushes),
            "largest_batch": float(self.largest_batch),
            "coalescing_ratio": (
                self.messages_enqueued / self.flushes if self.flushes else 0.0
            ),
        }


class _FleetHealth:
    """Network-wide liveness served from the streaming health rollups.

    List queries are O(regions) merges of per-region cached views; point
    queries hit the rollup of the region owning the station.
    """

    def __init__(self, frontend: "ShardedManager") -> None:
        self._frontend = frontend

    def online_stations(self, now: float) -> Tuple[str, ...]:
        return self._frontend.telemetry.online_stations(now)

    def is_online(self, station_name: str, now: float) -> bool:
        return self._frontend.shard_of(station_name).health.is_online(station_name, now)

    def __len__(self) -> int:
        return sum(len(region.health) for region in self._frontend.telemetry.regions)


class _FleetHotspots:
    """Network-wide hotspot membership, served from the global rollup."""

    def __init__(self, frontend: "ShardedManager") -> None:
        self._frontend = frontend

    def hotspot_stations(self) -> List[str]:
        return self._frontend.telemetry.hotspots.stations()


class _ShardSchedulerGroup:
    """Facade over the per-leaf NF schedulers (stop and aggregate stats)."""

    def __init__(self, shards: List[GNFManager]) -> None:
        self._shards = shards

    @property
    def transitions(self) -> int:
        return sum(shard.scheduler.transitions for shard in self._shards)

    def stop(self) -> None:
        for shard in self._shards:
            shard.scheduler.stop()


class ShardedManager(ControlPlane):
    """A GNF control plane partitioned into ``region_count x shard_count``
    leaves behind one frontend.

    Drop-in for :class:`~repro.core.manager.GNFManager`: the same attach /
    detach / register / query API, but every station band is served by its
    own ``GNFManager`` leaf and all agent->Manager traffic is coalesced
    through one :class:`ControlBus`.  The frontend keeps only the truly
    global state -- the client location directory, the assignment->leaf
    index, the placement engine, the shared notification centre and the
    roaming hook -- and reads everything else from the telemetry rollups.

    ``shards`` is the flat leaf list; leaf ``i`` carries the region label
    ``i // shard_count``.  With one leaf this still batches control traffic;
    construct a plain ``GNFManager`` instead if you want the unbatched
    historical behaviour (that is what ``GNFTestbed`` does at 1 x 1).
    """

    def __init__(
        self,
        simulator: Simulator,
        shard_count: int,
        station_count: Optional[int] = None,
        repository: Optional[NFRepository] = None,
        *,
        topology: EdgeTopology,
        placement_engine: Optional[PlacementEngine] = None,
        region_count: int = 1,
    ) -> None:
        # Global placement runs on the frontend: one engine scoring the
        # *network-wide* station view (admission control and commitment
        # tracking included), exactly like a single Manager's engine would.
        super().__init__(simulator, repository, topology, placement_engine)
        if station_count is None:
            station_count = len(topology.stations)
        self.shard_map = StationShardMap(max(1, station_count), shard_count, region_count)
        self.shard_count = shard_count
        self.region_count = region_count
        # One notification centre shared by every leaf: notifications are a
        # provider-global stream (the UI and the fault injector publish and
        # read it without caring which leaf relayed the message).
        self.notifications = NotificationCenter()
        # The streaming rollup tree: one aggregation node per region label
        # below the global root, one counter node per leaf below that.
        self.telemetry = GlobalTelemetry()
        self._shard_counters: List[RollupCounters] = []
        self.shards: List[GNFManager] = []
        for region_index in range(region_count):
            region = self.telemetry.region(f"region-{region_index}", self.heartbeat_timeout_s)
            for local_index in range(shard_count):
                # Leaves share the frontend's engine but never place: every
                # assignment reaches them already placed against the
                # *global* station view.
                shard = GNFManager(
                    simulator,
                    repository=self.repository,
                    topology=topology,
                    placement_engine=self.placement_engine,
                )
                shard.notifications = self.notifications
                # Split embeddings may land segments outside the leaf's
                # band; only the frontend holds channels to every station.
                shard.network = self
                # One liveness structure per region, fed directly by its
                # leaves' heartbeat path; hotspot sightings stream into the
                # region's rollup at detection time.
                shard.health = region.health
                shard.hotspots.on_hotspot = (
                    lambda hotspot, record=region.hotspots.record: record(hotspot.station_name)
                )
                self.shards.append(shard)
                self._shard_counters.append(region.shard_node(local_index))
        # Constructing the leaves pointed the shared engine at each in turn;
        # its queue callbacks and station view belong to the frontend.
        self._bind_placement_engine()
        # Determinism pillar (1): one globally-ordered bus, indexed by
        # global leaf number.
        self.bus = ControlBus(simulator, len(self.shards))
        self.bus.bind(
            heartbeats=self._deliver_heartbeats,
            notifications=self._deliver_notifications,
            event=self._deliver_client_event,
        )
        self._assignment_shard: Dict[str, int] = {}
        # Station -> owning leaf, in global station order (the leaves' bands
        # concatenated): the placement candidates' order and routing.
        self._station_owner: Dict[str, GNFManager] = {}
        # Last cumulative cache totals pushed per station (rollup deltas).
        self._cache_rollup_last: Dict[str, Dict[str, int]] = {}
        self.handoffs: List[ShardHandoff] = []
        self.cross_region_handoffs = 0
        self.health = _FleetHealth(self)
        self.hotspots = _FleetHotspots(self)
        self.scheduler = _ShardSchedulerGroup(self.shards)

    @property
    def total_shard_count(self) -> int:
        return len(self.shards)

    @property
    def heartbeats_processed(self) -> int:
        return self.telemetry.counters.get("heartbeats_processed")

    @property
    def client_events_processed(self) -> int:
        return self.telemetry.counters.get("client_events_processed")

    @property
    def last_heartbeat(self) -> Dict[str, AgentHeartbeat]:
        merged: Dict[str, AgentHeartbeat] = {}
        for shard in self.shards:
            merged.update(shard.last_heartbeat)
        return merged

    def shard_of(self, station_name: str) -> GNFManager:
        """The leaf owning ``station_name``."""
        return self.shards[self.shard_map.shard_for(station_name)]

    def region_index_of(self, station_name: str) -> int:
        """The region label of the leaf owning ``station_name``."""
        return self.shard_map.region_of(self.shard_map.shard_for(station_name))

    def _shard_label(self, shard_index: int) -> str:
        region_index, local_index = divmod(shard_index, self.shard_count)
        if self.region_count == 1:
            return f"shard-{local_index}"
        return f"region-{region_index}/shard-{local_index}"

    # --------------------------------------------------------- registration

    def register_agent(self, agent: GNFAgent) -> ControlChannel:
        """Connect an Agent to its owning leaf, with its upstream senders
        routed over the frontend's bus."""
        station_name = agent.station.name
        shard_index = self.shard_map.shard_for(station_name)
        bus = self.bus

        def bus_sinks(channel: ControlChannel):
            latency = channel.latency_s
            return (
                bus.heartbeat_sink(shard_index, latency, channel),
                bus.event_sink(shard_index, latency, channel),
                bus.notification_sink(shard_index, latency, channel),
            )

        channel = self.shards[shard_index].register_agent(agent, sink_factory=bus_sinks)
        self.agents[station_name] = agent
        self.channels[station_name] = channel
        self._station_owner = {name: shard for shard in self.shards for name in shard.agents}
        return channel

    def start(self) -> "ShardedManager":
        """Start every leaf's schedule evaluator."""
        for shard in self.shards:
            shard.start()
        return self

    # ------------------------------------------------------------- hand-off

    def accept_placed_assignment(self, assignment: Assignment) -> None:
        """Index a placed assignment and hand it to the leaf owning its
        station.  The state hook installed here streams active-assignment /
        enabled-NF deltas into the global rollup and travels with the object
        across handoffs."""
        shard_index = self.shard_map.shard_for(assignment.station_name)
        assignment.on_state_change = self._assignment_state_changed
        self._assignment_shard[assignment.assignment_id] = shard_index
        self.shards[shard_index].accept_placed_assignment(assignment)

    def _withdraw(self, assignment: Assignment) -> None:
        # An assignment that failed placement was never handed to a leaf:
        # nothing was deployed.
        shard = self._owning_shard(assignment.assignment_id)
        if shard is not None:
            shard._withdraw(assignment)

    def _owning_shard(self, assignment_id: str) -> Optional[GNFManager]:
        shard_index = self._assignment_shard.get(assignment_id)
        return None if shard_index is None else self.shards[shard_index]

    def assignment_station_changed(self, assignment: Assignment, old_station: str) -> None:
        """Roaming hook: move the assignment between leaves if its new home
        station is owned by a different one (the explicit handoff)."""
        assignment_id = assignment.assignment_id
        source_index = self._assignment_shard.get(assignment_id)
        if source_index is None:
            return
        target_index = self.shard_map.shard_for(assignment.station_name)
        if target_index == source_index:
            return
        # Whether the schedule considers the assignment active goes across,
        # so the target leaf's scheduler resumes from the same state instead
        # of re-deriving (and double-counting) the transition.
        schedule_active = self.shards[source_index].release_assignment(assignment_id)
        self.shards[target_index].adopt_assignment(assignment, schedule_active=schedule_active)
        self._assignment_shard[assignment_id] = target_index
        cross_region = self.shard_map.region_of(source_index) != self.shard_map.region_of(target_index)
        if cross_region:
            self.cross_region_handoffs += 1
        self.handoffs.append(
            ShardHandoff(
                assignment_id=assignment_id,
                client_ip=assignment.client_ip,
                from_shard=source_index,
                to_shard=target_index,
                from_station=old_station,
                to_station=assignment.station_name,
                time=self.simulator.now,
                cross_region=cross_region,
            )
        )

    def _assignment_state_changed(
        self,
        assignment: Assignment,
        old_state: Optional[AssignmentState],
        new_state: Optional[AssignmentState],
    ) -> None:
        counters = self.telemetry.counters
        if old_state is AssignmentState.ACTIVE:
            counters.add("active_assignments", -1)
            counters.add("enabled_nfs", -len(assignment.chain))
        if new_state is AssignmentState.ACTIVE:
            counters.add("active_assignments", 1)
            counters.add("enabled_nfs", len(assignment.chain))

    # ---------------------------------------------------------- bus delivery

    #: Heartbeat cache totals streamed into the rollup tree.  The heartbeat
    #: carries cumulative per-station values; the frontend diffs them against
    #: the last push so the rollup counters stay additive integers.
    _CACHE_ROLLUP_KEYS = (
        "hits",
        "misses",
        "evictions",
        "bytes_served_from_cache",
        "backhaul_bytes_saved",
    )

    def _push_cache_rollup(self, node: RollupCounters, heartbeat: AgentHeartbeat) -> None:
        station_last = self._cache_rollup_last.setdefault(heartbeat.station_name, {})
        for key in self._CACHE_ROLLUP_KEYS:
            total = int(heartbeat.cache.get(key, 0.0))
            delta = total - station_last.get(key, 0)
            if delta:
                node.add(f"cache_{key}", delta)
                station_last[key] = total

    def _deliver_heartbeats(self, shard_index: int, batch: List[AgentHeartbeat]) -> None:
        # Push the streaming rollup deltas first (plain synchronous calls;
        # no simulator events, so delivery order/time is unchanged), then
        # hand the batch to the leaf, whose heartbeat path feeds the
        # region's health rollup.
        node = self._shard_counters[shard_index]
        node.add("heartbeats_processed", len(batch))
        for heartbeat in batch:
            if heartbeat.cache:
                self._push_cache_rollup(node, heartbeat)
        self.shards[shard_index].receive_heartbeat_batch(batch)

    def _deliver_notifications(self, shard_index: int, batch: List[NFNotificationMessage]) -> None:
        self._shard_counters[shard_index].add("notifications_processed", len(batch))
        self.shards[shard_index].receive_notification_batch(batch)

    def _deliver_client_event(self, shard_index: int, event: ClientEvent) -> None:
        # Leaf-local bookkeeping first (counters, leaf client directory; the
        # leaf has no roaming hook), then the same shared tracking a single
        # Manager runs -- here against the global directory, the global
        # assignment index and the network-wide migration engine.
        self._shard_counters[shard_index].add("client_events_processed", 1)
        self.shards[shard_index].receive_client_event(event)
        track_client_event(self, event)

    def receive_client_event(self, event: ClientEvent) -> None:
        """Direct (bus-bypassing) delivery, for tests and synthetic drivers --
        mirrors ``GNFManager.receive_client_event`` semantics."""
        self._deliver_client_event(self.shard_map.shard_for(event.station_name), event)

    # ------------------------------------------------------ bundle upgrades

    def stage_chain_upgrade(self, assignment_id: str, new_chain: ServiceChain, on_complete) -> None:
        """Route the staging to whichever leaf owns the assignment."""
        shard = self._owning_shard(assignment_id)
        if shard is None:
            self.simulator.schedule(0.0, on_complete, False, "assignment not owned by any shard")
            return
        shard.stage_chain_upgrade(assignment_id, new_chain, on_complete)

    def suspend_chain_upgrade(self, assignment_id: str, on_suspended) -> None:
        shard = self._owning_shard(assignment_id)
        if shard is not None:
            shard.suspend_chain_upgrade(assignment_id, on_suspended)

    def cutover_chain_upgrade(self, assignment_id: str, new_chain: ServiceChain, final_states, on_done) -> None:
        """Cut over on the owning leaf (its scheduler holds the activation
        state the replacement must inherit)."""
        shard = self._owning_shard(assignment_id)
        if shard is None:
            self.simulator.schedule(0.0, on_done, False, "assignment not owned by any shard")
            return
        shard.cutover_chain_upgrade(assignment_id, new_chain, final_states, on_done)

    # -------------------------------------------------------------- queries

    def station_provenance(self) -> Dict[str, str]:
        """Station -> ``region-r/shard-s`` labels (``shard-s`` when there is
        one region); digest diffs use these to point a mismatch at the
        owning leaf."""
        return {name: self._shard_label(self.shard_map.shard_for(name)) for name in self.agents}

    def station_views(self, client_station: Optional[str] = None) -> CandidateMap:
        """Placement candidates for **every** station, across all leaves.

        Leaves cover contiguous, ordered station bands, so their stations in
        leaf order are the global station order a single Manager would
        present -- placement tie-breaks stay identical.  The leaf owning a
        station builds its view when it is first read."""
        owners = self._station_owner
        return CandidateMap(owners, lambda name: owners[name].station_view(name, client_station))

    def _tier_summary(self) -> Dict[str, object]:
        """Shape and handoff counts, shared by both overviews."""
        return {
            "regions": self.region_count,
            "shards": len(self.shards),
            "cross_region_handoffs": self.cross_region_handoffs,
            "cross_shard_handoffs": len(self.handoffs) - self.cross_region_handoffs,
        }

    def overview(self) -> Dict[str, object]:
        """The network-wide summary, served from the streaming rollups.

        O(regions) merges for the station lists, O(1) counter lookups for
        everything else -- no per-station or per-assignment scan.
        """
        now = self.simulator.now
        counters = self.telemetry.counters
        return {
            "time": now,
            "online_stations": list(self.telemetry.online_stations(now)),
            "offline_stations": list(self.telemetry.offline_stations(now)),
            "connected_clients": len(self.client_locations),
            "assignments": len(self.assignments),
            "active_assignments": counters.get("active_assignments"),
            "enabled_nfs": counters.get("enabled_nfs"),
            "hotspot_stations": self.telemetry.hotspots.stations(),
            "notifications": self.notifications.summary(),
            "heartbeats_processed": counters.get("heartbeats_processed"),
            **self._tier_summary(),
        }

    def full_scan_overview(self) -> Dict[str, object]:
        """Brute-force recomputation of :meth:`overview` from per-station /
        per-assignment state (the pull path): no heap, no cache, no rollup.

        The rollup-equivalence tests assert this equals :meth:`overview`
        after every canned scenario, and benchmark E14 measures how much
        slower it is at fleet scale.
        """
        now = self.simulator.now
        online = {
            name: shard.health.is_online(name, now)
            for shard in self.shards
            for name in shard.agents
        }
        active = [a for a in self.assignments.values() if a.state is AssignmentState.ACTIVE]
        return {
            "time": now,
            "online_stations": sorted(name for name, alive in online.items() if alive),
            "offline_stations": sorted(name for name, alive in online.items() if not alive),
            "connected_clients": len(self.connected_client_ips()),
            "assignments": len(self.assignments),
            "active_assignments": len(active),
            "enabled_nfs": sum(len(a.chain) for a in active),
            "hotspot_stations": sorted(
                {name for shard in self.shards for name in shard.hotspots.hotspot_stations()}
            ),
            "notifications": self.notifications.summary(),
            "heartbeats_processed": sum(shard.heartbeats_processed for shard in self.shards),
            **self._tier_summary(),
        }
