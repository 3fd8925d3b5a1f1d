"""Streaming telemetry rollups for the control plane.

A *pull* summary walks every station's health record, every assignment and
every hotspot log on each read: O(stations + assignments) per call -- fine
for a testbed, hopeless for an operator fleet where dashboards poll
continuously over millions of clients.

This module is the *push* side: each leaf's delivery path applies its
per-tick deltas (heartbeat batch sizes, client events, notification bursts,
hotspot detections, assignment state transitions) to a small rollup node,
and every write propagates up the tree

    shard counters  ->  region aggregate  ->  global rollup

so a read at any level is a dictionary lookup over pre-aggregated state:
O(1) for counters, O(regions) to merge the per-region health/hotspot views.
Nothing here is sampled or approximate -- the rollups are exact mirrors of
the scanned state, and the control-plane tests assert equality between the
streaming values and a brute-force recomputation after every canned
scenario (``ShardedManager.full_scan_overview``).

Design constraints the implementation honours:

* **Determinism** -- rollup propagation is plain synchronous function calls
  on the leaf delivery path; no simulator events are scheduled, so a run's
  event timeline (and therefore its :class:`~repro.scenarios.digest.MetricsDigest`)
  is identical whatever the tree's shape.
* **Integer exactness** -- counter deltas are ints and stay ints, so rolled
  values digest identically to the per-leaf counters they mirror.
* **One liveness predicate** -- :class:`HealthRollup` is the only place
  ``(now - last) <= timeout`` is written; its expiry heap merely nominates
  candidates for that check.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple


class RollupCounters:
    """One node in the counter tree; every delta propagates to the root.

    Counters are additive integers (heartbeats processed, client events,
    enabled NFs...).  ``add`` walks the parent chain, so a shard-level push
    updates its region aggregate and the global rollup in the same call --
    the "streaming" in streaming rollups.
    """

    __slots__ = ("name", "parent", "counters")

    def __init__(self, name: str, parent: Optional["RollupCounters"] = None) -> None:
        self.name = name
        self.parent = parent
        self.counters: Dict[str, int] = {}

    def add(self, key: str, delta: int) -> None:
        node: Optional[RollupCounters] = self
        while node is not None:
            node.counters[key] = node.counters.get(key, 0) + delta
            node = node.parent

    def get(self, key: str) -> int:
        return self.counters.get(key, 0)


class HealthRollup:
    """Station liveness from heartbeat recency -- the one implementation.

    A station is online iff ``(now - last_heartbeat) <= heartbeat_timeout_s``
    (:meth:`is_online`, a plain per-station check).  The list views keep an
    online set and an expiry heap so they are O(1) when nothing changed since
    the last read -- the common all-alive case: a lone
    :class:`~repro.core.manager.GNFManager` owns one of these, and the
    leaves of one region of a :class:`~repro.core.sharding.ShardedManager`
    share one.

    The heap holds **at most one entry per online station**.  ``record`` is
    O(1) while a station's entry is armed; the entry is re-armed from the
    latest heartbeat when it is popped, so an unpolled run cannot grow it.
    Deadlines are rounded one ulp *down* (a candidate never fires later
    than the true ``last + timeout`` instant) and a popped candidate is
    always re-checked with the predicate above, re-armed just past ``now``
    when float dust fired it a hair early.
    """

    def __init__(self, heartbeat_timeout_s: float) -> None:
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._last: Dict[str, float] = {}
        self._received: Dict[str, int] = {}
        #: Online as of the last expiry pass; exactly the stations with a
        #: heap entry.
        self._online: set = set()
        self._heap: List[Tuple[float, str]] = []
        self._online_cache: Optional[Tuple[str, ...]] = None
        self._offline_cache: Optional[Tuple[str, ...]] = None
        #: Bumped whenever the online/offline partition changes; parents use
        #: it to key their merged caches.
        self.version = 0

    def _bump(self) -> None:
        self.version += 1
        self._online_cache = None
        self._offline_cache = None

    def _arm(self, station_name: str, now: float) -> None:
        self._online.add(station_name)
        deadline = math.nextafter(now + self.heartbeat_timeout_s, -math.inf)
        heappush(self._heap, (deadline, station_name))
        self._bump()

    def register(self, station_name: str, now: float) -> None:
        """Start tracking a station: alive as of ``now``, no heartbeat yet."""
        self._last[station_name] = now
        if station_name not in self._online:
            self._arm(station_name, now)

    def record(self, station_name: str, now: float) -> None:
        """Count one heartbeat received at ``now``."""
        self._last[station_name] = now
        self._received[station_name] = self._received.get(station_name, 0) + 1
        if station_name not in self._online:
            self._arm(station_name, now)

    def _expire(self, now: float) -> None:
        timeout = self.heartbeat_timeout_s
        heap = self._heap
        while heap and heap[0][0] <= now:
            station_name = heappop(heap)[1]
            last = self._last[station_name]
            if now - last <= timeout:
                # Heartbeats arrived since this entry was armed (or float
                # dust fired it early): re-arm from the latest one.
                deadline = math.nextafter(last + timeout, -math.inf)
                if deadline <= now:
                    deadline = math.nextafter(now, math.inf)
                heappush(heap, (deadline, station_name))
            else:
                self._online.discard(station_name)
                self._bump()

    def online_stations(self, now: float) -> Tuple[str, ...]:
        self._expire(now)
        if self._online_cache is None:
            self._online_cache = tuple(sorted(self._online))
        return self._online_cache

    def offline_stations(self, now: float) -> Tuple[str, ...]:
        self._expire(now)
        if self._offline_cache is None:
            self._offline_cache = tuple(sorted(self._last.keys() - self._online))
        return self._offline_cache

    def is_online(self, station_name: str, now: float) -> bool:
        last = self._last.get(station_name)
        return last is not None and (now - last) <= self.heartbeat_timeout_s

    def heartbeats_received(self, station_name: str) -> int:
        return self._received.get(station_name, 0)

    def __len__(self) -> int:
        return len(self._last)


class HotspotRollup:
    """Streaming set of ever-flagged hotspot stations.

    Fed by :class:`~repro.core.monitoring.HotspotDetector`'s ``on_hotspot``
    callback at detection time, so ``stations()`` never re-scans the
    detector logs.  First sightings propagate to the parent (global) set.
    """

    __slots__ = ("parent", "_stations", "_cache")

    def __init__(self, parent: Optional["HotspotRollup"] = None) -> None:
        self.parent = parent
        self._stations: set = set()
        self._cache: Optional[Tuple[str, ...]] = None

    def record(self, station_name: str) -> None:
        if station_name in self._stations:
            return
        self._stations.add(station_name)
        self._cache = None
        if self.parent is not None:
            self.parent.record(station_name)

    def stations(self) -> List[str]:
        if self._cache is None:
            self._cache = tuple(sorted(self._stations))
        return list(self._cache)

    def __contains__(self, station_name: str) -> bool:
        return station_name in self._stations

    def __len__(self) -> int:
        return len(self._stations)


class RegionTelemetry:
    """One region's aggregation point in the rollup tree.

    The region's leaves push into per-shard child counter nodes and share
    its :class:`HealthRollup`; the node's parent is the frontend's
    :class:`GlobalTelemetry`, so every leaf push lands in the global rollup
    in the same call.
    """

    def __init__(self, name: str, heartbeat_timeout_s: float, parent: "GlobalTelemetry") -> None:
        self.name = name
        self.counters = RollupCounters(name, parent=parent.counters)
        self.health = HealthRollup(heartbeat_timeout_s)
        self.hotspots = HotspotRollup(parent=parent.hotspots)
        self.shards: List[RollupCounters] = []

    def shard_node(self, shard_index: int) -> RollupCounters:
        """The per-shard counter node (created on first use)."""
        while len(self.shards) <= shard_index:
            self.shards.append(
                RollupCounters(f"{self.name}/shard-{len(self.shards)}", parent=self.counters)
            )
        return self.shards[shard_index]


class GlobalTelemetry:
    """The network-wide rollup root (one region child when unfederated).

    Reads merge the per-region caches: O(regions) version checks when the
    fleet is stable, a rebuild only when some region's liveness partition
    actually changed.
    """

    def __init__(self) -> None:
        self.counters = RollupCounters("global")
        self.hotspots = HotspotRollup()
        self.regions: List[RegionTelemetry] = []
        self._online_cache: Optional[Tuple[Tuple[int, ...], Tuple[str, ...]]] = None
        self._offline_cache: Optional[Tuple[Tuple[int, ...], Tuple[str, ...]]] = None

    def region(self, name: str, heartbeat_timeout_s: float) -> RegionTelemetry:
        """Create (and attach) one region's aggregation node."""
        telemetry = RegionTelemetry(name, heartbeat_timeout_s, parent=self)
        self.regions.append(telemetry)
        return telemetry

    def _merged(
        self,
        now: float,
        cache: Optional[Tuple[Tuple[int, ...], Tuple[str, ...]]],
        per_region,
    ) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        # Pull each region's (cached) view first: expiry may bump versions.
        views = [per_region(region.health, now) for region in self.regions]
        versions = tuple(region.health.version for region in self.regions)
        if cache is None or cache[0] != versions:
            cache = (versions, tuple(sorted(name for view in views for name in view)))
        return cache

    def online_stations(self, now: float) -> Tuple[str, ...]:
        self._online_cache = self._merged(now, self._online_cache, HealthRollup.online_stations)
        return self._online_cache[1]

    def offline_stations(self, now: float) -> Tuple[str, ...]:
        self._offline_cache = self._merged(now, self._offline_cache, HealthRollup.offline_stations)
        return self._offline_cache[1]
