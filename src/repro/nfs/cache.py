"""ICN-style edge object cache.

One of the canonical edge services the paper motivates ("network services
such as firewalls, caches, rate limiters").  The cache answers repeated HTTP
requests locally from the edge station, which is exactly the latency/backhaul
saving that justifies pushing NFs to the edge; the cached objects are part of
the migratable state, so a roaming client keeps its warm cache.

Promotion beyond the original toy LRU:

* **Size-aware admission** -- objects above ``max_object_fraction`` of the
  capacity are rejected outright (one elephant must not flush the cache).
* **TTL + LFU/LRU hybrid eviction** -- expired entries are purged first,
  then the least-frequently-hit object goes, ties broken by
  least-recently-hit.
* **Per-protocol cacheability** -- requests/responses are classified by
  their ``app_protocol`` metadata (``http`` for plain TCP HTTP, ``quic``,
  ``abr``); only protocols in ``cacheable_protocols`` are admitted or
  served, so the hit rate genuinely responds to the traffic-era mix (QUIC's
  encrypted payloads are opaque to a transparent cache).
* **Backhaul accounting** -- ``backhaul_bytes_saved`` counts the response
  bytes an *edge-placed* cache kept off the station uplink; it feeds the
  ``cache.*`` telemetry source and the federation rollup.

**TTL / LRU-touch semantics** (asserted by ``tests/test_edge_cache.py``):
freshness is absolute -- an object expires ``ttl_s`` after ``stored_at``
(insertion/refresh time) and a hit never extends its lifetime.  Hits update
only ``last_hit_at`` and the per-object hit count, which order *eviction*,
not expiry.  Expiry purges count as ``expirations``; only capacity-pressure
removals count as ``evictions``.

**Placement ablation** (``placement`` config): an ``edge``-placed cache
serves hits locally, short-circuiting the uplink; a ``core``-placed cache
models the same cache beyond the backhaul -- it records the hit (the object
*was* cached at the core) but still forwards the request upstream, so the
station uplink carries the full traffic and ``backhaul_bytes_saved`` stays
zero.  Benchmark E16 measures the difference on real uplink byte counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.netem.packet import HTTPRequest, HTTPResponse, Packet
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext

#: Wire-size estimate of an HTTP response beyond its body (status line +
#: headers; mirrors ``Packet._compute_size``) -- used for backhaul accounting.
_RESPONSE_OVERHEAD_BYTES = 200


@dataclass
class CachedObject:
    """One cached HTTP response body."""

    url: str
    status: int
    content_type: str
    body_bytes: int
    #: Insertion/refresh time; freshness is ``now - stored_at <= ttl_s`` and
    #: hits never move it (TTL is absolute, not sliding).
    stored_at: float
    #: Last hit time; orders LRU tie-breaking for eviction only.
    last_hit_at: float = 0.0
    #: Per-object hit count; orders LFU eviction.
    hits: int = 0


class EdgeCache(NetworkFunction):
    """Size-aware, TTL+LFU/LRU, protocol-aware edge object cache."""

    nf_type = "cache"
    per_packet_cpu_us = 20.0

    def __init__(
        self,
        name: str = "",
        capacity_mb: float = 16.0,
        ttl_s: float = 300.0,
        cacheable_statuses: tuple = (200,),
        cacheable_protocols: tuple = ("http", "abr"),
        max_object_fraction: float = 0.25,
        placement: str = "edge",
    ) -> None:
        super().__init__(name=name)
        if capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {capacity_mb}")
        if not 0.0 < max_object_fraction <= 1.0:
            raise ValueError(
                f"max_object_fraction must be in (0, 1], got {max_object_fraction}"
            )
        if placement not in ("edge", "core"):
            raise ValueError(f"placement must be 'edge' or 'core', got {placement!r}")
        self.capacity_mb = capacity_mb
        self.ttl_s = ttl_s
        self.cacheable_statuses = tuple(cacheable_statuses)
        self.cacheable_protocols = tuple(cacheable_protocols)
        self.max_object_fraction = max_object_fraction
        self.placement = placement
        self._objects: "OrderedDict[str, CachedObject]" = OrderedDict()
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.admission_rejects = 0
        self.uncacheable_requests = 0
        self.bytes_served_from_cache = 0
        self.backhaul_bytes_saved = 0

    # --------------------------------------------------------------- cache

    @property
    def used_mb(self) -> float:
        return self._used_bytes / 1e6

    @property
    def object_count(self) -> int:
        return len(self._objects)

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def max_object_bytes(self) -> int:
        return int(self.capacity_mb * 1e6 * self.max_object_fraction)

    def _remove(self, url: str) -> CachedObject:
        cached = self._objects.pop(url)
        self._used_bytes -= cached.body_bytes
        return cached

    def _purge_expired(self, now: float) -> None:
        """Drop every stale object: freshness is ``stored_at``-based only."""
        for url in [
            url
            for url, cached in self._objects.items()
            if now - cached.stored_at > self.ttl_s
        ]:
            self._remove(url)
            self.expirations += 1

    def _evict_if_needed(self, now: float) -> None:
        # Expired entries first (they are free to drop and never count as
        # capacity evictions), then LFU with LRU tie-break until we fit.
        self._purge_expired(now)
        capacity_bytes = self.capacity_mb * 1e6
        while self._objects and self._used_bytes > capacity_bytes:
            victim = min(
                self._objects.values(), key=lambda obj: (obj.hits, obj.last_hit_at)
            )
            self._remove(victim.url)
            self.evictions += 1

    def _lookup(self, url: str, now: float) -> Optional[CachedObject]:
        cached = self._objects.get(url)
        if cached is None:
            return None
        if now - cached.stored_at > self.ttl_s:
            # Absolute TTL: hits never refreshed stored_at, so a popular but
            # stale object expires here exactly on schedule.
            self._remove(url)
            self.expirations += 1
            return None
        cached.hits += 1
        cached.last_hit_at = now
        return cached

    def _store(self, url: str, response: HTTPResponse, protocol: str, now: float) -> None:
        if response.status not in self.cacheable_statuses:
            return
        if protocol not in self.cacheable_protocols:
            return
        if response.body_bytes > self.max_object_bytes:
            self.admission_rejects += 1
            return
        existing = self._objects.get(url)
        if existing is not None:
            self._remove(url)
        self._objects[url] = CachedObject(
            url=url,
            status=response.status,
            content_type=response.content_type,
            body_bytes=response.body_bytes,
            stored_at=now,
            last_hit_at=now,
            hits=existing.hits if existing is not None else 0,
        )
        self._used_bytes += response.body_bytes
        self._evict_if_needed(now)

    @staticmethod
    def _protocol_of(packet: Packet) -> str:
        return str(packet.metadata.get("app_protocol", "http"))

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if isinstance(packet.app, HTTPRequest) and context.direction is Direction.UPSTREAM:
            protocol = self._protocol_of(packet)
            if protocol not in self.cacheable_protocols:
                # Opaque protocols (QUIC) pass straight through; they still
                # count as misses so the hit *rate* tracks the era mix.
                self.uncacheable_requests += 1
                self.misses += 1
                return [packet]
            cached = self._lookup(packet.app.url, context.now)
            if cached is None:
                self.misses += 1
                return [packet]
            self.hits += 1
            self.bytes_served_from_cache += cached.body_bytes
            if self.placement == "core":
                # The core cache sits beyond the backhaul: the hit is real,
                # but the request still crosses the uplink and the response
                # comes back over it -- no backhaul saving to account.
                return [packet]
            self.backhaul_bytes_saved += cached.body_bytes + _RESPONSE_OVERHEAD_BYTES
            return [self._response_from_cache(packet, cached, context)]
        if isinstance(packet.app, HTTPResponse) and context.direction is Direction.DOWNSTREAM:
            if packet.app.request_url:
                self._store(
                    packet.app.request_url, packet.app, self._protocol_of(packet), context.now
                )
            return [packet]
        return [packet]

    def _response_from_cache(
        self, request_packet: Packet, cached: CachedObject, context: ProcessingContext
    ) -> Packet:
        response = request_packet.copy()
        assert response.eth is not None and response.ip is not None and response.l4 is not None
        response.eth = response.eth.swapped()
        response.ip = response.ip.swapped()
        response.l4 = response.l4.swapped()  # type: ignore[union-attr]
        response.app = HTTPResponse(
            status=cached.status,
            content_type=cached.content_type,
            body_bytes=cached.body_bytes,
            request_url=cached.url,
            headers={"X-Cache": "HIT"},
        )
        response.created_at = context.now
        return response

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "capacity_mb": self.capacity_mb,
                "ttl_s": self.ttl_s,
                "cacheable_protocols": list(self.cacheable_protocols),
                "max_object_fraction": self.max_object_fraction,
                "placement": self.placement,
                "objects": [
                    {
                        "url": obj.url,
                        "status": obj.status,
                        "content_type": obj.content_type,
                        "body_bytes": obj.body_bytes,
                        "stored_at": obj.stored_at,
                        "last_hit_at": obj.last_hit_at,
                        "hits": obj.hits,
                    }
                    for obj in self._objects.values()
                ],
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "admission_rejects": self.admission_rejects,
                "uncacheable_requests": self.uncacheable_requests,
                "bytes_served_from_cache": self.bytes_served_from_cache,
                "backhaul_bytes_saved": self.backhaul_bytes_saved,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        self.capacity_mb = float(state.get("capacity_mb", self.capacity_mb))
        self.ttl_s = float(state.get("ttl_s", self.ttl_s))
        protocols = state.get("cacheable_protocols")
        if isinstance(protocols, (list, tuple)):
            self.cacheable_protocols = tuple(str(p) for p in protocols)
        self.max_object_fraction = float(
            state.get("max_object_fraction", self.max_object_fraction)
        )
        placement = state.get("placement")
        if placement in ("edge", "core"):
            self.placement = str(placement)
        objects = state.get("objects")
        if isinstance(objects, list):
            self._objects = OrderedDict()
            self._used_bytes = 0
            for entry in objects:
                cached = CachedObject(
                    url=str(entry["url"]),
                    status=int(entry["status"]),
                    content_type=str(entry["content_type"]),
                    body_bytes=int(entry["body_bytes"]),
                    stored_at=float(entry["stored_at"]),
                    last_hit_at=float(entry.get("last_hit_at", entry["stored_at"])),
                    hits=int(entry.get("hits", 0)),
                )
                self._objects[cached.url] = cached
                self._used_bytes += cached.body_bytes
        self.hits = int(state.get("hits", self.hits))
        self.misses = int(state.get("misses", self.misses))
        self.evictions = int(state.get("evictions", self.evictions))
        self.expirations = int(state.get("expirations", self.expirations))
        self.admission_rejects = int(state.get("admission_rejects", self.admission_rejects))
        self.uncacheable_requests = int(
            state.get("uncacheable_requests", self.uncacheable_requests)
        )
        self.bytes_served_from_cache = int(
            state.get("bytes_served_from_cache", self.bytes_served_from_cache)
        )
        self.backhaul_bytes_saved = int(
            state.get("backhaul_bytes_saved", self.backhaul_bytes_saved)
        )
