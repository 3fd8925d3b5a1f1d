"""Workload generators.

The demo attaches NFs to the traffic of smartphones browsing the web,
resolving names and streaming video.  These generators reproduce those
workloads on the emulated clients so every benchmark has deterministic,
repeatable traffic:

* :class:`CBRTrafficGenerator` -- constant-bit-rate UDP probes (echoed by the
  server) used for latency/throughput measurement.
* :class:`HTTPWorkloadGenerator` -- web sessions with think times; observes
  blocked pages so the HTTP-filter NF's effect is measurable end-to-end.
* :class:`DNSWorkloadGenerator` -- name lookups; records the answers so the
  DNS load balancer NF's rewrites are observable.
* :class:`VideoWorkloadGenerator` -- periodic segment bursts approximating
  adaptive streaming.
* :class:`QUICWorkloadGenerator` -- 0-RTT-style request bursts on
  connection-ID-keyed UDP flows with mid-life port migrations (what NAT and
  firewall NFs see of the QUIC era).
* :class:`ABRVideoGenerator` -- bitrate-ladder segment fetches that adapt to
  measured throughput; viewers of the same content share cache keys.
* :class:`BulkTransferGenerator` -- one-way bulk uploads with a fixed byte
  budget; the only workload the hybrid fluid core may lift out of the
  packet world (see :mod:`repro.netem.fluid`).

Every generator carries an **intensity** knob (:meth:`_GeneratorBase.set_intensity`):
inter-event delays are divided by it, 0 pauses the generator and a later
non-zero value resumes it.  The scenario layer's traffic *eras*
(:class:`~repro.scenarios.spec.TrafficEraSpec`) drive this knob to shift the
per-protocol mix over scenario time.  ``stop()`` cancels every event the
generator still has in flight, so a stopped generator leaves nothing on the
simulator queue.

Generators talk to any object satisfying :class:`TrafficEndpoint` (the
wireless :class:`~repro.wireless.client.MobileClient` in practice).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.netem import packet as pkt
from repro.netem.fluid import FluidFlow, HybridScheduler
from repro.netem.packet import Packet
from repro.netem.simulator import Event, Simulator

_generator_ids = itertools.count(1)


def _numpy_seeded_rng(seed: int) -> random.Random:
    """A stdlib Mersenne Twister in the state ``numpy.random.RandomState(seed)`` starts in.

    Both are MT19937; numpy seeds a 32-bit integer through the reference
    ``init_genrand`` recurrence (Python's ``seed()`` uses ``init_by_array``
    instead), so the key is built here and installed with ``setstate``.
    """
    key = [seed]
    for index in range(1, 624):
        previous = key[-1]
        key.append((1812433253 * (previous ^ previous >> 30) + index) & 0xFFFFFFFF)
    rng = random.Random()
    rng.setstate((3, (*key, 624), None))
    return rng


def _masked_below(rng: random.Random, span: int) -> int:
    """A uniform integer in ``[0, span]``, ``span < 2**32``, by numpy's masked rejection."""
    if span == 0:
        return 0
    mask = (1 << span.bit_length()) - 1
    value = rng.getrandbits(32) & mask
    while value > span:
        value = rng.getrandbits(32) & mask
    return value


class TrafficEndpoint(Protocol):
    """What a generator needs from the host it runs on."""

    ip: str
    mac: str

    def send_packet(self, packet: Packet) -> bool:
        """Transmit a packet towards the network."""

    def add_receive_listener(self, listener: Callable[[Packet], None]) -> None:
        """Register a callback invoked for every packet the endpoint receives."""


@dataclass
class LatencySample:
    """One request/response latency observation."""

    sent_at: float
    received_at: float

    @property
    def rtt(self) -> float:
        return self.received_at - self.sent_at


class _GeneratorBase:
    """Shared bookkeeping for all generators.

    Slotted, like :class:`BulkTransferGenerator` (the one generator a bulk
    storm holds thousands of); the other subclasses declare no slots, so
    they keep a ``__dict__`` and their instances stay patchable.
    """

    __slots__ = (
        "simulator",
        "client",
        "generator_id",
        "name",
        "running",
        "intensity",
        "packets_sent",
        "bytes_sent",
        "responses_received",
        "latency_samples",
        "_pending_events",
    )

    #: Whether the client hands this generator what it receives.  A one-way
    #: generator never gets a reply, so it registers no listener.
    HEARS_REPLIES = True

    def __init__(self, simulator: Simulator, client: TrafficEndpoint, name: str = "") -> None:
        self.simulator = simulator
        self.client = client
        self.generator_id = next(_generator_ids)
        self.name = name or f"{type(self).__name__}-{self.generator_id}"
        self.running = False
        #: Offered-load multiplier: inter-event delays are divided by it.
        #: 1.0 is the generator's native pace, 0.0 pauses it (the traffic-era
        #: machinery resumes it with a later ``set_intensity``).
        self.intensity = 1.0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.responses_received = 0
        #: Request/response samples.  The shared empty tuple until the first
        #: response, so a generator that never sees one (every bulk upload)
        #: holds no list.
        self.latency_samples: Sequence[LatencySample] = ()
        #: Events ``stop()`` must cancel; the shared empty tuple until the first.
        self._pending_events: Sequence[Event] = ()
        if self.HEARS_REPLIES:
            client.add_receive_listener(self._on_receive)

    # ------------------------------------------------------------ control

    def start(self) -> "_GeneratorBase":
        self.running = True
        self._schedule_next(initial=True)
        return self

    def stop(self) -> None:
        """Stop the generator and cancel every event it still has in flight."""
        self.running = False
        for event in self._pending_events:
            if event.pending:
                event.cancel()
        self._pending_events = ()

    def set_intensity(self, intensity: float) -> None:
        """Rescale the offered load; 0 pauses, a later non-zero value resumes."""
        if intensity < 0:
            raise ValueError(f"intensity must be >= 0, got {intensity}")
        self.intensity = float(intensity)
        # A paused generator has no pending self-chain: kick a fresh one.
        # (With a chain still pending the new pace applies from its next hop.)
        if self.running and self.intensity > 0.0 and not self._has_pending():
            self._schedule_next()

    # ------------------------------------------------------------- hooks

    def _schedule_next(self, initial: bool = False) -> None:
        raise NotImplementedError

    def _schedule(self, delay: float, callback: Callable[..., None], *args) -> Event:
        """Schedule a tracked event (``stop()`` cancels whatever is pending)."""
        event = self.simulator.schedule(delay, callback, *args)
        pending = self._pending_events
        if not pending:
            self._pending_events = [event]
        else:
            pending.append(event)
            if len(pending) > 32:
                self._pending_events = [e for e in pending if e.pending]
        return event

    def _has_pending(self) -> bool:
        self._pending_events = [e for e in self._pending_events if e.pending]
        return bool(self._pending_events)

    def _scaled_delay(self, base_delay: float) -> Optional[float]:
        """Intensity-scaled inter-event delay; ``None`` while paused."""
        if self.intensity <= 0.0:
            return None
        return base_delay / self.intensity

    def _on_receive(self, packet: Packet) -> None:
        if packet.metadata.get("probe_gen") != self.generator_id:
            return
        self.responses_received += 1
        sent_at = packet.metadata.get("request_created_at")
        if isinstance(sent_at, (int, float)):
            sample = LatencySample(sent_at=float(sent_at), received_at=self.simulator.now)
            if self.latency_samples:
                self.latency_samples.append(sample)
            else:
                self.latency_samples = [sample]
        self._handle_response(packet)

    def _handle_response(self, packet: Packet) -> None:
        """Subclass hook for protocol-specific response handling."""

    def _stamp_and_send(self, packet: Packet) -> None:
        packet.metadata["probe_gen"] = self.generator_id
        packet.created_at = self.simulator.now
        packet.metadata["request_created_at"] = self.simulator.now
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self.client.send_packet(packet)

    # -------------------------------------------------------------- stats

    @property
    def rtts(self) -> List[float]:
        return [sample.rtt for sample in self.latency_samples]

    def mean_rtt(self) -> float:
        rtts = self.rtts
        return sum(rtts) / len(rtts) if rtts else 0.0

    def loss_rate(self) -> float:
        """Fraction of sent requests with no observed response."""
        if self.packets_sent == 0:
            return 0.0
        return max(0.0, 1.0 - self.responses_received / self.packets_sent)

    def stats(self) -> Dict[str, float]:
        return {
            "packets_sent": float(self.packets_sent),
            "bytes_sent": float(self.bytes_sent),
            "responses_received": float(self.responses_received),
            "mean_rtt_s": self.mean_rtt(),
            "loss_rate": self.loss_rate(),
        }


class CBRTrafficGenerator(_GeneratorBase):
    """Constant-bit-rate UDP generator; the server echoes every packet back."""

    def __init__(
        self,
        simulator: Simulator,
        client: TrafficEndpoint,
        server_ip: str,
        rate_pps: float = 100.0,
        payload_bytes: int = 500,
        dst_port: int = 9000,
        src_port: Optional[int] = None,
        duration_s: Optional[float] = None,
        name: str = "",
    ) -> None:
        super().__init__(simulator, client, name=name)
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        self.server_ip = server_ip
        self.rate_pps = rate_pps
        self.payload_bytes = payload_bytes
        self.dst_port = dst_port
        # An explicit source port makes the probe flow's 5-tuple independent
        # of the process-global generator counter (scenario replay needs it).
        self.src_port = src_port if src_port is not None else 40_000 + (self.generator_id % 1000)
        self.duration_s = duration_s
        self._started_at: Optional[float] = None
        self._sequence = 0

    def _schedule_next(self, initial: bool = False) -> None:
        if not self.running:
            return
        if initial:
            self._started_at = self.simulator.now
        delay = self._scaled_delay(0.0 if initial else 1.0 / self.rate_pps)
        if delay is None:
            return
        self._schedule(delay, self._tick)

    def _tick(self) -> None:
        if not self.running:
            return
        if (
            self.duration_s is not None
            and self._started_at is not None
            and self.simulator.now - self._started_at >= self.duration_s
        ):
            self.running = False
            return
        packet = pkt.make_udp_packet(
            src_ip=self.client.ip,
            dst_ip=self.server_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            payload_bytes=self.payload_bytes,
            src_mac=self.client.mac,
        )
        packet.metadata["probe_seq"] = self._sequence
        self._sequence += 1
        self._stamp_and_send(packet)
        self._schedule_next()


class HTTPWorkloadGenerator(_GeneratorBase):
    """Web browsing workload with exponential think times."""

    def __init__(
        self,
        simulator: Simulator,
        client: TrafficEndpoint,
        server_ip: str,
        sites: Sequence[str] = ("example.com", "news.example.org", "video.example.net"),
        mean_think_time_s: float = 2.0,
        paths: Sequence[str] = ("/", "/index.html", "/article", "/media/clip"),
        seed: Optional[int] = None,
        name: str = "",
    ) -> None:
        if mean_think_time_s <= 0:
            raise ValueError(f"mean_think_time_s must be positive, got {mean_think_time_s}")
        if not sites or not paths:
            raise ValueError(f"sites and paths must be non-empty, got {sites!r} and {paths!r}")
        super().__init__(simulator, client, name=name)
        self.server_ip = server_ip
        self.sites = list(sites)
        self.paths = list(paths)
        self.mean_think_time_s = mean_think_time_s
        # ``None`` keeps the historical fixed seed; scenario runs thread a
        # per-workload seed derived from the master seed instead.
        self._rng = random.Random(7 if seed is None else seed)
        self.pages_fetched = 0
        self.pages_blocked = 0
        self.bytes_downloaded = 0

    def _schedule_next(self, initial: bool = False) -> None:
        if not self.running:
            return
        delay = self._scaled_delay(
            0.0 if initial else self._rng.expovariate(1.0 / self.mean_think_time_s)
        )
        if delay is None:
            return
        self._schedule(delay, self._fetch_page)

    def _fetch_page(self) -> None:
        if not self.running:
            return
        host = self._rng.choice(self.sites)
        path = self._rng.choice(self.paths)
        request = pkt.make_http_request(
            src_ip=self.client.ip,
            dst_ip=self.server_ip,
            host=host,
            path=path,
            src_port=49152 + (self.packets_sent % 1000),
        )
        if request.eth is not None:
            request.eth.src = self.client.mac
        self._stamp_and_send(request)
        self._schedule_next()

    def _handle_response(self, packet: Packet) -> None:
        if isinstance(packet.app, pkt.HTTPResponse):
            if packet.app.status in (403, 451):
                self.pages_blocked += 1
            else:
                self.pages_fetched += 1
                self.bytes_downloaded += packet.app.body_bytes

    def stats(self) -> Dict[str, float]:
        combined = super().stats()
        combined.update(
            {
                "pages_fetched": float(self.pages_fetched),
                "pages_blocked": float(self.pages_blocked),
                "bytes_downloaded": float(self.bytes_downloaded),
            }
        )
        return combined


class DNSWorkloadGenerator(_GeneratorBase):
    """Periodic DNS lookups; remembers which addresses each name resolved to."""

    def __init__(
        self,
        simulator: Simulator,
        client: TrafficEndpoint,
        resolver_ip: str,
        names: Sequence[str] = ("cdn.example.com", "api.example.com"),
        query_interval_s: float = 1.0,
        seed: Optional[int] = None,
        name: str = "",
    ) -> None:
        if query_interval_s <= 0:
            raise ValueError(f"query_interval_s must be positive, got {query_interval_s}")
        if not names:
            raise ValueError("names must be non-empty")
        super().__init__(simulator, client, name=name)
        self.resolver_ip = resolver_ip
        self.names = list(names)
        self.query_interval_s = query_interval_s
        self._rng = random.Random(11 if seed is None else seed)
        self._query_id = 0
        self.answers: Dict[str, List[str]] = {}

    def _schedule_next(self, initial: bool = False) -> None:
        if not self.running:
            return
        delay = self._scaled_delay(0.0 if initial else self.query_interval_s)
        if delay is None:
            return
        self._schedule(delay, self._query)

    def _query(self) -> None:
        if not self.running:
            return
        lookup_name = self._rng.choice(self.names)
        self._query_id += 1
        query = pkt.make_dns_query(
            src_ip=self.client.ip,
            dst_ip=self.resolver_ip,
            name=lookup_name,
            query_id=self._query_id,
            src_port=53000 + (self._query_id % 1000),
            created_at=self.simulator.now,
        )
        query.eth.src = self.client.mac  # type: ignore[union-attr]
        self._stamp_and_send(query)
        self._schedule_next()

    def _handle_response(self, packet: Packet) -> None:
        if isinstance(packet.app, pkt.DNSResponse):
            self.answers.setdefault(packet.app.name, []).extend(packet.app.addresses)

    def resolution_counts(self) -> Dict[str, Dict[str, int]]:
        """Per name, how many times each address was returned (DNS-LB evidence)."""
        counts: Dict[str, Dict[str, int]] = {}
        for lookup_name, addresses in self.answers.items():
            per_name = counts.setdefault(lookup_name, {})
            for address in addresses:
                per_name[address] = per_name.get(address, 0) + 1
        return counts


class VideoWorkloadGenerator(_GeneratorBase):
    """Segment-based video streaming approximation.

    Every ``segment_interval_s`` the client requests a segment; the segment
    arrives as a burst of UDP-echoed packets, which is enough to exercise the
    rate limiter and cache NFs and to produce the sustained traffic curves
    the demo UI displays.
    """

    def __init__(
        self,
        simulator: Simulator,
        client: TrafficEndpoint,
        server_ip: str,
        segment_interval_s: float = 2.0,
        packets_per_segment: int = 20,
        payload_bytes: int = 1200,
        name: str = "",
    ) -> None:
        super().__init__(simulator, client, name=name)
        self.server_ip = server_ip
        self.segment_interval_s = segment_interval_s
        self.packets_per_segment = packets_per_segment
        self.payload_bytes = payload_bytes
        self.segments_requested = 0

    def _schedule_next(self, initial: bool = False) -> None:
        if not self.running:
            return
        delay = self._scaled_delay(0.0 if initial else self.segment_interval_s)
        if delay is None:
            return
        self._schedule(delay, self._request_segment)

    def _request_segment(self) -> None:
        if not self.running:
            return
        self.segments_requested += 1
        for index in range(self.packets_per_segment):
            packet = pkt.make_udp_packet(
                src_ip=self.client.ip,
                dst_ip=self.server_ip,
                src_port=45_000,
                dst_port=8433,
                payload_bytes=self.payload_bytes,
                src_mac=self.client.mac,
            )
            packet.metadata["probe_seq"] = (self.segments_requested, index)
            # Spread the burst over a millisecond so queues see back-to-back
            # packets; tracked so stop() cancels an in-flight burst tail.
            self._schedule(index * 0.00005, self._stamp_and_send, packet)
        self._schedule_next()

    def stats(self) -> Dict[str, float]:
        combined = super().stats()
        combined["segments_requested"] = float(self.segments_requested)
        return combined


class BulkTransferGenerator(_GeneratorBase):
    """One-way bulk upload with a fixed byte budget (file sync, backup, CDN fill).

    The generator registers a :class:`~repro.netem.fluid.FluidFlow` with the
    testbed's :class:`~repro.netem.fluid.HybridScheduler`.  While the flow is
    in **packet** mode the generator paces UDP chunks onto the wire itself;
    when the scheduler **promotes** the flow to fluid the ticking stops and
    the solver moves the remaining bytes analytically, and a later demotion
    resumes chunking exactly where the fluid accounting left off
    (``bytes_fluid + bytes_packet`` is continuous across any number of
    conversions).  Under ``simulation_mode=packet`` the scheduler pins the
    flow to packet mode forever and this generator behaves like a plain
    paced sender.

    Uploads are one-way by contract (``bulk_oneway`` metadata): the server
    counts the bytes but never echoes, so there are no RTT samples, and the
    generator registers no receive listener on its client.
    """

    HEARS_REPLIES = False

    __slots__ = (
        "server_ip",
        "scheduler",
        "rate_bps",
        "chunk_bytes",
        "dst_port",
        "src_port",
        "transfer_complete",
        "_sequence",
        "_tick_scheduled",
        "flow",
    )

    def __init__(
        self,
        simulator: Simulator,
        client: TrafficEndpoint,
        server_ip: str,
        scheduler: HybridScheduler,
        total_bytes: float,
        rate_bps: float = 20e6,
        chunk_bytes: int = 16_000,
        dst_port: int = 7001,
        src_port: Optional[int] = None,
        name: str = "",
    ) -> None:
        super().__init__(simulator, client, name=name)
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.server_ip = server_ip
        self.scheduler = scheduler
        self.rate_bps = float(rate_bps)
        self.chunk_bytes = int(chunk_bytes)
        self.dst_port = dst_port
        self.src_port = src_port if src_port is not None else 47_000 + (self.generator_id % 1000)
        self.transfer_complete = False
        self._sequence = 0
        self._tick_scheduled = False
        self.flow = FluidFlow(
            name=self.name,
            demand_bps=rate_bps,
            total_bytes=total_bytes,
            client=client,
            dst_ip=server_ip,
            owner=self,
        )

    @property
    def _chunk_interval_s(self) -> float:
        return (self.chunk_bytes * 8) / self.rate_bps

    # ------------------------------------------------------------ control

    def start(self) -> "BulkTransferGenerator":
        self.running = True
        self.scheduler.register(self.flow)
        self._schedule_next(initial=True)
        return self

    def stop(self) -> None:
        super().stop()
        self._tick_scheduled = False
        if not self.transfer_complete:
            self.scheduler.deregister(self.flow)

    # ------------------------------------------------------------- ticking

    def _schedule_next(self, initial: bool = False) -> None:
        if not self.running or self.transfer_complete:
            return
        if self.flow.mode != "packet" or self._tick_scheduled:
            return
        self._tick_scheduled = True
        # Bulk pacing is a byte-budget contract, not an era share: the chunk
        # interval is never intensity-scaled (bulk is not era-scalable).
        delay = 0.0 if initial else self._chunk_interval_s
        self._schedule(delay, self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        if not self.running or self.transfer_complete:
            return
        if self.flow.mode != "packet":
            # Promoted mid-flight: the fluid solver owns the bytes now; a
            # demotion restarts the chain via ``flow_mode_changed``.
            return
        payload = int(min(self.chunk_bytes, self.flow.remaining_bytes))
        if payload <= 0:
            self._finish()
            return
        packet = pkt.make_udp_packet(
            src_ip=self.client.ip,
            dst_ip=self.server_ip,
            src_port=self.src_port,
            dst_port=self.dst_port,
            payload_bytes=payload,
            src_mac=self.client.mac,
        )
        packet.metadata["bulk_oneway"] = True
        packet.metadata["probe_seq"] = self._sequence
        self._sequence += 1
        self._stamp_and_send(packet)
        self.scheduler.record_packet_bytes(self.flow, float(payload))
        if self.flow.remaining_bytes <= 0:
            self._finish()
            return
        self._schedule_next()

    # ---------------------------------------------------------- completion

    def _finish(self) -> None:
        if self.transfer_complete:
            return
        self.transfer_complete = True
        self.running = False
        self.scheduler.flow_finished(self.flow)

    def flow_completed(self) -> None:
        """The fluid solver moved the last byte (:class:`~repro.netem.fluid.FlowOwner` hook)."""
        self.transfer_complete = True
        self.running = False

    def flow_mode_changed(self, mode: str) -> None:
        """Resume pacing after a demotion (:class:`~repro.netem.fluid.FlowOwner` hook)."""
        if mode == "packet":
            self._schedule_next()

    # -------------------------------------------------------------- stats

    def stats(self) -> Dict[str, float]:
        combined = super().stats()
        combined.update(
            {
                "total_bytes": float(self.flow.total_bytes),
                "bytes_moved": float(self.flow.bytes_moved),
                "bytes_fluid": float(self.flow.bytes_fluid),
                "bytes_packet": float(self.flow.bytes_packet),
                "completed": 1.0 if self.transfer_complete else 0.0,
                "promotions": float(self.flow.promotions),
                "demotions": float(self.flow.demotions),
            }
        )
        # One-way traffic: no responses exist, so the request/response loss
        # metric is meaningless here.
        combined["loss_rate"] = 0.0
        return combined


class QUICWorkloadGenerator(_GeneratorBase):
    """QUIC-style web workload: 0-RTT request bursts on connection-ID flows.

    QUIC resumes sessions with 0-RTT flights, so requests leave in bursts
    with no handshake pacing.  Flows are identified by connection ID rather
    than 5-tuple; a connection occasionally migrates to a fresh source port
    mid-life (NAT rebinding) while keeping its ID, so NAT/firewall NFs keyed
    on the 5-tuple see a brand-new flow while the application session -- and
    any cache key -- is unchanged.  The per-burst gap/size/migration
    decisions are pre-drawn in blocks of 64 (see :meth:`_draw`) and each
    burst is emitted back-to-back inside a single simulator event.
    """

    _BLOCK = 64

    def __init__(
        self,
        simulator: Simulator,
        client: TrafficEndpoint,
        server_ip: str,
        sites: Sequence[str] = ("example.com", "app.example.org", "cdn.example.com"),
        paths: Sequence[str] = ("/", "/api/feed", "/assets/bundle.js"),
        mean_gap_s: float = 0.8,
        max_burst: int = 4,
        requests_per_connection: int = 8,
        migrate_probability: float = 0.15,
        seed: Optional[int] = None,
        name: str = "",
    ) -> None:
        if not sites or not paths:
            raise ValueError(f"sites and paths must be non-empty, got {sites!r} and {paths!r}")
        if mean_gap_s <= 0:
            raise ValueError(f"mean_gap_s must be positive, got {mean_gap_s}")
        if max_burst < 1:
            raise ValueError(f"max_burst must be >= 1, got {max_burst}")
        if requests_per_connection < 1:
            raise ValueError(
                f"requests_per_connection must be >= 1, got {requests_per_connection}"
            )
        if not 0.0 <= migrate_probability <= 1.0:
            raise ValueError(
                f"migrate_probability must be in [0, 1], got {migrate_probability}"
            )
        super().__init__(simulator, client, name=name)
        self.server_ip = server_ip
        self.sites = list(sites)
        self.paths = list(paths)
        self.mean_gap_s = float(mean_gap_s)
        self.max_burst = int(max_burst)
        self.requests_per_connection = int(requests_per_connection)
        self.migrate_probability = float(migrate_probability)
        # ``None`` keeps a historical fixed seed (mirrors HTTP/DNS); scenario
        # runs thread a per-workload seed derived from the master seed.
        self._rng = random.Random(13 if seed is None else seed)
        self.connections_opened = 0
        self.zero_rtt_requests = 0
        self.migrations = 0
        self.bytes_downloaded = 0
        self._cid: Optional[int] = None
        self._src_port = 0
        self._requests_on_connection = 0
        self._next_gap_s = 0.0
        self._gaps: List[float] = []
        self._bursts: List[int] = []
        self._migrate_draws: List[float] = []
        self._block_index = self._BLOCK

    # --------------------------------------------------------------- draws

    def _draw(self) -> Tuple[float, int, float]:
        """Next (gap, burst size, migration draw), refilling the 64-draw block.

        Each block comes from a fresh MT19937 seeded off ``self._rng`` and
        draws exactly what ``numpy.random.RandomState(seed)`` would:
        ``exponential(mean_gap_s, 64)``, ``randint(1, max_burst + 1, 64)``,
        then ``random_sample(64)``.
        """
        if self._block_index >= self._BLOCK:
            rng = _numpy_seeded_rng(self._rng.randrange(2**32))
            self._gaps = [
                self.mean_gap_s * -math.log(1.0 - rng.random()) for _ in range(self._BLOCK)
            ]
            self._bursts = [1 + _masked_below(rng, self.max_burst - 1) for _ in range(self._BLOCK)]
            self._migrate_draws = [rng.random() for _ in range(self._BLOCK)]
            self._block_index = 0
        index = self._block_index
        self._block_index += 1
        return self._gaps[index], self._bursts[index], self._migrate_draws[index]

    # -------------------------------------------------------------- ticking

    def _schedule_next(self, initial: bool = False) -> None:
        if not self.running:
            return
        delay = self._scaled_delay(0.0 if initial else self._next_gap_s)
        if delay is None:
            return
        self._schedule(delay, self._send_burst)

    def _open_connection(self) -> None:
        self.connections_opened += 1
        self._cid = self._rng.getrandbits(62)
        self._src_port = 51_000 + self._rng.randrange(1000)
        self._requests_on_connection = 0

    def _migrate(self) -> None:
        self.migrations += 1
        self._src_port = 51_000 + self._rng.randrange(1000)

    def _send_burst(self) -> None:
        if not self.running:
            return
        gap, burst, migrate_draw = self._draw()
        self._next_gap_s = gap
        fresh = self._cid is None or (
            self._requests_on_connection >= self.requests_per_connection
        )
        if fresh:
            self._open_connection()
        elif migrate_draw < self.migrate_probability:
            self._migrate()
        host = self._rng.choice(self.sites)
        for _ in range(burst):
            request = pkt.make_quic_request(
                src_ip=self.client.ip,
                dst_ip=self.server_ip,
                host=host,
                path=self._rng.choice(self.paths),
                connection_id=self._cid or 0,
                src_port=self._src_port,
                zero_rtt=fresh,
            )
            if request.eth is not None:
                request.eth.src = self.client.mac
            if fresh:
                self.zero_rtt_requests += 1
            self._requests_on_connection += 1
            self._stamp_and_send(request)
        self._schedule_next()

    def _handle_response(self, packet: Packet) -> None:
        if isinstance(packet.app, pkt.HTTPResponse):
            self.bytes_downloaded += packet.app.body_bytes

    def stats(self) -> Dict[str, float]:
        combined = super().stats()
        combined.update(
            {
                "connections_opened": float(self.connections_opened),
                "zero_rtt_requests": float(self.zero_rtt_requests),
                "migrations": float(self.migrations),
                "bytes_downloaded": float(self.bytes_downloaded),
            }
        )
        return combined


class ABRVideoGenerator(_GeneratorBase):
    """Adaptive-bitrate streaming: ladder-priced segment fetches over HTTP.

    Every ``segment_duration_s`` the player fetches its content's next
    segment at the current ladder rung; the object size is the rung's bitrate
    times the segment duration, and the URL names content, segment number and
    rung -- viewers of the same content request the *same* objects, so a warm
    edge cache serves whole segments locally.  Measured segment throughput
    (EWMA of body bits over fetch RTT) shifts the rung up when it comfortably
    exceeds the next rung's bitrate and down when it drops below the current
    one, with two-in-a-row hysteresis so a single outlier fetch cannot flap
    the ladder.
    """

    def __init__(
        self,
        simulator: Simulator,
        client: TrafficEndpoint,
        server_ip: str,
        content: Optional[str] = None,
        catalog: Sequence[str] = ("movie-a", "movie-b"),
        host: str = "video.example.net",
        ladder_bps: Sequence[float] = (250_000.0, 500_000.0, 1_000_000.0, 2_500_000.0),
        segment_duration_s: float = 2.0,
        initial_rung: int = 1,
        upshift_headroom: float = 1.25,
        ewma_alpha: float = 0.3,
        loop_segments: Optional[int] = None,
        src_port: Optional[int] = None,
        seed: Optional[int] = None,
        name: str = "",
    ) -> None:
        super().__init__(simulator, client, name=name)
        ladder = [float(rate) for rate in ladder_bps]
        if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError(f"ladder_bps must be non-empty and ascending, got {ladder_bps}")
        if segment_duration_s <= 0:
            raise ValueError(f"segment_duration_s must be positive, got {segment_duration_s}")
        if not 0 <= initial_rung < len(ladder):
            raise ValueError(f"initial_rung {initial_rung} outside ladder of {len(ladder)}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if loop_segments is not None and loop_segments < 1:
            raise ValueError(f"loop_segments must be >= 1, got {loop_segments}")
        #: A looping playlist (trailer/short clip): segment numbers wrap
        #: modulo this, so the same URLs recur and an edge cache can serve
        #: them.  None streams linearly forward (every URL unique).
        self.loop_segments = loop_segments
        self.server_ip = server_ip
        self.host = host
        self.ladder_bps = ladder
        self.segment_duration_s = float(segment_duration_s)
        self.rung = int(initial_rung)
        self.upshift_headroom = float(upshift_headroom)
        self.ewma_alpha = float(ewma_alpha)
        self._rng = random.Random(17 if seed is None else seed)
        self.content = content if content is not None else self._rng.choice(list(catalog))
        # An explicit source port keeps the flow 5-tuple independent of the
        # process-global generator counter (scenario replay needs it).
        self.src_port = src_port if src_port is not None else 46_000 + (self.generator_id % 1000)
        self.segments_requested = 0
        self.segments_received = 0
        self.bytes_downloaded = 0
        self.upshifts = 0
        self.downshifts = 0
        self.throughput_ewma_bps = 0.0
        self._up_votes = 0
        self._down_votes = 0

    # -------------------------------------------------------------- ticking

    def _schedule_next(self, initial: bool = False) -> None:
        if not self.running:
            return
        delay = self._scaled_delay(0.0 if initial else self.segment_duration_s)
        if delay is None:
            return
        self._schedule(delay, self._fetch_segment)

    def _fetch_segment(self) -> None:
        if not self.running:
            return
        self.segments_requested += 1
        bitrate = self.ladder_bps[self.rung]
        body_bytes = int(bitrate * self.segment_duration_s / 8.0)
        segment = self.segments_requested
        if self.loop_segments is not None:
            segment = (segment - 1) % self.loop_segments + 1
        request = pkt.make_http_request(
            src_ip=self.client.ip,
            dst_ip=self.server_ip,
            host=self.host,
            path=f"/{self.content}/seg-{segment}-{int(bitrate)}.m4s",
            src_port=self.src_port,
        )
        if request.eth is not None:
            request.eth.src = self.client.mac
        request.metadata["app_protocol"] = "abr"
        request.metadata["http_body_bytes"] = body_bytes
        request.metadata["http_content_type"] = "video/mp4"
        self._stamp_and_send(request)
        self._schedule_next()

    # ----------------------------------------------------------- adaptation

    def _handle_response(self, packet: Packet) -> None:
        if not isinstance(packet.app, pkt.HTTPResponse):
            return
        self.segments_received += 1
        self.bytes_downloaded += packet.app.body_bytes
        if not self.latency_samples:
            return
        rtt = self.latency_samples[-1].rtt
        if rtt <= 0:
            return
        sample_bps = packet.app.body_bytes * 8.0 / rtt
        if self.throughput_ewma_bps <= 0:
            self.throughput_ewma_bps = sample_bps
        else:
            self.throughput_ewma_bps += self.ewma_alpha * (
                sample_bps - self.throughput_ewma_bps
            )
        self._adapt()

    def _adapt(self) -> None:
        can_up = self.rung + 1 < len(self.ladder_bps)
        if can_up and self.throughput_ewma_bps >= (
            self.upshift_headroom * self.ladder_bps[self.rung + 1]
        ):
            self._up_votes += 1
            self._down_votes = 0
            if self._up_votes >= 2:
                self.rung += 1
                self.upshifts += 1
                self._up_votes = 0
        elif self.rung > 0 and self.throughput_ewma_bps < self.ladder_bps[self.rung]:
            self._down_votes += 1
            self._up_votes = 0
            if self._down_votes >= 2:
                self.rung -= 1
                self.downshifts += 1
                self._down_votes = 0
        else:
            self._up_votes = 0
            self._down_votes = 0

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, float]:
        combined = super().stats()
        combined.update(
            {
                "segments_requested": float(self.segments_requested),
                "segments_received": float(self.segments_received),
                "bytes_downloaded": float(self.bytes_downloaded),
                "upshifts": float(self.upshifts),
                "downshifts": float(self.downshifts),
                "rung": float(self.rung),
                "throughput_ewma_bps": float(self.throughput_ewma_bps),
            }
        )
        return combined
