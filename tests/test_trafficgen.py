"""Unit tests for every workload generator.

Each generator class (CBR, HTTP, DNS, video, bulk, QUIC, ABR) is driven
against a stub endpoint so the tests pin down the generator contract
itself: seeded determinism, the stats/loss-rate arithmetic, intensity
scaling/pausing, and that ``stop()`` cancels every event the generator
still has on the simulator queue.
"""

from __future__ import annotations

import pytest

from repro.netem import packet as pkt
from repro.netem.fluid import HybridScheduler
from repro.netem.simulator import Simulator
from repro.netem.trafficgen import (
    ABRVideoGenerator,
    BulkTransferGenerator,
    CBRTrafficGenerator,
    DNSWorkloadGenerator,
    HTTPWorkloadGenerator,
    QUICWorkloadGenerator,
    VideoWorkloadGenerator,
)

SERVER = "10.30.0.2"


class StubClient:
    """Minimal TrafficEndpoint: records sends, lets tests inject receives."""

    ip = "10.10.0.5"
    mac = "02:00:00:00:00:01"

    def __init__(self):
        self.sent = []
        self._listeners = []

    def send_packet(self, packet):
        self.sent.append(packet)
        return True

    def add_receive_listener(self, listener):
        self._listeners.append(listener)

    def deliver(self, packet):
        for listener in self._listeners:
            listener(packet)


def echo_http(request, status=200, body_bytes=None, now=0.0):
    """The server-side response for ``request``, probe metadata threaded."""
    if body_bytes is None:
        body_bytes = int(request.metadata.get("http_body_bytes", 10_000))
    response = pkt.make_http_response(
        request, status=status, body_bytes=body_bytes, created_at=now
    )
    for key in ("probe_gen", "request_created_at", "app_protocol", "quic_cid"):
        if key in request.metadata:
            response.metadata[key] = request.metadata[key]
    return response


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def client():
    return StubClient()


# --------------------------------------------------------------------------
# CBR: pacing, stats arithmetic, duration, stop()
# --------------------------------------------------------------------------


def test_cbr_paces_at_rate(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER, rate_pps=10.0)
    generator.start()
    sim.run_for(1.0)
    # First tick at t=0, then every 0.1 s: 11 packets in [0, 1].
    assert generator.packets_sent == 11
    assert generator.bytes_sent == sum(p.size_bytes for p in client.sent)


def test_cbr_duration_stops_sending(sim, client):
    generator = CBRTrafficGenerator(
        sim, client, server_ip=SERVER, rate_pps=10.0, duration_s=0.5
    )
    generator.start()
    sim.run_for(2.0)
    assert generator.packets_sent <= 7
    assert not generator.running


def test_loss_rate_math(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER, rate_pps=10.0)
    generator.start()
    sim.run_for(0.95)  # 10 sends
    assert generator.packets_sent == 10
    # Echo only 4 of them back.
    for request in client.sent[:4]:
        echoed = request.copy()
        client.deliver(echoed)
    stats = generator.stats()
    assert stats["responses_received"] == 4.0
    assert stats["loss_rate"] == pytest.approx(0.6)
    # Responses for a *different* generator id are ignored.
    stranger = client.sent[0].copy()
    stranger.metadata["probe_gen"] = 999_999
    client.deliver(stranger)
    assert generator.responses_received == 4


def test_loss_rate_zero_when_nothing_sent(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER)
    assert generator.loss_rate() == 0.0


def test_rtt_samples_from_echo(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER, rate_pps=100.0)
    generator.start()

    def echo_at(delay, request):
        sim.schedule(delay, client.deliver, request.copy())

    sim.run_for(0.005)
    request = client.sent[0]
    echo_at(0.03, request)
    sim.run_for(0.05)
    generator.stop()
    assert generator.rtts
    assert generator.mean_rtt() >= 0.03


# --------------------------------------------------------------------------
# stop() cancels pending events -- every generator class
# --------------------------------------------------------------------------


def _make_generator(kind, sim, client):
    if kind == "cbr":
        return CBRTrafficGenerator(sim, client, server_ip=SERVER, rate_pps=50.0)
    if kind == "http":
        return HTTPWorkloadGenerator(sim, client, server_ip=SERVER, mean_think_time_s=0.2)
    if kind == "dns":
        return DNSWorkloadGenerator(sim, client, resolver_ip=SERVER, query_interval_s=0.2)
    if kind == "video":
        return VideoWorkloadGenerator(
            sim, client, server_ip=SERVER, segment_interval_s=0.3, packets_per_segment=10
        )
    if kind == "quic":
        return QUICWorkloadGenerator(sim, client, server_ip=SERVER, mean_gap_s=0.2)
    if kind == "abr":
        return ABRVideoGenerator(sim, client, server_ip=SERVER, segment_duration_s=0.3)
    if kind == "bulk":
        scheduler = HybridScheduler(sim, mode="packet")
        return BulkTransferGenerator(
            sim, client, server_ip=SERVER, scheduler=scheduler, total_bytes=1e7
        )
    raise AssertionError(kind)


ALL_KINDS = ("cbr", "http", "dns", "video", "quic", "abr", "bulk")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stop_cancels_pending_events(kind, sim, client):
    generator = _make_generator(kind, sim, client)
    generator.start()
    sim.run_for(0.5)
    assert generator.packets_sent > 0
    generator.stop()
    # Everything still on the queue belonged to the generator and is gone.
    assert sim.pending_events == 0
    sent_before = generator.packets_sent
    sim.run_for(2.0)
    assert generator.packets_sent == sent_before


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_stats_keys_present(kind, sim, client):
    generator = _make_generator(kind, sim, client)
    generator.start()
    sim.run_for(0.4)
    generator.stop()
    stats = generator.stats()
    for key in ("packets_sent", "bytes_sent", "responses_received", "loss_rate"):
        assert key in stats
    assert stats["packets_sent"] == float(generator.packets_sent)


# --------------------------------------------------------------------------
# Intensity scaling (the traffic-era knob)
# --------------------------------------------------------------------------


def test_intensity_scales_offered_load(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER, rate_pps=10.0)
    generator.intensity = 2.0
    generator.start()
    sim.run_for(1.0)
    # Doubled intensity halves the inter-packet gap: ~21 instead of ~11
    # (the t=1.0 tick may fall just past the window by float accumulation).
    assert generator.packets_sent in (20, 21)


def test_intensity_zero_pauses_and_resume_restarts(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER, rate_pps=10.0)
    generator.start()
    sim.run_for(0.55)
    generator.set_intensity(0.0)
    sim.run_for(1.0)
    paused_at = generator.packets_sent
    sim.run_for(1.0)
    assert generator.packets_sent == paused_at  # fully paused
    generator.set_intensity(1.0)
    sim.run_for(1.0)
    assert generator.packets_sent > paused_at  # resumed


def test_resume_does_not_double_chain(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER, rate_pps=10.0)
    generator.start()
    # Flip intensity while the next tick is still pending: the guard must
    # not start a second self-chain alongside it.
    generator.set_intensity(2.0)
    generator.set_intensity(1.0)
    sim.run_for(1.0)
    assert generator.packets_sent <= 12


def test_negative_intensity_rejected(sim, client):
    generator = CBRTrafficGenerator(sim, client, server_ip=SERVER)
    with pytest.raises(ValueError):
        generator.set_intensity(-0.1)


# --------------------------------------------------------------------------
# HTTP / DNS / video specifics
# --------------------------------------------------------------------------


def test_http_seeded_determinism(sim, client):
    sim_b, client_b = Simulator(), StubClient()
    a = HTTPWorkloadGenerator(sim, client, server_ip=SERVER, seed=42, mean_think_time_s=0.3)
    b = HTTPWorkloadGenerator(sim_b, client_b, server_ip=SERVER, seed=42, mean_think_time_s=0.3)
    a.start()
    b.start()
    sim.run_for(5.0)
    sim_b.run_for(5.0)
    assert len(client.sent) == len(client_b.sent) > 3
    assert [p.app.url for p in client.sent] == [p.app.url for p in client_b.sent]
    assert [p.created_at for p in client.sent] == [p.created_at for p in client_b.sent]


def test_http_counts_blocked_pages(sim, client):
    generator = HTTPWorkloadGenerator(sim, client, server_ip=SERVER, mean_think_time_s=0.5)
    generator.start()
    sim.run_for(0.01)
    request = client.sent[0]
    client.deliver(echo_http(request, status=403, body_bytes=0))
    assert generator.pages_blocked == 1 and generator.pages_fetched == 0
    sim.run_for(2.0)
    client.deliver(echo_http(client.sent[-1], status=200, body_bytes=5_000))
    assert generator.pages_fetched == 1
    assert generator.bytes_downloaded == 5_000


def test_dns_records_answers(sim, client):
    generator = DNSWorkloadGenerator(
        sim, client, resolver_ip=SERVER, names=["cdn.example.com"], query_interval_s=0.5
    )
    generator.start()
    sim.run_for(0.01)
    query = client.sent[0]
    response = pkt.make_dns_response(query, addresses=["198.18.0.1"])
    response.metadata.update(
        {k: query.metadata[k] for k in ("probe_gen", "request_created_at")}
    )
    client.deliver(response)
    assert generator.answers["cdn.example.com"] == ["198.18.0.1"]
    assert generator.resolution_counts()["cdn.example.com"]["198.18.0.1"] == 1


def test_video_bursts_per_segment(sim, client):
    generator = VideoWorkloadGenerator(
        sim, client, server_ip=SERVER, segment_interval_s=1.0, packets_per_segment=8
    )
    generator.start()
    sim.run_for(2.5)
    assert generator.segments_requested == 3
    assert generator.packets_sent == 24
    assert generator.stats()["segments_requested"] == 3.0


def test_video_stop_cancels_burst_tail(sim, client):
    generator = VideoWorkloadGenerator(
        sim, client, server_ip=SERVER, segment_interval_s=1.0, packets_per_segment=50
    )
    generator.start()
    # Stop immediately: the burst's sub-events are pending but unsent.
    generator.stop()
    sim.run_for(1.0)
    assert sim.pending_events == 0
    assert generator.packets_sent == 0


# --------------------------------------------------------------------------
# QUIC: bursts, connection IDs, migrations, determinism
# --------------------------------------------------------------------------


def test_quic_seeded_determinism(sim, client):
    sim_b, client_b = Simulator(), StubClient()
    a = QUICWorkloadGenerator(sim, client, server_ip=SERVER, seed=5, mean_gap_s=0.3)
    b = QUICWorkloadGenerator(sim_b, client_b, server_ip=SERVER, seed=5, mean_gap_s=0.3)
    a.start()
    b.start()
    sim.run_for(10.0)
    sim_b.run_for(10.0)
    assert len(client.sent) == len(client_b.sent) > 5
    for x, y in zip(client.sent, client_b.sent):
        assert x.app.url == y.app.url
        assert x.metadata["quic_cid"] == y.metadata["quic_cid"]
        assert x.l4.src_port == y.l4.src_port
        assert x.created_at == y.created_at
    assert a.stats() == b.stats()


def test_quic_bursts_share_one_timestamp(sim, client):
    generator = QUICWorkloadGenerator(
        sim, client, server_ip=SERVER, seed=1, mean_gap_s=0.5, max_burst=4
    )
    generator.start()
    sim.run_for(20.0)
    generator.stop()
    by_time = {}
    for packet in client.sent:
        by_time.setdefault(packet.created_at, 0)
        by_time[packet.created_at] += 1
    # Vectorized bursts: at least one event emitted >1 request back-to-back.
    assert max(by_time.values()) > 1
    assert sum(by_time.values()) == generator.packets_sent


def test_quic_connection_lifecycle(sim, client):
    generator = QUICWorkloadGenerator(
        sim,
        client,
        server_ip=SERVER,
        seed=3,
        mean_gap_s=0.2,
        requests_per_connection=5,
        migrate_probability=1.0,  # migrate at every non-fresh burst
    )
    generator.start()
    sim.run_for(30.0)
    generator.stop()
    assert generator.connections_opened >= 2
    assert generator.migrations >= 1
    # 0-RTT flights happen on fresh connections only, one count per request.
    assert 0 < generator.zero_rtt_requests <= generator.packets_sent
    # A migration rebinds the source port but keeps the connection ID: every
    # packet's cid is one of the opened connections' ids.
    cids = {p.metadata["quic_cid"] for p in client.sent}
    assert len(cids) == generator.connections_opened
    ports_per_cid = {}
    for packet in client.sent:
        ports_per_cid.setdefault(packet.metadata["quic_cid"], set()).add(
            packet.l4.src_port
        )
    assert any(len(ports) > 1 for ports in ports_per_cid.values())
    # QUIC rides UDP/443 and is marked uncacheable-opaque.
    assert all(p.metadata["app_protocol"] == "quic" for p in client.sent)
    assert all(p.l4.dst_port == pkt.QUIC_PORT for p in client.sent)


def test_quic_counts_downloaded_bytes(sim, client):
    generator = QUICWorkloadGenerator(sim, client, server_ip=SERVER, seed=2)
    generator.start()
    sim.run_for(0.01)
    client.deliver(echo_http(client.sent[0], body_bytes=7_000))
    assert generator.bytes_downloaded == 7_000
    assert generator.stats()["bytes_downloaded"] == 7_000.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mean_gap_s": 0.0},
        {"max_burst": 0},
        {"requests_per_connection": 0},
        {"migrate_probability": 1.5},
    ],
)
def test_quic_validates_parameters(sim, client, kwargs):
    with pytest.raises(ValueError):
        QUICWorkloadGenerator(sim, client, server_ip=SERVER, **kwargs)


class TestConstructorRejectsConfigsThatFailMidRun:
    """Configs that would crash or hang at the first send raise at construction."""

    def test_http_zero_think_time(self, sim, client):
        with pytest.raises(ValueError, match="mean_think_time_s"):
            HTTPWorkloadGenerator(sim, client, server_ip=SERVER, mean_think_time_s=0)

    def test_http_negative_think_time(self, sim, client):
        with pytest.raises(ValueError, match="mean_think_time_s"):
            HTTPWorkloadGenerator(sim, client, server_ip=SERVER, mean_think_time_s=-1)

    def test_http_empty_sites(self, sim, client):
        with pytest.raises(ValueError, match="sites and paths"):
            HTTPWorkloadGenerator(sim, client, server_ip=SERVER, sites=())

    def test_http_empty_paths(self, sim, client):
        with pytest.raises(ValueError, match="sites and paths"):
            HTTPWorkloadGenerator(sim, client, server_ip=SERVER, paths=[])

    def test_dns_zero_query_interval(self, sim, client):
        with pytest.raises(ValueError, match="query_interval_s"):
            DNSWorkloadGenerator(sim, client, resolver_ip=SERVER, query_interval_s=0)

    def test_dns_empty_names(self, sim, client):
        with pytest.raises(ValueError, match="names"):
            DNSWorkloadGenerator(sim, client, resolver_ip=SERVER, names=())

    def test_quic_empty_sites(self, sim, client):
        with pytest.raises(ValueError, match="sites and paths"):
            QUICWorkloadGenerator(sim, client, server_ip=SERVER, sites=[])

    def test_quic_empty_paths(self, sim, client):
        with pytest.raises(ValueError, match="sites and paths"):
            QUICWorkloadGenerator(sim, client, server_ip=SERVER, paths=())

    def test_a_rejected_generator_leaves_no_listener(self, sim, client):
        with pytest.raises(ValueError):
            HTTPWorkloadGenerator(sim, client, server_ip=SERVER, sites=())
        assert client._listeners == []


# --------------------------------------------------------------------------
# ABR: ladder pricing, adaptation hysteresis, looping playlists
# --------------------------------------------------------------------------


def test_abr_segment_pricing_and_url_shape(sim, client):
    generator = ABRVideoGenerator(
        sim,
        client,
        server_ip=SERVER,
        content="movie-a",
        ladder_bps=(1_000_000.0, 2_000_000.0),
        segment_duration_s=2.0,
        initial_rung=0,
    )
    generator.start()
    sim.run_for(0.01)
    request = client.sent[0]
    assert request.app.path == "/movie-a/seg-1-1000000.m4s"
    # Object size = bitrate * duration / 8.
    assert request.metadata["http_body_bytes"] == 250_000
    assert request.metadata["app_protocol"] == "abr"
    assert request.metadata["http_content_type"] == "video/mp4"


def test_abr_upshift_needs_two_votes(sim, client):
    generator = ABRVideoGenerator(
        sim,
        client,
        server_ip=SERVER,
        ladder_bps=(1e6, 2e6),
        segment_duration_s=0.5,
        initial_rung=0,
        upshift_headroom=1.25,
    )
    generator.start()

    def fast_echo(request):
        # Served ~instantly: enormous measured throughput.
        sim.schedule(0.001, client.deliver, echo_http(request))

    sim.run_for(0.01)
    fast_echo(client.sent[-1])
    sim.run_for(0.4)
    assert generator.rung == 0  # one fast sample is not enough
    fast_echo(client.sent[-1])
    sim.run_for(0.4)
    generator.stop()
    assert generator.rung == 1
    assert generator.upshifts == 1


def test_abr_downshifts_on_starved_throughput(sim, client):
    generator = ABRVideoGenerator(
        sim,
        client,
        server_ip=SERVER,
        ladder_bps=(1e6, 2e6),
        segment_duration_s=0.5,
        initial_rung=1,
        ewma_alpha=1.0,  # the latest sample is the estimate
    )
    generator.start()
    for _ in range(2):
        sim.run_for(0.51)
        # Each segment takes ~2 s to arrive: measured ~0.5 Mbit/s.
        sim.schedule(2.0, client.deliver, echo_http(client.sent[-1]))
    sim.run_for(5.0)
    generator.stop()
    assert generator.rung == 0
    assert generator.downshifts == 1
    assert generator.throughput_ewma_bps < 1e6


def test_abr_looping_playlist_repeats_urls(sim, client):
    generator = ABRVideoGenerator(
        sim,
        client,
        server_ip=SERVER,
        content="clip",
        ladder_bps=(1e6,),
        segment_duration_s=0.25,
        initial_rung=0,
        loop_segments=3,
    )
    generator.start()
    sim.run_for(2.0)
    generator.stop()
    urls = [p.app.path for p in client.sent]
    assert len(urls) >= 6
    assert set(urls) == {f"/clip/seg-{n}-1000000.m4s" for n in (1, 2, 3)}
    assert urls[0] == urls[3]  # wraps modulo the loop


def test_abr_seeded_determinism_and_shared_catalog(sim, client):
    sim_b, client_b = Simulator(), StubClient()
    a = ABRVideoGenerator(sim, client, server_ip=SERVER, seed=9, src_port=46_100)
    b = ABRVideoGenerator(sim_b, client_b, server_ip=SERVER, seed=9, src_port=46_100)
    assert a.content == b.content  # same seed draws the same catalog entry
    a.start()
    b.start()
    sim.run_for(6.0)
    sim_b.run_for(6.0)
    assert [p.app.url for p in client.sent] == [p.app.url for p in client_b.sent]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ladder_bps": ()},
        {"ladder_bps": (2e6, 1e6)},
        {"segment_duration_s": 0.0},
        {"initial_rung": 7},
        {"ewma_alpha": 0.0},
        {"loop_segments": 0},
    ],
)
def test_abr_validates_parameters(sim, client, kwargs):
    with pytest.raises(ValueError):
        ABRVideoGenerator(sim, client, server_ip=SERVER, **kwargs)


# --------------------------------------------------------------------------
# Bulk: byte budget, one-way stats, stop() deregisters
# --------------------------------------------------------------------------


def test_bulk_completes_exact_byte_budget(sim, client):
    scheduler = HybridScheduler(sim, mode="packet")
    generator = BulkTransferGenerator(
        sim,
        client,
        server_ip=SERVER,
        scheduler=scheduler,
        total_bytes=100_000,
        rate_bps=8e6,
        chunk_bytes=16_000,
    )
    generator.start()
    sim.run_for(5.0)
    stats = generator.stats()
    assert generator.transfer_complete
    assert stats["bytes_moved"] == 100_000.0
    assert stats["bytes_packet"] == 100_000.0
    assert stats["completed"] == 1.0
    assert stats["loss_rate"] == 0.0  # one-way by contract
    assert all(p.metadata.get("bulk_oneway") for p in client.sent)


def test_bulk_stop_cancels_and_deregisters(sim, client):
    scheduler = HybridScheduler(sim, mode="packet")
    generator = BulkTransferGenerator(
        sim,
        client,
        server_ip=SERVER,
        scheduler=scheduler,
        total_bytes=1e9,
        rate_bps=8e6,
    )
    generator.start()
    sim.run_for(0.1)
    assert generator.flow in scheduler.flows.values()
    generator.stop()
    assert sim.pending_events == 0
    assert generator.flow not in scheduler.flows.values()
