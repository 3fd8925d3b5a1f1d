"""Unit tests for the GNF control-plane building blocks: policies, chains,
schedules, placement, monitoring, notifications, the NF repository and the
control channel."""

from __future__ import annotations

import pytest

from repro.containers.image import ContainerImage
from repro.core.api import ControlChannel
from repro.core.chain import NFSpec, ServiceChain
from repro.core.errors import CatalogError, DeploymentError, ScheduleError
from repro.core.monitoring import HotspotDetector
from repro.core.notifications import NotificationCenter, ProviderNotification
from repro.core.placement import (
    ClosestAgentPlacement,
    CorePlacement,
    LatencyAwarePlacement,
    LoadAwarePlacement,
    StationView,
)
from repro.core.policy import TrafficSelector
from repro.core.repository import NFRepository
from repro.core.scheduler import NFScheduler, ScheduleWindow, TimeSchedule
from repro.netem import packet as pkt
from repro.netem.simulator import Simulator
from repro.telemetry.rollup import HealthRollup


# --------------------------------------------------------------------------
# TrafficSelector
# --------------------------------------------------------------------------


def test_selector_all_traffic_matches_both_directions():
    selector = TrafficSelector.all_traffic()
    up = selector.upstream_match("10.10.0.5", in_port=3)
    down = selector.downstream_match("10.10.0.5", in_port=1)
    request = pkt.make_tcp_packet("10.10.0.5", "10.30.0.2", 1000, 80)
    response = pkt.make_tcp_packet("10.30.0.2", "10.10.0.5", 80, 1000)
    assert up.matches(request, 3)
    assert not up.matches(request, 4)
    assert down.matches(response, 1)


def test_selector_web_traffic_restricts_ports():
    selector = TrafficSelector.web_traffic()
    http = pkt.make_tcp_packet("10.10.0.5", "10.30.0.2", 1000, 80)
    ssh = pkt.make_tcp_packet("10.10.0.5", "10.30.0.2", 1000, 22)
    assert selector.upstream_match("10.10.0.5").matches(http, 1)
    assert not selector.upstream_match("10.10.0.5").matches(ssh, 1)
    response = pkt.make_tcp_packet("10.30.0.2", "10.10.0.5", 80, 1000)
    assert selector.downstream_match("10.10.0.5").matches(response, 1)


def test_selector_dns_traffic_uses_udp_53():
    selector = TrafficSelector.dns_traffic()
    assert selector.protocol_number == pkt.PROTO_UDP
    query = pkt.make_dns_query("10.10.0.5", "10.30.0.2", name="x")
    assert selector.upstream_match("10.10.0.5").matches(query, 1)


def test_selector_serialization_roundtrip():
    selector = TrafficSelector(protocol="tcp", remote_port=443, remote_ip="10.30.0.2", description="tls")
    restored = TrafficSelector.from_dict(selector.to_dict())
    assert restored == selector


def test_selector_rejects_unknown_protocol():
    with pytest.raises(ValueError):
        TrafficSelector(protocol="gre")


# --------------------------------------------------------------------------
# ServiceChain
# --------------------------------------------------------------------------


def test_chain_requires_at_least_one_nf():
    with pytest.raises(ValueError):
        ServiceChain([])


def test_chain_orders_and_types():
    chain = ServiceChain.of("firewall", "http-filter", "rate-limiter")
    assert chain.nf_types == ["firewall", "http-filter", "rate-limiter"]
    assert [spec.nf_type for spec in chain.upstream_order()] == chain.nf_types
    assert [spec.nf_type for spec in chain.downstream_order()] == list(reversed(chain.nf_types))
    assert len(chain) == 3


def test_chain_single_with_config():
    chain = ServiceChain.single("cache", config={"capacity_mb": 4.0})
    assert chain.specs[0].config == {"capacity_mb": 4.0}


def test_chain_serialization_roundtrip():
    chain = ServiceChain([NFSpec("firewall", config={"stateful": False}), NFSpec("nat")])
    restored = ServiceChain.from_dicts(chain.to_dicts(), name="copy")
    assert restored.nf_types == chain.nf_types
    assert restored.specs[0].config == {"stateful": False}


def test_chain_ids_unique():
    assert ServiceChain.of("firewall").chain_id != ServiceChain.of("firewall").chain_id


# --------------------------------------------------------------------------
# Schedules and the scheduler
# --------------------------------------------------------------------------


def test_schedule_always_active():
    assert TimeSchedule.always().is_active(0.0)
    assert TimeSchedule.always().is_active(1e9)


def test_schedule_window_semantics():
    schedule = TimeSchedule.between(10.0, 20.0)
    assert not schedule.is_active(5.0)
    assert schedule.is_active(10.0)
    assert schedule.is_active(19.999)
    assert not schedule.is_active(20.0)


def test_schedule_daily_window_wraps():
    schedule = TimeSchedule.daily(10.0, 20.0, day_length_s=100.0)
    assert schedule.is_active(15.0)
    assert schedule.is_active(115.0)
    assert not schedule.is_active(95.0)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        ScheduleWindow(5.0, 5.0)
    # A zero-length daily window is meaningless (start > end wraps instead).
    with pytest.raises(ScheduleError):
        TimeSchedule.daily(30.0, 30.0)
    with pytest.raises(ScheduleError):
        TimeSchedule.daily(-5.0, 20.0)
    with pytest.raises(ScheduleError):
        TimeSchedule.daily(10.0, 200.0, day_length_s=100.0)
    with pytest.raises(ScheduleError):
        TimeSchedule(day_length_s=0)


def test_schedule_daily_window_wrapping_day_boundary():
    # A "22:00 -> 02:00" night window on a compressed 24 s day.
    schedule = TimeSchedule.daily(22.0, 2.0, day_length_s=24.0)
    assert schedule.is_active(23.0)       # late evening, day 0
    assert schedule.is_active(24.0)       # exactly midnight -> day 1 begins
    assert schedule.is_active(25.0)       # small hours, day 1
    assert not schedule.is_active(2.0)    # window end is exclusive
    assert not schedule.is_active(12.0)   # midday
    assert schedule.is_active(22.0)       # window start is inclusive
    # The same pattern holds many compressed days in.
    assert schedule.is_active(10 * 24.0 + 23.5)
    assert not schedule.is_active(10 * 24.0 + 3.0)


def test_scheduler_drives_enable_disable_transitions():
    simulator = Simulator()
    enabled, disabled = [], []
    scheduler = NFScheduler(simulator, enabled.append, disabled.append, check_interval_s=1.0)
    scheduler.add("asg-1", TimeSchedule.between(3.0, 6.0), currently_active=True)
    scheduler.start()
    simulator.run(until=10.0)
    # Active at attach time, disabled before the window opens, re-enabled inside
    # it, disabled again after it closes.
    assert disabled == ["asg-1", "asg-1"]
    assert enabled == ["asg-1"]
    assert scheduler.transitions == 3
    scheduler.remove("asg-1")
    assert scheduler.tracked() == []
    scheduler.stop()


def test_scheduler_ignores_always_schedules():
    simulator = Simulator()
    enabled, disabled = [], []
    scheduler = NFScheduler(simulator, enabled.append, disabled.append)
    scheduler.add("asg-1", TimeSchedule.always(), currently_active=True)
    scheduler.start()
    simulator.run(until=5.0)
    assert enabled == [] and disabled == []


# --------------------------------------------------------------------------
# Placement
# --------------------------------------------------------------------------


def views():
    return [
        StationView("station-1", free_memory_mb=10, memory_utilization=0.9, running_nfs=5,
                    control_latency_s=0.01, client_latency_s=0.0),
        StationView("station-2", free_memory_mb=60, memory_utilization=0.2, running_nfs=1,
                    control_latency_s=0.01, client_latency_s=0.01),
        StationView("central", free_memory_mb=4000, memory_utilization=0.05, running_nfs=0,
                    control_latency_s=0.02, client_latency_s=0.03),
    ]


def test_closest_agent_placement_uses_client_station():
    assert ClosestAgentPlacement().choose("station-1", views(), 10.0) == "station-1"
    with pytest.raises(DeploymentError):
        ClosestAgentPlacement().choose("station-99", views(), 10.0)


def test_load_aware_placement_prefers_free_memory_within_budget():
    placement = LoadAwarePlacement(latency_budget_s=0.02)
    assert placement.choose("station-1", views(), 10.0) == "station-2"


def test_load_aware_placement_falls_back_when_nothing_eligible():
    placement = LoadAwarePlacement(latency_budget_s=0.001, min_free_memory_mb=10_000)
    assert placement.choose("station-1", views(), 10.0) == "central"
    with pytest.raises(DeploymentError):
        placement.choose("station-1", [], 10.0)


def test_latency_aware_placement_minimises_latency():
    assert LatencyAwarePlacement().choose("station-1", views(), 10.0) == "station-1"
    with pytest.raises(DeploymentError):
        LatencyAwarePlacement().choose("station-1", [], 10.0)


def test_core_placement_pins_to_central_station():
    assert CorePlacement("central").choose("station-1", views(), 10.0) == "central"
    with pytest.raises(DeploymentError):
        CorePlacement("missing").choose("station-1", views(), 10.0)


# --------------------------------------------------------------------------
# Health monitoring and hotspot detection
# --------------------------------------------------------------------------


def test_health_monitor_tracks_liveness():
    monitor = HealthRollup(heartbeat_timeout_s=5.0)
    monitor.register("station-1", now=0.0)
    monitor.record("station-1", now=2.0)
    assert monitor.online_stations(now=4.0) == ("station-1",)
    assert monitor.offline_stations(now=20.0) == ("station-1",)
    # Registration is liveness, not a heartbeat.
    assert monitor.heartbeats_received("station-1") == 1
    assert not monitor.is_online("station-99", now=0.0)
    # Heartbeat from an unknown station auto-registers it.
    monitor.record("station-2", now=3.0)
    assert len(monitor) == 2


def test_hotspot_detector_memory_threshold():
    detector = HotspotDetector(memory_threshold=0.8)
    found = detector.observe("station-1", 1.0, {"memory_utilization": 0.95, "total_cpu_seconds": 0.0})
    assert len(found) == 1
    assert detector.hotspot_stations() == ["station-1"]
    assert detector.recent_hotspots(since=0.5)


def test_hotspot_detector_cpu_rate_needs_two_samples():
    detector = HotspotDetector(cpu_seconds_rate_threshold=0.5)
    assert detector.observe("s", 0.0, {"memory_utilization": 0.1, "total_cpu_seconds": 0.0}) == []
    found = detector.observe("s", 1.0, {"memory_utilization": 0.1, "total_cpu_seconds": 0.9})
    assert [hotspot.metric for hotspot in found] == ["cpu_busy_fraction"]


def test_hotspot_detector_quiet_station_never_flagged():
    detector = HotspotDetector()
    for t in range(5):
        detector.observe("s", float(t), {"memory_utilization": 0.2, "total_cpu_seconds": 0.01 * t})
    assert detector.hotspot_stations() == []


# --------------------------------------------------------------------------
# Notification centre
# --------------------------------------------------------------------------


def make_notification(severity="warning", station="station-1", nf="ids-1", raised=1.0, received=1.02):
    return ProviderNotification(
        received_at=received,
        raised_at=raised,
        station_name=station,
        nf_name=nf,
        severity=severity,
        message="event",
    )


def test_notification_center_stores_filters_and_fans_out():
    center = NotificationCenter()
    seen = []
    center.subscribe(seen.append)
    center.publish(make_notification("info"))
    center.publish(make_notification("critical", station="station-2", nf="fw-1"))
    assert len(center) == 2
    assert len(seen) == 2
    assert [n.severity for n in center.by_severity("warning")] == ["critical"]
    assert len(center.by_station("station-2")) == 1
    assert len(center.by_nf("ids-1")) == 1
    assert center.summary() == {"info": 1, "critical": 1}


def test_notification_delivery_latency_and_ack():
    center = NotificationCenter()
    center.publish(make_notification(raised=1.0, received=1.25))
    assert center.all()[0].delivery_latency_s == pytest.approx(0.25)
    assert len(center.unacknowledged()) == 1
    assert center.acknowledge_all() == 1
    assert center.unacknowledged() == []
    assert center.acknowledge_all() == 0


def test_notification_center_bounded():
    center = NotificationCenter(max_notifications=3)
    for _ in range(5):
        center.publish(make_notification())
    assert len(center) == 3


# --------------------------------------------------------------------------
# NF repository and control channel
# --------------------------------------------------------------------------


def test_repository_default_catalog_has_demo_nfs():
    repository = NFRepository.with_default_catalog()
    assert {"firewall", "http-filter", "dns-loadbalancer"} <= set(repository.types())
    entry = repository.lookup("firewall")
    assert entry.image_reference == "gnf/firewall:latest"
    assert entry.nf_class.endswith("Firewall")
    assert "firewall" in repository
    assert any(row["nf_type"] == "cache" for row in repository.describe())


def test_repository_unknown_type_raises():
    repository = NFRepository.with_default_catalog()
    with pytest.raises(CatalogError):
        repository.lookup("quantum-optimizer")


def test_repository_register_custom_entry():
    repository = NFRepository()
    image = ContainerImage.build("acme/scrubber", size_mb=2.0, nf_class="repro.nfs.flow_monitor.FlowMonitor")
    repository.register("scrubber", image, default_config={"top_talker_count": 3})
    entry = repository.lookup("scrubber")
    assert entry.default_config == {"top_talker_count": 3}
    assert "acme/scrubber" in repository.registry


def test_control_channel_delivers_after_latency():
    simulator = Simulator()
    channel = ControlChannel(simulator, latency_s=0.015)
    arrivals = []
    channel.call(lambda value: arrivals.append((value, simulator.now)), 42)
    simulator.run()
    assert arrivals == [(42, pytest.approx(0.015))]
    assert channel.stats()["messages_delivered"] == 1


def test_control_channel_rejects_negative_latency():
    with pytest.raises(ValueError):
        ControlChannel(Simulator(), latency_s=-1)
