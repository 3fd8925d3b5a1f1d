"""Tests for the UI dashboard, the testbed builder and the baselines."""

from __future__ import annotations

import inspect
from dataclasses import fields

import pytest

from repro.baselines.core_nfv import CoreNFVScenario
from repro.baselines.vm_nfv import VMNFVBaseline, vm_image_for
from repro.containers.checkpoint import CheckpointEngine
from repro.containers.runtime import RuntimeTimings
from repro.core.agent import GNFAgent
from repro.core.bundles import BundleUpgradeOrchestrator
from repro.core import placement
from repro.core.chain import ServiceChain
from repro.core.errors import ScenarioSpecError
from repro.core.manager import ControlPlane, GNFManager
from repro.core.migration import MigrationEngine, StateTransferService
from repro.core.placement import (
    BinPackingPlacement,
    EmbeddingPlacement,
    LatencyWeightedPlacement,
    LeastLoadedPlacement,
    NFAutoscaler,
    PlacementEngine,
)
from repro.core.repository import NFRepository
from repro.core.sharding import ShardedManager
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.host import Server
from repro.netem.simulator import Simulator
from repro.netem.switch import SoftwareSwitch
from repro.netem.topology import EdgeTopology, StationProfile, TopologyConfig
from repro.wireless.cell import Cell
from repro.wireless.client import MobileClient


# --------------------------------------------------------------------------
# GNFTestbed builder
# --------------------------------------------------------------------------


def test_testbed_builds_requested_shape():
    testbed = GNFTestbed(TestbedConfig(station_count=3, cells_per_station=2, server_count=2))
    assert len(testbed.agents) == 3
    assert len(testbed.cells) == 6
    assert len(testbed.topology.servers) == 2
    assert testbed.station_names() == ["station-1", "station-2", "station-3"]
    assert testbed.manager.roaming is testbed.roaming


def test_testbed_add_client_and_lookup():
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    client = testbed.add_client(position=(1.0, 2.0))
    assert testbed.client(client.name) is client
    assert client.ip.startswith("10.10.")


def test_testbed_add_server():
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    server = testbed.add_server("extra-server")
    assert server.ip is not None
    assert "extra-server" in testbed.topology.servers


def test_testbed_run_until():
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    testbed.run_until(2.0)
    assert testbed.simulator.now == pytest.approx(2.0)


def test_a_bad_config_is_rejected_before_anything_is_built(monkeypatch):
    def no_simulator(*args, **kwargs):
        raise AssertionError("GNFTestbed built a Simulator before validating its config")

    monkeypatch.setattr("repro.core.testbed.Simulator", no_simulator)
    for bad in (
        {"cells_per_station": 0},
        {"autoscale_up_threshold": 0.2, "autoscale_down_threshold": 0.9},
        {"station_count": 2, "region_count": 3},
        {"migration_strategy": "teleport"},
        {"placement_strategy": "teleport"},
        {"simulation_mode": "quantum"},
    ):
        with pytest.raises(ScenarioSpecError):
            GNFTestbed(TestbedConfig(**bad))


#: Values no caller ever set, now class constants: class -> name -> value.
RETIRED_KNOBS = {
    EdgeTopology: {
        "uplink_delay_s": 0.005,
        "core_bandwidth_bps": 10e9,
        "core_delay_s": 0.010,
        "gateway_forwarding_delay_s": 10e-6,
        "server_http_body_bytes": 10_000,
    },
    MigrationEngine: {"speculative_station_limit": 3},
    StateTransferService: {
        "chunk_bytes": 65536,
        "window_chunks": 32,
        "stall_timeout_s": 3.0,
        "max_retries": 5,
    },
    CheckpointEngine: {"freeze_base_s": 0.02, "dump_per_mb_s": 0.004},
    NFAutoscaler: {"hot_evals": 2, "rebalance_cooldown_s": 15.0},
    BundleUpgradeOrchestrator: {"retry_interval_s": 1.0, "max_retries": 60},
    PlacementEngine: {"retry_interval_s": 1.0},
    LatencyWeightedPlacement: {"load_weight_s": 0.02},
    EmbeddingPlacement: {"latency_budget_s": 0.05, "prefer_local_below": 0.6},
    LeastLoadedPlacement: {"latency_budget_s": 0.05},
    ControlPlane: {"heartbeat_timeout_s": 10.0},
    SoftwareSwitch: {"flow_cache_capacity": 8192},
    Server: {"processing_delay_s": 0.0005},
    Cell: {"radio_delay_s": 0.002},
    MobileClient: {"DEFAULT_GATEWAY_MAC": "02:00:00:00:00:00"},
    VMNFVBaseline: {"hypervisor_overhead_mb": 512.0},
}

#: Parameters that went with no constant of their own: the value is derived
#: or fixed, or (the saturation thresholds) lives once, beside the predicate.
RETIRED_PARAMETERS = {
    EdgeTopology: ("address_plan",),
    EdgeTopology.add_server: ("http_body_bytes",),
    GNFTestbed.add_server: ("http_body_bytes",),
    MigrationEngine: ("transfer_bandwidth_bps", "chunk_bytes"),
    NFAutoscaler: ("rebalance",),
    BundleUpgradeOrchestrator: ("catalogue",),
    BinPackingPlacement: ("max_utilization", "headroom_mb"),
    EmbeddingPlacement: ("max_utilization", "headroom_mb"),
    ControlPlane: ("placement",),
    GNFManager: ("placement", "heartbeat_timeout_s"),
    ShardedManager: ("placement", "heartbeat_timeout_s"),
    GNFManager.register_agent: ("control_latency_s",),
    ShardedManager.register_agent: ("control_latency_s",),
    GNFAgent: ("timings",),
    NFRepository: ("registry",),
    CoreNFVScenario: ("request_count_target",),
}


def test_constants_that_used_to_be_knobs_did_not_move():
    testbed = GNFTestbed()
    assert testbed.handover.hysteresis_db == 4.0
    assert testbed.handover.handover_delay_s == 0.05
    assert [cell.tx_power_dbm for cell in testbed.cells.values()] == [20.0, 20.0]
    assert EdgeTopology.uplink_delay_s == 0.005
    assert EdgeTopology.core_delay_s == 0.010
    assert (placement.MAX_UTILIZATION, placement.HEADROOM_MB) == (0.85, 4.0)
    assert testbed.roaming.transfers.chunk_bytes == 65536
    assert testbed.hybrid.epoch_s == 0.25
    assert testbed.manager.health.heartbeat_timeout_s == 10.0
    for owner, values in RETIRED_KNOBS.items():
        parameters = inspect.signature(owner).parameters
        for name, value in values.items():
            assert getattr(owner, name) == value, (owner.__name__, name)
            assert name not in parameters, (owner.__name__, name)
    for owner, names in RETIRED_PARAMETERS.items():
        parameters = inspect.signature(owner).parameters
        for name in names:
            assert name not in parameters, (owner.__qualname__, name)
    assert len(fields(TopologyConfig)) == 7
    # The deployment-shape constants live where they are read; no config
    # instance carries them, so setting one on a config changes nothing.
    for name in RETIRED_KNOBS[EdgeTopology]:
        assert not hasattr(TopologyConfig(), name), name
    # Admission is two engine arguments and the two thresholds above: a
    # refused placement always queues.
    assert not hasattr(placement, "AdmissionPolicy")
    assert testbed.add_server("extra").http_body_bytes == 10_000
    assert testbed.upgrades.catalogue.get("mobile-core", 2).version == 2
    assert testbed.topology.addresses.allocate_ip("clients", owner="x").startswith("10.10.")


def test_a_testbed_never_mutates_or_shares_its_configs_dns_zone():
    config = TestbedConfig(station_count=1)
    testbed = GNFTestbed(config)
    assert testbed.config is config
    assert testbed.topology.config.dns_zone == config.dns_zone
    assert testbed.topology.config.dns_zone is not config.dns_zone
    assert testbed.topology.config.dns_zone["cdn.example.com"] is not config.dns_zone["cdn.example.com"]


# --------------------------------------------------------------------------
# Dashboard / UI
# --------------------------------------------------------------------------


def test_dashboard_overview_and_catalog(connected_testbed):
    testbed, client = connected_testbed
    ui = testbed.ui
    overview = ui.overview()
    assert len(overview["online_stations"]) == 2
    catalog = ui.nf_catalog()
    assert any(entry["nf_type"] == "firewall" for entry in catalog)


def test_dashboard_attach_and_views(connected_testbed):
    testbed, client = connected_testbed
    ui = testbed.ui
    assignment = ui.attach_nf(client.ip, "firewall")
    testbed.run(6.0)
    stations = ui.stations()
    row = next(r for r in stations if r["station"] == "station-1")
    assert row["containers_running"] == 1
    assert row["connected_clients"] == 1
    client_rows = ui.clients()
    assert client_rows[0]["nfs"] == ["firewall"]
    view = ui.client_view(client.ip)
    assert view["assignments"][0]["state"] == "active"
    station_view = ui.station_view("station-1")
    assert station_view["deployments"]
    ui.remove_assignment(assignment.assignment_id)
    testbed.run(2.0)
    assert ui.client_view(client.ip)["assignments"][0]["state"] == "removed"


def test_dashboard_attach_chain_and_schedule(connected_testbed):
    testbed, client = connected_testbed
    ui = testbed.ui
    chain_assignment = ui.attach_chain(client.ip, ServiceChain.of("firewall", "flow-monitor"))
    scheduled = ui.schedule_nf(client.ip, "rate-limiter", start_s=100.0, end_s=200.0)
    testbed.run(6.0)
    assert chain_assignment.state.value == "active"
    assert scheduled.schedule.is_active(150.0)
    assert not scheduled.schedule.is_active(50.0)


def test_dashboard_notifications_view(connected_testbed):
    testbed, client = connected_testbed
    from repro.core.notifications import ProviderNotification

    testbed.manager.notifications.publish(
        ProviderNotification(
            received_at=1.0, raised_at=0.9, station_name="station-1",
            nf_name="ids-1", severity="critical", message="intrusion attempt",
        )
    )
    rows = testbed.ui.notifications(minimum_severity="warning")
    assert rows[0]["message"] == "intrusion attempt"


def test_dashboard_text_renderers(connected_testbed):
    testbed, client = connected_testbed
    testbed.ui.attach_nf(client.ip, "firewall")
    testbed.run(6.0)
    overview_text = testbed.ui.render_overview()
    stations_text = testbed.ui.render_stations()
    clients_text = testbed.ui.render_clients()
    assert "GNF network overview" in overview_text
    assert "station-1" in stations_text
    assert client.ip in clients_text


# --------------------------------------------------------------------------
# VM-based NFV baseline
# --------------------------------------------------------------------------


def test_vm_images_are_heavyweight():
    vm = vm_image_for("firewall")
    assert vm.size_mb > 100
    assert vm.default_memory_mb >= 256


def test_vm_instantiation_much_slower_than_container():
    simulator = Simulator()
    vm_platform = VMNFVBaseline(simulator, profile=StationProfile.server_class())
    _, vm_latency = vm_platform.instantiate("firewall")
    container_timings = RuntimeTimings.for_containers()
    from repro.containers.image import ContainerImage

    container_image = ContainerImage.build("gnf/firewall", size_mb=4.0, nf_class="x")
    container_latency = container_timings.create_duration_s() + container_timings.start_duration_s(container_image)
    assert vm_latency > 20 * container_latency


def test_vm_density_far_below_container_density():
    simulator = Simulator()
    # Server-class host: containers reach hundreds, VMs only a handful.
    vm_platform = VMNFVBaseline(simulator, profile=StationProfile.server_class())
    vm_density = vm_platform.max_density("firewall")
    assert 0 < vm_density < 64


def test_vm_does_not_fit_on_router_class_hardware():
    simulator = Simulator()
    vm_platform = VMNFVBaseline(simulator, profile=StationProfile.router_class())
    assert vm_platform.max_density("firewall") == 0


def test_vm_cold_instantiation_includes_image_pull():
    simulator = Simulator()
    platform = VMNFVBaseline(simulator, profile=StationProfile.server_class())
    _, cold = platform.instantiate("cache", warm=False)
    simulator = Simulator()
    platform = VMNFVBaseline(simulator, profile=StationProfile.server_class())
    _, warm = platform.instantiate("cache", warm=True)
    assert cold > warm
    assert platform.supports("firewall")
    assert not platform.supports("quantum")


# --------------------------------------------------------------------------
# Core-NFV latency baseline
# --------------------------------------------------------------------------


def test_edge_cache_beats_core_deployment_on_latency():
    edge = CoreNFVScenario(edge_nf=True, mean_think_time_s=0.2).run(duration_s=30.0)
    core = CoreNFVScenario(edge_nf=False, mean_think_time_s=0.2).run(duration_s=30.0)
    assert edge.requests > 10 and core.requests > 10
    assert edge.served_locally > 0
    assert core.served_locally == 0
    # Cache hits served at the edge pull the mean latency well below the
    # everything-from-the-core deployment.
    assert edge.mean_latency_s < core.mean_latency_s
    assert edge.deployment == "edge" and core.deployment == "core"
