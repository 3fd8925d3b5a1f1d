"""Unit tests for the container runtime substrate (images, cgroups,
namespaces, lifecycle, checkpoints, runtime engine)."""

from __future__ import annotations

import pytest

from repro.containers.cgroups import AdmissionError, CgroupEntry, ResourceAccount, ResourceRequest
from repro.containers.checkpoint import CheckpointEngine
from repro.containers.container import Container, ContainerState, InvalidTransitionError
from repro.containers.image import (
    ContainerImage,
    ImageLayer,
    ImageNotFoundError,
    ImageRegistry,
    default_nf_images,
)
from repro.containers.namespaces import MountNamespace, NetworkNamespace, PidNamespace
from repro.containers.runtime import ContainerRuntime, RuntimeTimings
from repro.core.chain import ServiceChain
from repro.netem.simulator import Simulator
from repro.nfs.firewall import Firewall


# --------------------------------------------------------------------------
# Images and the registry
# --------------------------------------------------------------------------


def test_image_build_splits_layers():
    image = ContainerImage.build("gnf/test", size_mb=9.0, nf_class="x.Y", layer_count=3)
    assert len(image.layers) == 3
    assert image.size_mb == pytest.approx(9.0)
    assert image.reference == "gnf/test:latest"


def test_image_build_validation():
    with pytest.raises(ValueError):
        ContainerImage.build("bad", size_mb=0, nf_class="x")
    with pytest.raises(ValueError):
        ContainerImage.build("bad", size_mb=1, nf_class="x", layer_count=0)


def test_image_layer_digests_are_content_addressed():
    a = ImageLayer.from_content("layer-a", 1.0)
    b = ImageLayer.from_content("layer-b", 1.0)
    assert a.digest != b.digest


def test_registry_push_get_and_contains():
    registry = ImageRegistry()
    image = ContainerImage.build("gnf/fw", size_mb=4.0, nf_class="x")
    registry.push(image)
    assert "gnf/fw" in registry
    assert registry.get("gnf/fw") is image
    assert registry.get("gnf/fw:latest") is image
    assert registry.catalog() == ["gnf/fw:latest"]


def test_registry_missing_image_raises():
    registry = ImageRegistry()
    with pytest.raises(ImageNotFoundError):
        registry.get("gnf/unknown")


def test_registry_pull_time_scales_with_bandwidth():
    registry = ImageRegistry(request_overhead_s=0.0)
    registry.push(ContainerImage.build("gnf/fw", size_mb=10.0, nf_class="x"))
    _, fast = registry.pull_time_s("gnf/fw", bandwidth_bps=100e6)
    _, slow = registry.pull_time_s("gnf/fw", bandwidth_bps=10e6)
    assert slow == pytest.approx(10 * fast)


def test_registry_pull_skips_cached_layers():
    registry = ImageRegistry(request_overhead_s=0.0)
    image = registry.push(ContainerImage.build("gnf/fw", size_mb=10.0, nf_class="x"))
    cached = {layer.digest for layer in image.layers}
    _, duration = registry.pull_time_s("gnf/fw", bandwidth_bps=100e6, cached_layers=cached)
    assert duration == pytest.approx(0.0)


def test_registry_pull_invalid_bandwidth():
    registry = ImageRegistry()
    registry.push(ContainerImage.build("gnf/fw", size_mb=1.0, nf_class="x"))
    with pytest.raises(ValueError):
        registry.pull_time_s("gnf/fw", bandwidth_bps=0)


def test_default_nf_images_catalogue():
    images = default_nf_images()
    names = {image.name for image in images}
    assert {"gnf/firewall", "gnf/http-filter", "gnf/dns-loadbalancer"} <= names
    assert all(image.size_mb < 20 for image in images)
    assert all(image.nf_class.startswith("repro.nfs.") for image in images)


# --------------------------------------------------------------------------
# cgroups / resource accounting
# --------------------------------------------------------------------------


def test_resource_account_admission_and_release():
    account = ResourceAccount(cpu_mhz=560, memory_mb=128, system_reserved_mb=48)
    assert account.allocatable_memory_mb == pytest.approx(80)
    account.admit("nf-1", ResourceRequest(memory_mb=30))
    assert account.free_memory_mb == pytest.approx(50)
    account.release("nf-1")
    assert account.free_memory_mb == pytest.approx(80)


def test_resource_account_rejects_overcommit():
    account = ResourceAccount(cpu_mhz=560, memory_mb=128, system_reserved_mb=48)
    account.admit("nf-1", ResourceRequest(memory_mb=70))
    with pytest.raises(AdmissionError):
        account.admit("nf-2", ResourceRequest(memory_mb=20))
    assert account.admission_failures == 1


def test_resource_account_duplicate_owner_rejected():
    account = ResourceAccount(cpu_mhz=560, memory_mb=128)
    account.admit("nf-1", ResourceRequest(memory_mb=10))
    with pytest.raises(AdmissionError):
        account.admit("nf-1", ResourceRequest(memory_mb=10))


def test_resource_request_validation():
    with pytest.raises(ValueError):
        ResourceRequest(memory_mb=0)
    with pytest.raises(ValueError):
        ResourceRequest(memory_mb=1, cpu_shares=0)


def test_resource_account_invalid_configuration():
    with pytest.raises(ValueError):
        ResourceAccount(cpu_mhz=0, memory_mb=10)
    with pytest.raises(ValueError):
        ResourceAccount(cpu_mhz=100, memory_mb=10, system_reserved_mb=20)


def test_resource_account_cpu_accounting_and_shares():
    account = ResourceAccount(cpu_mhz=3000, memory_mb=1024)
    account.admit("a", ResourceRequest(memory_mb=10, cpu_shares=256))
    account.admit("b", ResourceRequest(memory_mb=10, cpu_shares=768))
    account.charge_cpu("a", 0.5)
    account.charge_cpu("a", 0.25)
    assert account.cpu_seconds("a") == pytest.approx(0.75)
    assert account.total_cpu_seconds() == pytest.approx(0.75)
    assert account.cpu_share_fraction("b") == pytest.approx(0.75)
    assert account.cpu_share_fraction("missing") == 0.0


def test_resource_account_snapshot_fields():
    account = ResourceAccount(cpu_mhz=3000, memory_mb=1024)
    account.admit("a", ResourceRequest(memory_mb=100))
    snapshot = account.snapshot()
    assert snapshot["workloads"] == 1
    assert 0.0 < snapshot["memory_utilization"] < 1.0


# --------------------------------------------------------------------------
# Namespaces
# --------------------------------------------------------------------------


def test_network_namespace_interfaces_and_routes():
    ns = NetworkNamespace(name="netns-1")
    ns.add_interface("eth0")
    ns.add_interface("eth0")
    ns.add_route("0.0.0.0/0", "eth0")
    assert ns.interface_names == ["eth0"]
    assert ns.serialize()["routes"] == {"0.0.0.0/0": "eth0"}
    ns.remove_interface("eth0")
    assert ns.interface_names == []


def test_pid_namespace_spawn_and_kill():
    ns = PidNamespace(name="pidns-1")
    pid = ns.spawn("/usr/bin/firewall")
    assert ns.process_count == 1
    assert ns.kill(pid)
    assert not ns.kill(pid)
    ns.spawn("a")
    ns.spawn("b")
    assert ns.kill_all() == 2


def test_mount_namespace_layers_and_writes():
    ns = MountNamespace(name="mnt-1")
    ns.mount_layers(["abc", "def"])
    ns.write(2.5)
    assert ns.upper_layer_mb == pytest.approx(2.5)
    with pytest.raises(ValueError):
        ns.write(-1)
    assert ns.serialize()["lower_layers"] == ["abc", "def"]


# --------------------------------------------------------------------------
# Container lifecycle
# --------------------------------------------------------------------------


def make_container(name="fw-1", memory_mb=8.0):
    image = ContainerImage.build("gnf/firewall", size_mb=4.0, nf_class="repro.nfs.firewall.Firewall")
    return Container(name=name, image=image, request=ResourceRequest(memory_mb=memory_mb), created_at=0.0)


def test_container_happy_path_lifecycle():
    container = make_container()
    assert container.state is ContainerState.CREATED
    container.mark_starting(0.1)
    container.mark_running(0.3)
    assert container.is_running
    assert container.boot_latency() == pytest.approx(0.3)
    container.mark_stopping(5.0)
    container.mark_stopped(5.1)
    assert container.is_terminal
    assert container.uptime(now=10.0) == pytest.approx(4.8)
    assert container.pid_namespace.process_count == 0


def test_container_pause_and_checkpoint_transitions():
    container = make_container()
    container.mark_starting(0.0)
    container.mark_running(0.2)
    container.mark_paused(1.0)
    container.mark_unpaused(1.5)
    container.mark_checkpointing(2.0)
    container.mark_checkpoint_done(2.3)
    assert container.is_running


def test_container_invalid_transitions_rejected():
    container = make_container()
    with pytest.raises(InvalidTransitionError):
        container.mark_running(0.0)
    container.mark_starting(0.0)
    with pytest.raises(InvalidTransitionError):
        container.mark_paused(0.1)
    container.mark_running(0.2)
    with pytest.raises(InvalidTransitionError):
        container.mark_unpaused(0.3)
    with pytest.raises(InvalidTransitionError):
        container.mark_checkpoint_done(0.3)


def test_container_discard_before_start():
    container = make_container()
    container.mark_stopping(1.0)
    assert container.state is ContainerState.STOPPED


def test_container_failure_records_reason():
    container = make_container()
    container.mark_starting(0.0)
    container.mark_failed(0.5, reason="image corrupt")
    assert container.state is ContainerState.FAILED
    assert container.history[-1].reason == "image corrupt"


def test_container_memory_footprint_includes_writable_layer():
    container = make_container()
    container.mount_namespace.write(3.0)
    assert container.memory_footprint_mb == pytest.approx(11.0)


def test_container_describe_document():
    container = make_container()
    doc = container.describe()
    assert doc["image"] == "gnf/firewall:latest"
    assert doc["state"] == "created"


# --------------------------------------------------------------------------
# Runtime engine
# --------------------------------------------------------------------------


def build_runtime(simulator, memory_mb=1024.0, timings=None, registry=None):
    resources = ResourceAccount(cpu_mhz=3000, memory_mb=memory_mb, system_reserved_mb=64)
    if registry is None:
        registry = ImageRegistry()
        for image in default_nf_images():
            registry.push(image)
    return ContainerRuntime(
        simulator,
        name="rt",
        resources=resources,
        registry=registry,
        timings=timings or RuntimeTimings.for_containers(),
        pull_bandwidth_bps=100e6,
    )


def test_runtime_pull_and_cache(simulator):
    runtime = build_runtime(simulator)
    image, pull_time = runtime.ensure_image("gnf/firewall")
    assert pull_time > 0
    _, again = runtime.ensure_image("gnf/firewall")
    assert again == 0.0
    assert runtime.pulls_performed == 1


def test_runtime_requires_registry_for_unknown_images(simulator):
    resources = ResourceAccount(cpu_mhz=3000, memory_mb=512)
    runtime = ContainerRuntime(simulator, "rt", resources, registry=None)
    with pytest.raises(KeyError):
        runtime.ensure_image("gnf/firewall")


def test_runtime_create_start_stop_cycle(simulator):
    runtime = build_runtime(simulator)
    image, _ = runtime.ensure_image("gnf/firewall")
    container = runtime.create(image, "fw-1")
    boot = runtime.start(container)
    assert boot > 0
    simulator.run()
    assert container.is_running
    assert runtime.running_count == 1
    runtime.stop(container)
    simulator.run()
    assert container.state is ContainerState.STOPPED
    assert runtime.resources.free_memory_mb == runtime.resources.allocatable_memory_mb
    runtime.destroy(container)
    assert "fw-1" not in runtime.containers


def test_runtime_duplicate_container_name_rejected(simulator):
    runtime = build_runtime(simulator)
    image, _ = runtime.ensure_image("gnf/firewall")
    runtime.create(image, "fw-1")
    with pytest.raises(ValueError):
        runtime.create(image, "fw-1")


def test_runtime_destroy_requires_terminal_state(simulator):
    runtime = build_runtime(simulator)
    image, _ = runtime.ensure_image("gnf/firewall")
    container = runtime.create(image, "fw-1")
    with pytest.raises(RuntimeError):
        runtime.destroy(container)


def test_runtime_admission_limits_density(simulator):
    runtime = build_runtime(simulator, memory_mb=128.0)
    image, _ = runtime.ensure_image("gnf/firewall")
    created = 0
    while runtime.can_fit(image):
        runtime.create(image, f"fw-{created}")
        created += 1
    assert created > 0
    with pytest.raises(AdmissionError):
        runtime.create(image, "one-too-many")


def test_container_boot_faster_than_vm_boot(simulator):
    container_runtime = build_runtime(simulator, timings=RuntimeTimings.for_containers())
    vm_runtime = build_runtime(simulator, timings=RuntimeTimings.for_vms())
    image, _ = container_runtime.ensure_image("gnf/firewall")
    vm_image, _ = vm_runtime.ensure_image("gnf/firewall")
    c = container_runtime.create(image, "c1")
    v = vm_runtime.create(vm_image, "v1")
    container_boot = container_runtime.start(c)
    vm_boot = vm_runtime.start(v)
    assert vm_boot > 10 * container_boot


def test_runtime_timings_router_slower_than_server():
    router = RuntimeTimings.for_station_profile("router-class")
    server = RuntimeTimings.for_station_profile("server-class")
    image = ContainerImage.build("gnf/x", size_mb=5.0, nf_class="x")
    assert router.start_duration_s(image) > server.start_duration_s(image)


def test_runtime_fail_releases_resources(simulator):
    runtime = build_runtime(simulator)
    image, _ = runtime.ensure_image("gnf/firewall")
    container = runtime.create(image, "fw-1")
    runtime.start(container)
    simulator.run()
    runtime.fail(container, "oom")
    assert container.state is ContainerState.FAILED
    assert runtime.containers_failed == 1
    assert runtime.resources.free_memory_mb == runtime.resources.allocatable_memory_mb


def test_runtime_charge_cpu_reaches_cgroups(simulator):
    runtime = build_runtime(simulator)
    image, _ = runtime.ensure_image("gnf/firewall")
    container = runtime.create(image, "fw-1")
    runtime.charge_cpu("fw-1", 0.02)
    assert runtime.resources.cpu_seconds("fw-1") == pytest.approx(0.02)


def test_runtime_utilization_snapshot(simulator):
    runtime = build_runtime(simulator)
    image, _ = runtime.ensure_image("gnf/firewall")
    container = runtime.create(image, "fw-1")
    runtime.start(container)
    simulator.run()
    util = runtime.utilization()
    assert util["containers_running"] == 1
    assert util["images_cached"] >= 1


# --------------------------------------------------------------------------
# Checkpoints, and restoring their state
# --------------------------------------------------------------------------


def test_checkpoint_captures_nf_state(simulator):
    runtime = build_runtime(simulator)
    image, _ = runtime.ensure_image("gnf/firewall")
    container = runtime.create(image, "fw-1", labels={"client": "10.10.0.5"})
    runtime.start(container)
    simulator.run()
    firewall = Firewall(name="fw")
    firewall.accepted = 42
    container.network_function = firewall
    checkpoint, duration = runtime.checkpoint(container)
    simulator.run()
    assert duration > 0
    assert container.is_running  # back to RUNNING after the dump
    assert checkpoint.nf_state["accepted"] == 42
    # The one size formula a stateful migration ships.
    assert checkpoint.size_mb == container.memory_footprint_mb + 0.001 * len(str(checkpoint.nf_state))


def test_checkpoint_transfer_time_scales_with_size(testbed):
    # A checkpoint's bytes pay one path RTT plus serialization at the
    # narrowest hop: a bigger checkpoint adds serialization time only.
    engine = CheckpointEngine()
    small_container, large_container = make_container(), make_container(memory_mb=32.0)
    for container in (small_container, large_container):
        container.network_function = Firewall()
    small, large = engine.create(small_container), engine.create(large_container)
    assert large.size_mb > small.size_mb
    estimate = testbed.roaming.transfers.estimate_transfer_time
    rtt = 2 * testbed.topology.station_to_station_latency("station-1", "station-2")
    bandwidth = testbed.config.uplink_bandwidth_bps
    small_bytes, large_bytes = (int(checkpoint.size_mb * 1e6) for checkpoint in (small, large))
    fast = estimate("station-1", "station-2", small_bytes)
    slow = estimate("station-1", "station-2", large_bytes)
    assert fast == pytest.approx(rtt + small_bytes * 8 / bandwidth)
    assert slow - fast == pytest.approx((large_bytes - small_bytes) * 8 / bandwidth)


def test_restore_reinstates_nf_state(testbed):
    # State is restored by importing it into a freshly deployed chain.
    firewall = Firewall()
    firewall.accepted = 7
    state = firewall.export_state()
    testbed.start()
    testbed.run(0.5)
    agent = testbed.agents["station-2"]
    results = []
    deployment = agent.deploy_chain(
        "asg-restore", "10.10.0.5", ServiceChain.of("firewall"), nf_states=[state],
        on_complete=lambda _, success, detail: results.append(success),
    )
    testbed.run(10.0)
    assert results == [True]
    [deployed] = deployment.deployed_nfs
    assert deployed.container.is_running
    assert deployed.nf.accepted == 7
