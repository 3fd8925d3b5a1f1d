"""Station state keeps what has a reader: census guards and the tick-cost bound.

The Agent's collector tick and its heartbeat are the two clocks that read a
station's state every second or two; these tests pin what they carry and
that their cost follows what is *running*, not what the station has ever
hosted.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

from repro.containers.cgroups import ResourceAccount, ResourceRequest
from repro.core.chain import ServiceChain
from repro.core.monitoring import HotspotDetector
from repro.core.placement import StationView
from repro.core.testbed import GNFTestbed, TestbedConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_scenarios_package_does_not_import_networkx():
    # Fresh interpreter: this process may have networkx loaded by a plugin.
    subprocess.run(
        [sys.executable, "-c", "import repro.scenarios, sys; assert 'networkx' not in sys.modules"],
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )


def test_station_view_carries_only_what_a_strategy_reads():
    assert {f.name for f in dataclasses.fields(StationView)} == {
        "name",
        "free_memory_mb",
        "memory_utilization",
        "running_nfs",
        "control_latency_s",
        "client_latency_s",
        "allocatable_memory_mb",
        "chains",
        "uplink_utilization",
    }


def test_default_collector_sources_are_the_ones_with_a_reader():
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    for agent in testbed.agents.values():
        assert agent.collector.sources() == ["cache", "fastpath", "flows"]
        assert agent.collector.interval_s == 1.0


def _python_calls(function) -> int:
    """Python-level function calls made while ``function()`` runs (exact)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def test_tick_cost_does_not_grow_with_completed_attach_detach_cycles():
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    phone = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    agent = testbed.agents["station-1"]

    def tick():
        agent.collector.sample_once()
        agent.send_heartbeat()

    fresh = _python_calls(tick)
    for _ in range(40):
        assignment = testbed.manager.attach_chain(
            phone.ip, ServiceChain.of("firewall", "flow-monitor"), station_name="station-1"
        )
        testbed.run(2.0)
        testbed.manager.detach(assignment.assignment_id)
        testbed.run(2.0)
    assert agent.runtime.running_containers() == []
    assert agent.runtime.containers == {}  # terminal containers are not held...
    assert agent.runtime.utilization()["containers_total"] == 80.0  # ...only counted
    assert agent.runtime.resources.allocated_memory_mb == 0.0
    assert _python_calls(tick) == fresh
    testbed.stop()


def test_cpu_total_survives_a_teardown_so_the_hotspot_detector_sees_a_busy_station():
    account = ResourceAccount(cpu_mhz=3000, memory_mb=1024)
    account.admit("a", ResourceRequest(memory_mb=10))
    account.admit("b", ResourceRequest(memory_mb=10))
    account.charge_cpu("a", 5.0)
    detector = HotspotDetector()  # CPU threshold 0.8
    assert detector.observe("s", 0.0, account.snapshot()) == []
    account.charge_cpu("b", 0.95)
    account.release("a")
    assert account.cpu_seconds("a") == 0.0
    assert account.snapshot()["total_cpu_seconds"] == 5.95
    found = detector.observe("s", 1.0, account.snapshot())
    assert [(hotspot.metric, round(hotspot.value, 6)) for hotspot in found] == [("cpu_busy_fraction", 0.95)]
