"""FlowTracker TTL expiry wiring (the unbounded-growth satellite).

``FlowTracker.expire_idle`` existed but nothing in the running system ever
called it, so long soak runs leaked one entry per five-tuple forever.  Two
sweeps now run it on real clocks:

* the FlowMonitor dataplane sweeps opportunistically every half TTL, and
* every Agent's ResourceCollector tick sweeps all trackers on its station
  and publishes the aggregate as ``flows.*`` telemetry (including the
  ``flows.expired_flows`` counter).
"""

from __future__ import annotations

from repro.core.chain import ServiceChain
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem import packet as pkt
from repro.nfs.base import Direction, ProcessingContext
from repro.nfs.flow_monitor import FlowMonitor

CLIENT = "10.10.0.5"
SERVER = "10.30.0.2"


def _packet(src_port: int):
    return pkt.make_udp_packet(CLIENT, SERVER, src_port, 9000, payload_bytes=100)


def test_flow_monitor_dataplane_sweep_expires_idle_flows():
    monitor = FlowMonitor(idle_timeout_s=10.0)
    context = ProcessingContext(now=0.0, direction=Direction.UPSTREAM, client_ip=CLIENT)
    for port in range(40_000, 40_005):
        monitor.process(_packet(port), context)
    assert len(monitor.tracker) == 5

    # Far past the TTL a single new packet triggers the opportunistic
    # sweep: the five idle flows go, only the fresh one stays.
    context.now = 25.0
    monitor.process(_packet(41_000), context)
    assert len(monitor.tracker) == 1
    assert monitor.tracker.expired_flows == 5
    assert monitor.traffic_summary()["expired_flows"] == 5.0


def test_agent_collector_sweeps_trackers_and_reports_flows_telemetry():
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    phone = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    testbed.manager.attach_chain(
        phone.ip, ServiceChain.of("flow-monitor"), station_name="station-1"
    )
    testbed.run(2.0)

    agent = testbed.agents["station-1"]
    assert "flows" in agent.collector.sources()
    monitor = next(
        container.network_function
        for container in agent.runtime.running_containers()
        if isinstance(container.network_function, FlowMonitor)
    )
    # Plant idle flows directly in the tracker: stale since t~3.
    now = testbed.simulator.now
    for port in range(42_000, 42_004):
        monitor.tracker.observe(_packet(port), now)
    assert len(monitor.tracker) == 4

    # One TTL later the collector tick (1 s interval) must have swept them,
    # with no dataplane traffic needed.
    testbed.run(monitor.tracker.idle_timeout_s + 2.0)
    assert len(monitor.tracker) == 0
    assert monitor.tracker.expired_flows == 4

    latest = agent.collector.latest()
    assert latest["flows.trackers"] == 1.0
    assert latest["flows.expired_flows"] == 4.0
    assert latest["flows.active_flows"] == 0.0
    testbed.stop()
