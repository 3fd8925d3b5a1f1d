"""Integration tests reproducing the paper's demo scenario end-to-end
(Fig. 2) and exercising the whole stack together."""

from __future__ import annotations

import pytest

from repro.core.chain import ServiceChain
from repro.core.manager import AssignmentState
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import (
    CBRTrafficGenerator,
    DNSWorkloadGenerator,
    HTTPWorkloadGenerator,
    VideoWorkloadGenerator,
)
from repro.wireless.mobility import CommuterMobility, LinearMobility


def test_fig2_demo_scenario_end_to_end():
    """The paper's demo: a smartphone with firewall + HTTP filter + DNS LB
    roams from one wireless network to the other and its NFs follow."""
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy="cold"))
    phone = testbed.add_client("smartphone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    assert phone.current_station_name == "station-1"

    chain = ServiceChain(
        [
            *ServiceChain.single("firewall").specs,
            *ServiceChain.single("http-filter", config={"blocked_hosts": ["blocked.example.com"]}).specs,
            *ServiceChain.single(
                "dns-loadbalancer", config={"pools": {"cdn.example.com": ["198.18.0.1", "198.18.0.2"]}}
            ).specs,
        ],
        name="demo-chain",
    )
    assignment = testbed.ui.attach_chain(phone.ip, chain)
    testbed.run(8.0)
    assert assignment.state is AssignmentState.ACTIVE

    web = HTTPWorkloadGenerator(
        testbed.simulator, phone, server_ip=testbed.server_ip,
        sites=["blocked.example.com", "news.example.org"], mean_think_time_s=0.5,
    )
    dns = DNSWorkloadGenerator(
        testbed.simulator, phone, resolver_ip=testbed.server_ip,
        names=["cdn.example.com"], query_interval_s=1.0,
    )
    web.start()
    dns.start()
    testbed.run(10.0)

    # The demo UI's real-time statistics are available for station-1.
    station_view = testbed.ui.station_view("station-1")
    assert station_view["resources"]["containers_running"] == 3
    assert web.pages_blocked > 0
    assert dns.resolution_counts()["cdn.example.com"]

    # Roam to the second network.
    LinearMobility(testbed.simulator, phone, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)).start()
    testbed.run(40.0)

    assert phone.current_station_name == "station-2"
    assert assignment.station_name == "station-2"
    assert assignment.migrations == 1
    record = testbed.roaming.records[0]
    assert record.success and record.nf_types == ["firewall", "http-filter", "dns-loadbalancer"]

    # Policy still enforced after the move: blocked pages stay blocked.
    blocked_before = web.pages_blocked
    testbed.run(15.0)
    assert web.pages_blocked > blocked_before

    # The UI reflects the new placement and the old station is drained.
    testbed.run(3.0)
    assert testbed.ui.station_view("station-2")["resources"]["containers_running"] == 3
    assert testbed.ui.station_view("station-1")["resources"]["containers_running"] == 0
    clients_row = testbed.ui.clients()[0]
    assert clients_row["station"] == "station-2"
    assert clients_row["migrations"] == 1

    web.stop()
    dns.stop()


def test_multiple_clients_with_independent_chains():
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    alice = testbed.add_client("alice", position=(0.0, 0.0))
    bob = testbed.add_client("bob", position=(80.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    assert alice.current_station_name == "station-1"
    assert bob.current_station_name == "station-2"

    a_assignment = testbed.manager.attach_nf(alice.ip, "firewall")
    b_assignment = testbed.manager.attach_nf(bob.ip, "rate-limiter", config={"rate_bps": 2e6})
    testbed.run(8.0)
    assert a_assignment.station_name == "station-1"
    assert b_assignment.station_name == "station-2"

    alice_gen = CBRTrafficGenerator(testbed.simulator, alice, server_ip=testbed.server_ip, rate_pps=20)
    bob_gen = CBRTrafficGenerator(testbed.simulator, bob, server_ip=testbed.server_ip, rate_pps=20)
    alice_gen.start()
    bob_gen.start()
    testbed.run(10.0)

    alice_nf = testbed.agents["station-1"].deployment_for_client(alice.ip).deployed_nfs[0]
    bob_nf = testbed.agents["station-2"].deployment_for_client(bob.ip).deployed_nfs[0]
    assert alice_nf.packets_processed > 0
    assert bob_nf.packets_processed > 0
    # Isolation: alice's chain never saw bob's traffic.
    assert alice_nf.nf.packets_in <= 2 * alice_gen.packets_sent + 5


def test_repeated_roaming_with_commuter_mobility():
    testbed = GNFTestbed(TestbedConfig(station_count=2, migration_strategy="precopy"))
    phone = testbed.add_client("commuter", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    testbed.manager.attach_nf(phone.ip, "firewall")
    testbed.run(6.0)
    CommuterMobility(
        testbed.simulator, phone, anchor_a=(0.0, 0.0), anchor_b=(80.0, 0.0), speed_mps=8.0, dwell_s=15.0
    ).start()
    video = VideoWorkloadGenerator(testbed.simulator, phone, server_ip=testbed.server_ip, segment_interval_s=2.0)
    video.start()
    testbed.run(120.0)
    video.stop()

    handovers = testbed.handover.handover_count("commuter")
    assert handovers >= 2
    migrations = testbed.roaming.completed_migrations()
    assert len(migrations) >= 2
    assert all(record.success for record in migrations)
    # Service keeps working across repeated moves.
    assert video.responses_received > 0.7 * video.packets_sent
    assert testbed.manager.assignments_for_client(phone.ip)[0].migrations == len(migrations)


def test_hotspot_detection_on_overloaded_station():
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    phone = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    # Pack memory-hungry NFs onto the router-class station until it is
    # nearly full; the Manager should flag it as a hotspot from heartbeats.
    for index in range(2):
        testbed.manager.attach_nf(phone.ip, "cache", config={"capacity_mb": 8.0})
    testbed.manager.attach_nf(phone.ip, "ids")
    testbed.run(10.0)
    hotspots = testbed.manager.hotspots.hotspot_stations()
    assert "station-1" in hotspots
    assert "station-1" in testbed.ui.overview()["hotspot_stations"]


def test_agent_offline_detection_when_heartbeats_stop():
    testbed = GNFTestbed(TestbedConfig(station_count=2))
    testbed.run(5.0)
    assert testbed.manager.health.online_stations(testbed.simulator.now) == ("station-1", "station-2")
    testbed.agents["station-2"].stop()
    testbed.run(30.0)
    now = testbed.simulator.now
    assert testbed.manager.health.offline_stations(now) == ("station-2",)
    assert testbed.manager.health.online_stations(now) == ("station-1",)
