"""Tests for the GNF Agent and Manager: chain deployment, traffic steering,
heartbeats, client events, notifications and the attach/detach API."""

from __future__ import annotations

import pytest

from repro.core.chain import ServiceChain
from repro.core.manager import AssignmentState
from repro.core.policy import TrafficSelector
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import CBRTrafficGenerator, DNSWorkloadGenerator, HTTPWorkloadGenerator


def deploy_and_settle(testbed, client, chain, selector=None, settle_s=6.0):
    assignment = testbed.manager.attach_chain(client.ip, chain, selector=selector)
    testbed.run(settle_s)
    return assignment


# --------------------------------------------------------------------------
# Agent: deployment mechanics
# --------------------------------------------------------------------------


def test_agent_deploys_chain_containers_and_rules(connected_testbed):
    testbed, client = connected_testbed
    assignment = deploy_and_settle(testbed, client, ServiceChain.of("firewall", "http-filter"))
    assert assignment.state is AssignmentState.ACTIVE
    agent = testbed.agents["station-1"]
    deployment = agent.deployment_for_client(client.ip)
    assert deployment is not None
    assert len(deployment.deployed_nfs) == 2
    assert all(d.container.is_running for d in deployment.deployed_nfs)
    # Two veth pairs per NF (ingress + egress ports on the switch).
    for deployed in deployment.deployed_nfs:
        assert deployed.ingress_port in agent.station.switch.ports
        assert deployed.egress_port in agent.station.switch.ports
        assert agent.station.switch.ports[deployed.ingress_port].no_flood
    # Chain steering rules were installed under the deployment cookie.
    rules = agent.station.switch.flow_table.rules(cookie=deployment.cookie)
    assert len(rules) >= 2 * len(deployment.deployed_nfs)


def test_agent_attach_latency_is_seconds_scale(connected_testbed):
    testbed, client = connected_testbed
    assignment = deploy_and_settle(testbed, client, ServiceChain.of("firewall"))
    assert assignment.attach_latency_s is not None
    assert 0.1 < assignment.attach_latency_s < 10.0


def test_agent_warm_deploy_faster_than_cold(connected_testbed):
    testbed, client = connected_testbed
    cold = deploy_and_settle(testbed, client, ServiceChain.of("firewall"))
    testbed.manager.detach(cold.assignment_id)
    testbed.run(2.0)
    warm = deploy_and_settle(testbed, client, ServiceChain.of("firewall"))
    assert warm.attach_latency_s < cold.attach_latency_s


def test_agent_deployment_failure_on_tiny_station():
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    client = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    # The cache NF alone fits, but a long chain of caches exceeds 128 MB RAM.
    chain = ServiceChain.of(*(["cache"] * 6))
    assignment = testbed.manager.attach_chain(client.ip, chain)
    testbed.run(10.0)
    assert assignment.state is AssignmentState.FAILED
    assert assignment.failure_reason
    agent = testbed.agents["station-1"]
    # Rollback removed partial containers and rules.
    assert agent.deployment_for_client(client.ip) is None
    assert agent.station.switch.flow_table.rules(cookie=f"chain:{assignment.assignment_id}") == []


def test_agent_remove_chain_releases_resources(connected_testbed):
    testbed, client = connected_testbed
    assignment = deploy_and_settle(testbed, client, ServiceChain.of("firewall", "flow-monitor"))
    agent = testbed.agents["station-1"]
    free_before_removal = agent.runtime.resources.free_memory_mb
    testbed.manager.detach(assignment.assignment_id)
    testbed.run(3.0)
    assert agent.deployment_for_client(client.ip) is None
    assert agent.runtime.resources.free_memory_mb > free_before_removal
    assert assignment.state is AssignmentState.REMOVED


def test_agent_set_chain_active_toggles_rules(connected_testbed):
    testbed, client = connected_testbed
    assignment = deploy_and_settle(testbed, client, ServiceChain.of("firewall"))
    agent = testbed.agents["station-1"]
    cookie = f"chain:{assignment.assignment_id}"
    assert agent.station.switch.flow_table.rules(cookie=cookie)
    assert agent.set_chain_active(assignment.assignment_id, False)
    assert agent.station.switch.flow_table.rules(cookie=cookie) == []
    assert agent.set_chain_active(assignment.assignment_id, True)
    assert agent.station.switch.flow_table.rules(cookie=cookie)
    assert not agent.set_chain_active("asg-9999", True)


def test_agent_heartbeats_reach_manager(connected_testbed):
    testbed, client = connected_testbed
    testbed.run(10.0)
    manager = testbed.manager
    assert manager.heartbeats_processed > 0
    assert set(manager.last_heartbeat) == {"station-1", "station-2"}
    heartbeat = manager.last_heartbeat["station-1"]
    assert client.ip in heartbeat.connected_clients
    assert manager.health.online_stations(testbed.simulator.now) == ("station-1", "station-2")


def test_agent_client_events_update_manager_locations(connected_testbed):
    testbed, client = connected_testbed
    assert testbed.manager.client_locations[client.ip] == "station-1"
    assert testbed.manager.client_names[client.ip] == "phone"
    assert testbed.manager.client_events_processed >= 1


# --------------------------------------------------------------------------
# Dataplane through deployed chains
# --------------------------------------------------------------------------


def test_traffic_traverses_chain_in_both_directions(connected_testbed):
    testbed, client = connected_testbed
    deploy_and_settle(testbed, client, ServiceChain.of("firewall", "flow-monitor"))
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=50)
    generator.start()
    testbed.run(5.0)
    generator.stop()
    assert generator.responses_received > 100
    deployment = testbed.agents["station-1"].deployment_for_client(client.ip)
    firewall = deployment.nf_by_type("firewall").nf
    monitor = deployment.nf_by_type("flow-monitor").nf
    # Both directions crossed both NFs.
    assert firewall.packets_in >= 2 * generator.responses_received - 10
    assert monitor.upstream_bytes > 0
    assert monitor.downstream_bytes > 0


def test_http_filter_blocks_end_to_end(connected_testbed):
    testbed, client = connected_testbed
    chain = ServiceChain.single("http-filter", config={"blocked_hosts": ["blocked.example.com"]})
    deploy_and_settle(testbed, client, chain)
    workload = HTTPWorkloadGenerator(
        testbed.simulator,
        client,
        server_ip=testbed.server_ip,
        sites=["blocked.example.com", "ok.example.org"],
        mean_think_time_s=0.2,
        seed=3,
    )
    workload.start()
    testbed.run(20.0)
    workload.stop()
    assert workload.pages_blocked > 0
    assert workload.pages_fetched > 0
    # Blocked answers are produced at the edge, so they come back faster than
    # pages served by the origin across the backhaul.
    assert workload.responses_received == workload.pages_blocked + workload.pages_fetched


def test_selector_restricts_nf_to_traffic_subset(connected_testbed):
    testbed, client = connected_testbed
    chain = ServiceChain.of("flow-monitor")
    deploy_and_settle(testbed, client, chain, selector=TrafficSelector.web_traffic())
    http = HTTPWorkloadGenerator(testbed.simulator, client, server_ip=testbed.server_ip, mean_think_time_s=0.3)
    cbr = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=50, dst_port=9000)
    http.start()
    cbr.start()
    testbed.run(10.0)
    deployment = testbed.agents["station-1"].deployment_for_client(client.ip)
    monitor = deployment.nf_by_type("flow-monitor").nf
    # Only the web traffic subset traversed the NF; the UDP probe stream bypassed it.
    assert monitor.packets_in > 0
    assert monitor.packets_in < cbr.packets_sent
    assert cbr.responses_received > 0


def test_dns_loadbalancer_rewrites_answers_end_to_end(connected_testbed):
    testbed, client = connected_testbed
    chain = ServiceChain.single(
        "dns-loadbalancer",
        config={"pools": {"cdn.example.com": ["198.18.0.1", "198.18.0.2"]}},
    )
    deploy_and_settle(testbed, client, chain, selector=TrafficSelector.dns_traffic())
    dns = DNSWorkloadGenerator(
        testbed.simulator, client, resolver_ip=testbed.server_ip,
        names=["cdn.example.com"], query_interval_s=0.5,
    )
    dns.start()
    testbed.run(10.0)
    counts = dns.resolution_counts()["cdn.example.com"]
    assert set(counts) == {"198.18.0.1", "198.18.0.2"}
    assert abs(counts["198.18.0.1"] - counts["198.18.0.2"]) <= 1


def test_nf_notifications_relayed_to_manager(connected_testbed):
    testbed, client = connected_testbed
    chain = ServiceChain.single("ids", config={"port_scan_threshold": 5, "malware_signatures": ["EICAR"]})
    deploy_and_settle(testbed, client, chain)
    generator = CBRTrafficGenerator(testbed.simulator, client, server_ip=testbed.server_ip, rate_pps=20)
    generator.start()
    # Inject a malware-tagged packet directly through the client.
    from repro.netem import packet as pkt

    bad = pkt.make_tcp_packet(client.ip, testbed.server_ip, 40000, 80)
    bad.metadata["payload_signature"] = "EICAR"
    testbed.simulator.schedule(1.0, client.send_packet, bad)
    testbed.run(5.0)
    notifications = testbed.manager.notifications.by_severity("critical")
    assert len(notifications) >= 1
    assert notifications[0].station_name == "station-1"
    assert notifications[0].delivery_latency_s > 0


# --------------------------------------------------------------------------
# Manager API behaviour
# --------------------------------------------------------------------------


def test_manager_rejects_unknown_client(testbed):
    from repro.core.errors import UnknownClientError

    with pytest.raises(UnknownClientError):
        testbed.manager.attach_nf("10.99.99.99", "firewall")


def test_manager_attach_with_explicit_station(testbed):
    assignment = testbed.manager.attach_nf("10.10.0.77", "firewall", station_name="station-2")
    testbed.run(6.0)
    assert assignment.station_name == "station-2"
    assert assignment.state is AssignmentState.ACTIVE


def test_manager_unknown_agent_and_assignment_errors(testbed):
    from repro.core.errors import UnknownAgentError, UnknownAssignmentError

    with pytest.raises(UnknownAgentError):
        testbed.manager.agent("station-99")
    with pytest.raises(UnknownAssignmentError):
        testbed.manager.detach("asg-9999")


def test_manager_overview_and_station_views(connected_testbed):
    testbed, client = connected_testbed
    deploy_and_settle(testbed, client, ServiceChain.of("firewall"))
    overview = testbed.manager.overview()
    assert overview["active_assignments"] == 1
    assert overview["enabled_nfs"] == 1
    assert overview["connected_clients"] == 1
    assert client.ip in testbed.manager.connected_client_ips()
    views = testbed.manager.station_views("station-1")
    assert {view.name for view in views} == {"station-1", "station-2"}
    local = next(view for view in views if view.name == "station-1")
    assert local.client_latency_s == 0.0
    assert testbed.manager.control_plane_stats()["station-1"]["messages_delivered"] > 0


def test_manager_assignments_for_client(connected_testbed):
    testbed, client = connected_testbed
    deploy_and_settle(testbed, client, ServiceChain.of("firewall"))
    deploy_and_settle(testbed, client, ServiceChain.of("flow-monitor"))
    assert len(testbed.manager.assignments_for_client(client.ip)) == 2


def test_scheduler_disable_racing_inflight_deployment(connected_testbed):
    """A disable that lands while the chain is still booting must stick.

    The schedule's window is already closed when the deployment completes, so
    the scheduler's disable arrives while containers are mid-boot.  The agent
    must record the desired state and never install steering rules for the
    half-built (or freshly completed) chain.
    """
    from repro.core.scheduler import TimeSchedule

    testbed, client = connected_testbed
    now = testbed.simulator.now
    # Window closes at +0.2 s -- long before the multi-second container boot
    # finishes, so the scheduler's disable races the in-flight deployment.
    assignment = testbed.manager.attach_nf(
        client.ip, "firewall", schedule=TimeSchedule.between(now + 0.1, now + 0.2)
    )
    agent = testbed.agents["station-1"]
    cookie = f"chain:{assignment.assignment_id}"
    testbed.run(12.0)
    assert assignment.state.value == "active"  # containers did deploy...
    deployment = agent.deployments[assignment.assignment_id]
    assert deployment.desired_active is False
    assert deployment.rules_installed is False  # ...but steering stayed off
    assert agent.station.switch.flow_table.rules(cookie=cookie) == []


def test_scheduler_enable_racing_inflight_deployment(connected_testbed):
    """The mirror race: enable mid-boot must steer once (and only once).

    The window opens while containers are booting; when the deployment
    completes it must come up steered, without double-installed rules.
    """
    from repro.core.scheduler import TimeSchedule

    testbed, client = connected_testbed
    now = testbed.simulator.now
    assignment = testbed.manager.attach_nf(
        client.ip, "firewall", schedule=TimeSchedule.between(now + 1.0, now + 60.0)
    )
    agent = testbed.agents["station-1"]
    cookie = f"chain:{assignment.assignment_id}"
    # Let the deploy request reach the agent but not finish booting, then
    # poke both transitions through the agent API the scheduler uses;
    # neither may install rules on the incomplete chain.
    testbed.run(0.2)
    assert assignment.state.value == "deploying"
    assert agent.set_chain_active(assignment.assignment_id, False)
    assert agent.set_chain_active(assignment.assignment_id, True)
    assert agent.station.switch.flow_table.rules(cookie=cookie) == []
    testbed.run(12.0)
    assert assignment.state.value == "active"
    rules = agent.station.switch.flow_table.rules(cookie=cookie)
    assert rules  # steered after completion
    deployment = agent.deployments[assignment.assignment_id]
    assert deployment.rules_installed is True
    # Toggling now behaves as before the fix.
    agent.set_chain_active(assignment.assignment_id, False)
    assert agent.station.switch.flow_table.rules(cookie=cookie) == []


def test_scheduled_assignment_enables_and_disables(connected_testbed):
    from repro.core.scheduler import TimeSchedule

    testbed, client = connected_testbed
    now = testbed.simulator.now
    assignment = testbed.manager.attach_nf(
        client.ip, "firewall", schedule=TimeSchedule.between(now + 20.0, now + 30.0)
    )
    testbed.run(8.0)  # deployed, then the scheduler disables it (outside the window)
    agent = testbed.agents["station-1"]
    cookie = f"chain:{assignment.assignment_id}"
    assert agent.station.switch.flow_table.rules(cookie=cookie) == []
    testbed.run(18.0)  # inside the window now
    assert agent.station.switch.flow_table.rules(cookie=cookie)
    testbed.run(10.0)  # window closed again
    assert agent.station.switch.flow_table.rules(cookie=cookie) == []
