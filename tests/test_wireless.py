"""Unit tests for the wireless substrate: radio, cells, clients, mobility and
handover."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.netem import packet as pkt
from repro.netem.simulator import Simulator
from repro.netem.topology import EdgeTopology, TopologyConfig
from repro.wireless import handover
from repro.wireless.cell import Cell
from repro.wireless.client import MobileClient
from repro.wireless.handover import HandoverManager
from repro.wireless.mobility import (
    CommuterMobility,
    LinearMobility,
    RandomWaypointMobility,
    StaticMobility,
    TraceMobility,
)
from repro.wireless.radio import RadioEnvironment, distance_m


# --------------------------------------------------------------------------
# Radio model
# --------------------------------------------------------------------------


def test_distance():
    assert distance_m((0, 0), (3, 4)) == pytest.approx(5.0)


def test_rssi_decreases_with_distance():
    radio = RadioEnvironment()
    near = radio.rssi_dbm(20.0, 5.0)
    far = radio.rssi_dbm(20.0, 100.0)
    assert near > far


def test_rssi_clamps_below_reference_distance():
    radio = RadioEnvironment()
    assert radio.rssi_dbm(20.0, 0.0) == radio.rssi_dbm(20.0, radio.reference_distance_m)


def test_in_range_and_max_range_consistent():
    radio = RadioEnvironment()
    max_range = radio.max_range_m(20.0, sensitivity_dbm=-85.0)
    assert radio.in_range(20.0, (0, 0), (max_range * 0.9, 0))
    assert not radio.in_range(20.0, (0, 0), (max_range * 1.5, 0))


def test_link_rate_steps_monotonic():
    radio = RadioEnvironment()
    rates = [radio.link_rate_bps(rssi) for rssi in (-50, -60, -70, -80, -90, -120)]
    assert rates == sorted(rates, reverse=True)
    assert rates[-1] == 0.0


def test_link_rate_zero_exactly_when_unreachable():
    """Regression: the lowest rate step used to extend below the receiver
    sensitivity, serving 6 Mbit/s to clients ``in_range`` called unreachable."""
    radio = RadioEnvironment()
    max_range = radio.max_range_m(20.0)
    for fraction in (0.5, 0.95, 1.05, 2.0):
        position = (max_range * fraction, 0.0)
        reachable = radio.in_range(20.0, (0, 0), position)
        rate = radio.link_rate_bps(radio.rssi_between(20.0, (0, 0), position))
        assert reachable == (rate > 0.0), (fraction, reachable, rate)


def test_sensitivity_threshold_is_configurable_and_shared():
    strict = RadioEnvironment(sensitivity_dbm=-70.0)
    default = RadioEnvironment()
    # One knob governs both reachability and the rate floor.
    assert strict.link_rate_bps(-72.0) == 0.0
    assert default.link_rate_bps(-72.0) > 0.0
    assert strict.max_range_m(20.0) < default.max_range_m(20.0)


# --------------------------------------------------------------------------
# Mobility models
# --------------------------------------------------------------------------


def make_client(simulator, position=(0.0, 0.0)):
    return MobileClient(simulator, "phone", ip="10.10.0.5", mac="02:00:00:00:01:01", position=position)


def test_static_mobility_never_moves(simulator):
    client = make_client(simulator)
    StaticMobility(simulator, client).start()
    simulator.run(until=5.0)
    assert client.position == (0.0, 0.0)


def test_linear_mobility_moves_and_stops_at_destination(simulator):
    client = make_client(simulator)
    model = LinearMobility(simulator, client, velocity_mps=(10.0, 0.0), destination=(50.0, 0.0))
    model.start()
    simulator.run(until=20.0)
    assert client.position == (50.0, 0.0)
    assert model.arrived
    assert model.distance_travelled_m == pytest.approx(50.0, rel=0.05)


def test_linear_mobility_without_destination_keeps_going(simulator):
    client = make_client(simulator)
    LinearMobility(simulator, client, velocity_mps=(1.0, 1.0)).start()
    simulator.run(until=10.0)
    assert client.position[0] == pytest.approx(10.0, rel=0.05)
    assert client.position[1] == pytest.approx(10.0, rel=0.05)


def test_random_waypoint_stays_inside_area(simulator):
    client = make_client(simulator, position=(50.0, 50.0))
    model = RandomWaypointMobility(simulator, client, area=(0, 0, 100, 100), speed_mps=(5.0, 10.0), seed=1)
    model.start()
    positions = []
    simulator.every(1.0, lambda: positions.append(client.position))
    simulator.run(until=60.0)
    assert all(0 <= x <= 100 and 0 <= y <= 100 for x, y in positions)
    assert model.waypoints_visited > 0


def test_trace_mobility_interpolates(simulator):
    client = make_client(simulator)
    TraceMobility(simulator, client, trace=[(0.0, 0.0, 0.0), (10.0, 100.0, 0.0)]).start()
    simulator.run(until=5.0)
    assert client.position[0] == pytest.approx(50.0, abs=2.0)
    simulator.run(until=20.0)
    assert client.position == (100.0, 0.0)


def test_trace_mobility_requires_waypoints(simulator):
    client = make_client(simulator)
    with pytest.raises(ValueError):
        TraceMobility(simulator, client, trace=[])


def test_commuter_mobility_oscillates(simulator):
    client = make_client(simulator)
    model = CommuterMobility(
        simulator, client, anchor_a=(0.0, 0.0), anchor_b=(20.0, 0.0), speed_mps=10.0, dwell_s=1.0
    )
    model.start()
    simulator.run(until=30.0)
    assert model.trips_completed >= 4


def test_mobility_stop_freezes_position(simulator):
    client = make_client(simulator)
    model = LinearMobility(simulator, client, velocity_mps=(10.0, 0.0))
    model.start()
    simulator.run(until=2.0)
    model.stop()
    frozen = client.position
    simulator.schedule(10.0, lambda: None)
    simulator.run()
    assert client.position == frozen


def test_mobility_invalid_tick(simulator):
    client = make_client(simulator)
    with pytest.raises(ValueError):
        StaticMobility(simulator, client, tick_s=0)


# --------------------------------------------------------------------------
# Cells and clients
# --------------------------------------------------------------------------


def build_cell(simulator, topology, station="station-1", position=(0.0, 0.0), name="cell-a"):
    cell = Cell(
        simulator,
        name=name,
        station_name=station,
        position=position,
        mac=topology.addresses.allocate_mac(),
    )
    topology.connect_cell(cell, station, cell.wired_interface)
    return cell


def test_cell_association_creates_radio_link_and_fires_listeners(simulator, topology):
    cell = build_cell(simulator, topology)
    client = make_client(simulator)
    events = []
    cell.on_association(lambda c, ce: events.append(("assoc", c.name)))
    cell.on_disassociation(lambda c, ce: events.append(("disassoc", c.name)))
    cell.associate(client, topology.addresses.allocate_mac)
    assert client.is_connected
    assert client.current_cell_name == "cell-a"
    assert cell.is_associated("phone")
    cell.disassociate(client)
    assert not client.is_connected
    assert events == [("assoc", "phone"), ("disassoc", "phone")]


def test_cell_double_association_is_idempotent(simulator, topology):
    cell = build_cell(simulator, topology)
    client = make_client(simulator)
    cell.associate(client, topology.addresses.allocate_mac)
    cell.associate(client, topology.addresses.allocate_mac)
    assert cell.associated_clients == ["phone"]


def test_client_cannot_send_while_disconnected(simulator):
    client = make_client(simulator)
    sent = client.send_packet(pkt.make_udp_packet(client.ip, "10.30.0.2", 1, 2))
    assert not sent
    assert client.packets_sent_while_disconnected == 1


def test_client_traffic_reaches_server_through_cell(simulator, topology):
    cell = build_cell(simulator, topology)
    client = make_client(simulator)
    cell.associate(client, topology.addresses.allocate_mac)
    station = topology.station("station-1")
    station.register_client(client.ip, cell.name)
    topology.register_client(client.ip, client.mac, "station-1")
    client.gateway_mac = topology.gateway_mac_for["station-1"]

    received = []
    client.add_receive_listener(received.append)
    client.send_packet(pkt.make_udp_packet(client.ip, topology.any_server_ip(), 4000, 9000, payload_bytes=64))
    simulator.run()
    assert topology.server("server-1").udp_packets_echoed == 1
    assert len(received) == 1
    assert client.packets_received == 1


def test_client_ignores_traffic_for_other_destinations(simulator, topology):
    cell = build_cell(simulator, topology)
    client = make_client(simulator)
    cell.associate(client, topology.addresses.allocate_mac)
    foreign = pkt.make_udp_packet("10.30.0.2", "10.10.99.99", 1, 2)
    client.radio_interface.deliver(foreign)
    assert client.packets_received == 0


def test_cell_drops_downstream_for_unknown_client(simulator, topology):
    cell = build_cell(simulator, topology)
    packet = pkt.make_udp_packet("10.30.0.2", "10.10.0.99", 1, 2)
    cell.wired_interface.deliver(packet)
    assert cell.frames_dropped == 1


def test_cell_summary_counts(simulator, topology):
    cell = build_cell(simulator, topology)
    client = make_client(simulator)
    cell.associate(client, topology.addresses.allocate_mac)
    assert cell.summary()["associated_clients"] == 1


# --------------------------------------------------------------------------
# Handover
# --------------------------------------------------------------------------


def two_cell_setup(simulator):
    topology = EdgeTopology(simulator, TopologyConfig(station_count=2))
    cell_a = build_cell(simulator, topology, station="station-1", position=(0.0, 0.0), name="cell-a")
    cell_b = build_cell(simulator, topology, station="station-2", position=(80.0, 0.0), name="cell-b")
    manager = HandoverManager(simulator, topology, scan_interval_s=0.5, handover_delay_s=0.05)
    manager.add_cell(cell_a)
    manager.add_cell(cell_b)
    return topology, cell_a, cell_b, manager


def test_initial_association_picks_strongest_cell(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    client = make_client(simulator, position=(5.0, 0.0))
    manager.add_client(client)
    manager.start()
    simulator.run(until=1.0)
    assert client.current_cell_name == "cell-a"
    assert topology.gateway.client_locations[client.ip] == "station-1"
    assert topology.station("station-1").associated_client_rules() == [f"assoc:{client.ip}"]


def test_no_association_when_out_of_range(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    client = make_client(simulator, position=(5000.0, 5000.0))
    manager.add_client(client)
    manager.start()
    simulator.run(until=2.0)
    assert not client.is_connected


def test_handover_when_client_moves(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    client = make_client(simulator, position=(0.0, 0.0))
    manager.add_client(client)
    manager.start()
    LinearMobility(simulator, client, velocity_mps=(8.0, 0.0), destination=(80.0, 0.0)).start()
    simulator.run(until=30.0)
    assert client.current_cell_name == "cell-b"
    assert manager.handover_count("phone") == 1
    event = manager.events[0]
    assert event.old_cell == "cell-a"
    assert event.new_cell == "cell-b"
    assert event.interruption_s == pytest.approx(0.05, abs=0.02)
    # The anchor and the association rules followed the client.
    assert topology.gateway.client_locations[client.ip] == "station-2"
    assert topology.station("station-1").associated_client_rules() == []
    assert topology.station("station-2").associated_client_rules() == [f"assoc:{client.ip}"]


def test_hysteresis_prevents_ping_pong(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    manager.hysteresis_db = 10.0
    # Exactly halfway: both cells have equal RSSI, so no handover should occur.
    client = make_client(simulator, position=(40.0, 0.0))
    manager.add_client(client)
    manager.start()
    simulator.run(until=10.0)
    assert manager.handover_count() == 0


def test_handover_listeners_fire_in_order(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    client = make_client(simulator, position=(0.0, 0.0))
    manager.add_client(client)
    events = []
    manager.on_handover_started(lambda event: events.append("started"))
    manager.on_handover_completed(lambda event: events.append("completed"))
    manager.start()
    LinearMobility(simulator, client, velocity_mps=(20.0, 0.0), destination=(80.0, 0.0)).start()
    simulator.run(until=20.0)
    assert events == ["started", "completed"]


def test_handover_summary(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    client = make_client(simulator, position=(0.0, 0.0))
    manager.add_client(client)
    manager.start()
    LinearMobility(simulator, client, velocity_mps=(20.0, 0.0), destination=(80.0, 0.0)).start()
    simulator.run(until=20.0)
    summary = manager.summary()
    assert summary["handovers"] == summary["handovers_completed"] == 1
    assert summary["mean_interruption_s"] > 0
    manager.stop()


def test_client_stats_and_history(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    client = make_client(simulator, position=(0.0, 0.0))
    manager.add_client(client)
    manager.start()
    LinearMobility(simulator, client, velocity_mps=(20.0, 0.0), destination=(80.0, 0.0)).start()
    simulator.run(until=20.0)
    stats = client.stats()
    assert stats["handovers"] == 1
    assert [name for _, name in client.association_history] == ["cell-a", "cell-b"]


def test_best_cell_tie_breaks_by_name_not_insertion_order():
    """Regression: two equidistant cells used to resolve by registration
    order, so cell-build order leaked into association (and digests)."""
    histories = []
    for order in (("cell-a", "cell-b"), ("cell-b", "cell-a")):
        simulator = Simulator()
        topology = EdgeTopology(simulator, TopologyConfig(station_count=2))
        cells = {
            "cell-a": build_cell(simulator, topology, station="station-1", position=(0.0, 0.0), name="cell-a"),
            "cell-b": build_cell(simulator, topology, station="station-2", position=(80.0, 0.0), name="cell-b"),
        }
        manager = HandoverManager(simulator, topology, scan_interval_s=0.5, handover_delay_s=0.05)
        for name in order:
            manager.add_cell(cells[name])
        client = make_client(simulator, position=(40.0, 0.0))  # exact RSSI tie
        manager.add_client(client)
        assert cells["cell-a"].rssi_to(client.position) == cells["cell-b"].rssi_to(client.position)
        assert manager.best_cell_for(client).name == "cell-a"
        manager.start()
        simulator.run(until=2.0)
        histories.append([name for _, name in client.association_history])
    assert histories[0] == histories[1] == ["cell-a"]


def test_station_link_rates_reflects_radio_quality(simulator):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    client = make_client(simulator, position=(5.0, 0.0))
    manager.add_client(client)
    rates = manager.station_link_rates(client.ip)
    assert set(rates) == {"station-1", "station-2"}
    assert rates["station-1"] > rates["station-2"] > 0.0
    # Unknown clients yield nothing; unreachable clients yield rate 0.
    assert manager.station_link_rates("10.99.99.99") == {}
    client.position = (5000.0, 5000.0)
    assert set(manager.station_link_rates(client.ip).values()) == {0.0}


# --------------------------------------------------------------------------
# Settled-client scans and the straight-line RSSI, against their oracles
# --------------------------------------------------------------------------

SCAN_POSITIONS = [(0.0, 0.0), (10.0, 0.0), (20.0, 5.0), (30.0, 0.0), (50.0, 0.0), (70.0, 0.0)]


def _scan_world(simulator, positions=SCAN_POSITIONS):
    topology, cell_a, cell_b, manager = two_cell_setup(simulator)
    for index, position in enumerate(positions):
        manager.add_client(
            MobileClient(
                simulator, f"phone-{index}", ip=f"10.10.0.{index + 1}",
                mac=f"02:00:00:00:01:{index + 1:02x}", position=position,
            )
        )
    return topology, cell_a, cell_b, manager


@pytest.fixture
def survey_calls(monkeypatch):
    """Positions handed to ``rssi_survey``: one entry per client a scan evaluates."""
    calls = []
    original = handover.rssi_survey

    def counted(rows, position):
        calls.append(position)
        return original(rows, position)

    monkeypatch.setattr(handover, "rssi_survey", counted)
    return calls


def _scan(simulator, manager):
    manager.scan()
    simulator.run(until=simulator.now + 0.1)  # lets a started handover complete


def test_second_scan_over_static_clients_evaluates_nobody(simulator, survey_calls):
    _, _, _, manager = _scan_world(simulator)
    _scan(simulator, manager)  # associates everyone
    _scan(simulator, manager)  # first look at them associated: all settle
    assert len(survey_calls) == 2 * len(SCAN_POSITIONS)
    del survey_calls[:]
    _scan(simulator, manager)
    assert survey_calls == []


def test_moving_one_client_re_evaluates_only_that_client(simulator, survey_calls):
    _, _, _, manager = _scan_world(simulator)
    _scan(simulator, manager)
    _scan(simulator, manager)
    del survey_calls[:]
    manager.clients["phone-2"].position = (21.0, 5.0)
    _scan(simulator, manager)
    assert survey_calls == [(21.0, 5.0)]
    _scan(simulator, manager)  # and it settles again where it now stands
    assert survey_calls == [(21.0, 5.0)]


def _disable_cell_a_by_attribute(simulator, topology, cell_a, cell_b, manager):
    cell_a.enabled = False


def _raise_cell_b_power(simulator, topology, cell_a, cell_b, manager):
    cell_b.tx_power_dbm = 40.0


def _drop_hysteresis(simulator, topology, cell_a, cell_b, manager):
    manager.hysteresis_db = 1.0


def _add_cell_late(simulator, topology, cell_a, cell_b, manager):
    manager.add_cell(build_cell(simulator, topology, station="station-2", position=(35.0, 0.0), name="cell-c"))


def _play(change, remember):
    """Associate, settle, apply ``change``, scan twice; ``remember=False``
    defeats the skip with a fresh manager (no scan memory) per scan."""
    simulator = Simulator()
    topology, cell_a, cell_b, manager = _scan_world(simulator)
    events, evaluated = [], []

    def scan():
        nonlocal manager
        if not remember:
            fresh = HandoverManager(
                simulator, topology, hysteresis_db=manager.hysteresis_db, handover_delay_s=0.05
            )
            for cell in manager.cells.values():
                fresh.add_cell(cell)
            for client in manager.clients.values():
                fresh.add_client(client)
            manager = fresh
        seen = len(manager.events)
        _scan(simulator, manager)
        events.extend(manager.events[seen:])

    scan()
    # Where cell-b beats phone-3's serving cell-a by less than the 4 dB
    # hysteresis: only a changed hysteresis moves it.
    manager.clients["phone-3"].position = (45.0, 0.0)
    scan()
    change(simulator, topology, cell_a, cell_b, manager)
    scan()
    scan()
    return [(e.time, e.client_name, e.old_cell, e.new_cell, e.completed_at) for e in events]


@pytest.mark.parametrize(
    "change", [_disable_cell_a_by_attribute, _raise_cell_b_power, _drop_hysteresis, _add_cell_late]
)
def test_radio_signature_change_re_evaluates_everyone(change, survey_calls):
    expected = _play(change, remember=False)
    assert expected, "the change must cause at least one handover for the comparison to bite"
    del survey_calls[:]
    assert _play(change, remember=True) == expected
    # associate: 6, settle: 6 (phone-3 moved anyway), after the change: all 6
    # again, last scan: only the clients the change handed over (new serving cell).
    assert len(survey_calls) == 3 * len(SCAN_POSITIONS) + len(expected)


def test_client_of_a_disabled_cell_hands_over_on_the_next_scan(simulator, survey_calls):
    _, cell_a, _, manager = _scan_world(simulator)
    _scan(simulator, manager)
    _scan(simulator, manager)
    _scan(simulator, manager)
    assert manager.events == []
    cell_a.enabled = False
    _scan(simulator, manager)
    moved = {event.client_name for event in manager.events}
    assert moved == {f"phone-{index}" for index in range(4)}  # everyone cell-a served
    assert all(client.current_cell_name == "cell-b" for client in manager.clients.values())


_coordinates = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)
_positions = st.tuples(_coordinates, _coordinates)


@given(
    cell_position=_positions,
    offset=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), _positions),
    tx_power_dbm=st.floats(min_value=-10.0, max_value=40.0),
    exponent=st.floats(min_value=2.0, max_value=4.5),
    reference_distance_m=st.sampled_from([1.0, 2.5]),
    enabled=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_straight_line_rssi_equals_the_oracle_bit_for_bit(
    cell_position, offset, tx_power_dbm, exponent, reference_distance_m, enabled
):
    simulator = Simulator()
    environment = RadioEnvironment(path_loss_exponent=exponent, reference_distance_m=reference_distance_m)
    cell = Cell(
        simulator, "cell-a", "station-1", cell_position, mac="02:00:00:00:00:01",
        tx_power_dbm=tx_power_dbm, radio_environment=environment,
    )
    cell.enabled = enabled
    # Offsets inside the reference distance exercise the clamp.
    position = (cell_position[0] + offset[0], cell_position[1] + offset[1])
    (rssi,) = handover.rssi_survey(handover.radio_rows([cell]), position)
    assert rssi == cell.rssi_to(position)
    if enabled:
        assert rssi == environment.rssi_between(tx_power_dbm, cell_position, position)
    else:
        assert rssi == float("-inf")
