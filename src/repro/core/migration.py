"""The migration engine: link-aware NF state movement between stations.

The paper's headline feature is that container NFs *follow* roaming users
("GNF seamlessly moves the NFs when the user roams between cells").  The
original reproduction modelled the cost of that move analytically: a state
transfer took ``size / bandwidth`` seconds, full stop.  That made every
strategy comparison blind to the thing that actually dominates a real edge
deployment -- the state bytes share the same uplink/backhaul links as the
clients' traffic.

This module rebuilds migration as a proper subsystem:

* :class:`StateTransferService` moves checkpoint bytes as **sized chunk
  packets over the simulated topology**: out of the source station's uplink
  port, through the gateway, down the target station's uplink, into a
  dedicated migration endpoint port on the target switch.  Chunks queue
  behind (and delay) client packets on the very same :class:`~repro.netem.link.Link`
  objects, pay per-hop propagation delay (the RTT model), are paced by a
  window that is clocked by arrivals, and survive loss/outages through a
  stall watchdog with bounded retries.
* :class:`MigrationEngine` owns the three strategies as pluggable policy
  objects -- :class:`ColdPolicy`, :class:`StatefulPolicy`,
  :class:`PrecopyPolicy` -- plus all roaming state (captured NF state,
  speculative replicas), with explicit lifecycle hooks so nothing leaks:
  state is dropped on migration finalize, on assignment release (detach),
  on same-station reconnects and at shutdown.
* Pre-copy is **iterative**: round *r* moves a dirty delta of
  ``size * dirty_fraction ** r`` over the links while the old chain keeps
  its state; rounds continue until the *estimated* next-delta transfer time
  (bandwidth + RTT, the :meth:`~repro.containers.checkpoint.Checkpoint.transfer_time_s`
  formula) drops under the downtime target or the round budget runs out,
  then the final delta is moved inside the freeze window.

Per-migration telemetry (rounds, freeze time, downtime, bytes moved) lands
on the :class:`MigrationRecord`; per-station transfer counters are published
through each Agent's :class:`~repro.telemetry.collector.ResourceCollector`
under the ``migration.*`` prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.agent import ChainDeployment
from repro.core.api import ClientEvent
from repro.core.errors import MigrationError
from repro.core.manager import Assignment, AssignmentState
from repro.netem.host import VethPair
from repro.netem.flowtable import Action, Match
from repro.netem.packet import make_udp_packet
from repro.netem.simulator import Simulator
from repro.netem.topology import CHAIN_PRIORITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netem.topology import EdgeStation

VALID_STRATEGIES = ("cold", "stateful", "precopy")

#: UDP destination port state-transfer chunks travel on (never collides with
#: workload traffic: generators use high client-side ports and 53/80/9000).
MIGRATION_PORT = 7077

_transfer_ids = itertools.count(1)


@dataclass
class MigrationRecord:
    """One completed (or failed) NF migration, with its full cost breakdown."""

    assignment_id: str
    client_ip: str
    nf_types: List[str]
    from_station: str
    to_station: str
    strategy: str
    started_at: float
    client_connected_at: float
    completed_at: Optional[float] = None
    #: Time after the client appeared at the new station during which its
    #: traffic was not covered by its NFs (the paper's service interruption).
    coverage_gap_s: Optional[float] = None
    state_transferred_mb: float = 0.0
    #: On-the-wire bytes the state transfer actually moved over the links
    #: (includes pre-copy rounds; 0 for cold migrations).
    bytes_moved: int = 0
    #: Pre-copy rounds run before the freeze (0 for cold/stateful).
    rounds: int = 0
    #: How long the chain was frozen: the checkpoint dump for stateful, the
    #: final-delta copy window for pre-copy.
    freeze_time_s: float = 0.0
    #: Service downtime of the chain switchover.  For cold/stateful this
    #: equals the coverage gap; for pre-copy it is the (much shorter)
    #: freeze-to-activation window.
    downtime_s: Optional[float] = None
    success: bool = False
    detail: str = ""


@dataclass
class TransferOutcome:
    """What a finished (or abandoned) state transfer reports back."""

    success: bool
    bytes_moved: int = 0
    duration_s: float = 0.0
    chunks_sent: int = 0
    retries: int = 0


class _Transfer:
    """Book-keeping for one in-flight state transfer."""

    __slots__ = (
        "transfer_id",
        "from_station",
        "to_station",
        "size_bytes",
        "bytes_unsent",
        "bytes_outstanding",
        "bytes_moved",
        "chunks_sent",
        "started_at",
        "last_progress_at",
        "retries",
        "on_complete",
        "done",
    )

    def __init__(
        self,
        transfer_id: int,
        from_station: str,
        to_station: str,
        size_bytes: int,
        on_complete: Callable[[TransferOutcome], None],
        now: float,
    ) -> None:
        self.transfer_id = transfer_id
        self.from_station = from_station
        self.to_station = to_station
        self.size_bytes = size_bytes
        self.bytes_unsent = size_bytes
        self.bytes_outstanding = 0
        self.bytes_moved = 0
        self.chunks_sent = 0
        self.started_at = now
        self.last_progress_at = now
        self.retries = 0
        self.on_complete = on_complete
        self.done = False


class _Endpoint:
    """A station's migration endpoint: a veth into the station switch."""

    __slots__ = ("station_name", "veth", "port_number", "ip", "mac")

    def __init__(self, station_name: str, veth: VethPair, port_number: int, ip: str, mac: str) -> None:
        self.station_name = station_name
        self.veth = veth
        self.port_number = port_number
        self.ip = ip
        self.mac = mac


class StateTransferService:
    """Moves migration state as chunked packets over the simulated links.

    The service lazily provisions one *migration endpoint* per station: a
    veth pair plugged into the station switch as a no-flood port, an IP from
    the control subnet, a steering rule (``ip_dst == endpoint``) on the
    switch and a gateway route.  A transfer then:

    1. injects chunk packets at the source station's uplink port interface
       (so they serialize behind -- and ahead of -- the station's client
       traffic on the uplink link),
    2. is routed by the gateway to the target station's uplink,
    3. arrives through the target switch's flow table at the endpoint port,
       where the service accounts the bytes and clocks the send window.

    Windowed pacing means long transfers adapt to congestion: a loaded
    backhaul delays chunk arrivals, which delays the next sends.  A stall
    watchdog re-opens the window after ``stall_timeout_s`` without progress
    and gives up (reporting failure) after ``max_retries`` stalls, so a
    downed uplink can never wedge a migration -- or the event queue --
    forever.
    """

    chunk_bytes = 65536
    window_chunks = 32
    stall_timeout_s = 3.0
    max_retries = 5
    #: Bandwidth assumed by the analytic path (no routable topology).
    fallback_bandwidth_bps = 100e6

    def __init__(self, simulator: Simulator, manager) -> None:
        self.simulator = simulator
        self.manager = manager
        self._endpoints: Dict[str, _Endpoint] = {}
        self._transfers: Dict[int, _Transfer] = {}
        # Per-station wire counters, published via the Agents' collectors.
        self.station_counters: Dict[str, Dict[str, float]] = {}
        self.transfers_started = 0
        self.transfers_completed = 0
        self.transfers_failed = 0
        #: In flight when the engine shut down (:meth:`cancel_all`), so
        #: ``started == completed + failed + abandoned`` once a run ends.
        #: Not in :meth:`summary`, which the run's digest hashes.
        self.transfers_abandoned = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.chunks_retransmitted = 0

    # ------------------------------------------------------------- endpoints

    def active_transfer_stations(self) -> Set[str]:
        """Stations currently sending or receiving state-transfer chunks.

        The hybrid simulation core treats these as packet-fidelity islands:
        bulk flows touching them are demoted so checkpoint chunks and client
        traffic contend on the real uplinks.
        """
        stations: Set[str] = set()
        for transfer in self._transfers.values():
            if transfer.done:
                continue
            stations.add(transfer.from_station)
            stations.add(transfer.to_station)
        return stations

    def _counters(self, station_name: str) -> Dict[str, float]:
        counters = self.station_counters.get(station_name)
        if counters is None:
            counters = self.station_counters[station_name] = {
                "state_bytes_sent": 0.0,
                "state_bytes_received": 0.0,
                "state_chunks_sent": 0.0,
                "state_chunks_received": 0.0,
                "transfers_out": 0.0,
                "transfers_in": 0.0,
            }
        return counters

    def _endpoint(self, station_name: str) -> Optional[_Endpoint]:
        """The station's migration endpoint, provisioned on first use."""
        endpoint = self._endpoints.get(station_name)
        if endpoint is not None:
            return endpoint
        topology = self.manager.topology
        if topology is None or station_name not in topology.stations:
            return None
        station: "EdgeStation" = topology.stations[station_name]
        addresses = topology.addresses
        veth = VethPair(
            self.simulator,
            f"{station_name}-mig",
            addresses.allocate_mac(),
            addresses.allocate_mac(),
        )
        port = station.switch.add_port(veth.end_a, no_flood=True)
        ip = addresses.allocate_ip("control", owner=f"migration:{station_name}")
        veth.end_b.ip = ip
        veth.end_b.delivery_override = self._on_chunk
        # Steer arriving state chunks out of the flow pipeline into the
        # endpoint port (same priority band as chain rules: chunks must
        # never fall through to L2 flooding).
        station.switch.flow_table.add(
            priority=CHAIN_PRIORITY,
            match=Match(ip_dst=ip),
            actions=[Action.output(port.number)],
            cookie=f"migration-endpoint:{station_name}",
        )
        topology.gateway.register_migration_endpoint(ip, veth.end_b.mac, station_name)
        endpoint = _Endpoint(
            station_name=station_name,
            veth=veth,
            port_number=port.number,
            ip=ip,
            mac=veth.end_b.mac,
        )
        self._endpoints[station_name] = endpoint
        # Publish the station's transfer counters through its Agent collector.
        agent = self.manager.agents.get(station_name)
        if agent is not None:
            counters = self._counters(station_name)
            agent.collector.add_source("migration", lambda counters=counters: dict(counters))
        return endpoint

    # -------------------------------------------------------------- transfer

    def transfer(
        self,
        from_station: str,
        to_station: str,
        size_bytes: int,
        on_complete: Callable[[TransferOutcome], None],
    ) -> None:
        """Move ``size_bytes`` of state between two stations over the links.

        ``on_complete(outcome)`` fires when every byte arrived (success) or
        the retry budget ran out (failure).  Falls back to an analytic delay
        when the deployment has no routable topology (unit-test managers).
        """
        size_bytes = int(size_bytes)
        if size_bytes <= 0 or from_station == to_station:
            self.simulator.schedule(
                0.0, on_complete, TransferOutcome(success=True, bytes_moved=max(0, size_bytes))
            )
            return
        source = self._endpoint(from_station)
        target = self._endpoint(to_station)
        if source is None or target is None:
            self._analytic_transfer(from_station, to_station, size_bytes, on_complete)
            return
        self.transfers_started += 1
        self._counters(from_station)["transfers_out"] += 1
        self._counters(to_station)["transfers_in"] += 1
        transfer = _Transfer(
            transfer_id=next(_transfer_ids),
            from_station=from_station,
            to_station=to_station,
            size_bytes=size_bytes,
            on_complete=on_complete,
            now=self.simulator.now,
        )
        self._transfers[transfer.transfer_id] = transfer
        self._send_window(transfer)
        self.simulator.schedule(self.stall_timeout_s, self._watchdog, transfer)

    def _analytic_transfer(
        self,
        from_station: str,
        to_station: str,
        size_bytes: int,
        on_complete: Callable[[TransferOutcome], None],
    ) -> None:
        """Bandwidth + RTT formula fallback when no topology links exist."""
        duration = self.estimate_transfer_time(from_station, to_station, size_bytes)
        self.transfers_started += 1
        self.transfers_completed += 1
        self.bytes_sent += size_bytes
        self.bytes_received += size_bytes
        self.simulator.schedule(
            duration,
            on_complete,
            TransferOutcome(success=True, bytes_moved=size_bytes, duration_s=duration),
        )

    def estimate_transfer_time(self, from_station: str, to_station: str, size_bytes: int) -> float:
        """Expected seconds to move ``size_bytes`` (the planning estimate).

        Uses the same shape as :meth:`Checkpoint.transfer_time_s`: one RTT of
        protocol overhead plus serialization at the narrowest hop.  The live
        transfer over the links will take at least this long -- more when the
        backhaul is congested.
        """
        bandwidth = self._path_bandwidth_bps(from_station, to_station)
        rtt = self._path_rtt_s(from_station, to_station)
        return rtt + (size_bytes * 8) / bandwidth

    def _path_bandwidth_bps(self, from_station: str, to_station: str) -> float:
        topology = self.manager.topology
        if topology is None:
            return self.fallback_bandwidth_bps
        links = topology.uplink_links
        bandwidths = [
            links[name].bandwidth_bps for name in (from_station, to_station) if name in links
        ]
        return min(bandwidths) if bandwidths else topology.config.uplink_bandwidth_bps

    def _path_rtt_s(self, from_station: str, to_station: str) -> float:
        topology = self.manager.topology
        if topology is None:
            return 0.02
        return 2 * topology.station_to_station_latency(from_station, to_station)

    # ------------------------------------------------------------ chunk I/O

    def _send_window(self, transfer: _Transfer) -> None:
        """Send chunks until the window is full or nothing is left to send."""
        budget = self.window_chunks * self.chunk_bytes - transfer.bytes_outstanding
        while transfer.bytes_unsent > 0 and budget > 0 and not transfer.done:
            chunk = min(self.chunk_bytes, transfer.bytes_unsent)
            if not self._send_chunk(transfer, chunk):
                # The uplink refused the chunk (link down / queue full): stop
                # pushing; the watchdog re-opens the window later.
                return
            transfer.bytes_unsent -= chunk
            transfer.bytes_outstanding += chunk
            budget -= chunk

    def _send_chunk(self, transfer: _Transfer, chunk_bytes: int) -> bool:
        topology = self.manager.topology
        source = self._endpoints.get(transfer.from_station)
        target = self._endpoints.get(transfer.to_station)
        if topology is None or source is None or target is None:
            return False
        station = topology.stations.get(transfer.from_station)
        if station is None or station.uplink_port is None:
            return False
        uplink_port = station.switch.ports.get(station.uplink_port)
        if uplink_port is None:
            return False
        packet = make_udp_packet(
            src_ip=source.ip,
            dst_ip=target.ip,
            src_port=40_000 + (transfer.transfer_id % 20_000),
            dst_port=MIGRATION_PORT,
            payload_bytes=chunk_bytes,
            src_mac=source.mac,
            dst_mac=topology.gateway_mac_for.get(transfer.from_station, source.mac),
            created_at=self.simulator.now,
        )
        packet.metadata["migration_transfer"] = transfer.transfer_id
        accepted = uplink_port.interface.send(packet)
        if accepted:
            transfer.chunks_sent += 1
            self.bytes_sent += chunk_bytes
            counters = self._counters(transfer.from_station)
            counters["state_bytes_sent"] += chunk_bytes
            counters["state_chunks_sent"] += 1
        return accepted

    def _on_chunk(self, packet, _interface) -> None:
        transfer_id = packet.metadata.get("migration_transfer")
        transfer = self._transfers.get(transfer_id)
        if transfer is None or transfer.done:
            return  # late duplicate of a finished/abandoned transfer
        payload = packet.payload_bytes
        transfer.bytes_moved += payload
        transfer.bytes_outstanding = max(0, transfer.bytes_outstanding - payload)
        transfer.last_progress_at = self.simulator.now
        self.bytes_received += payload
        counters = self._counters(transfer.to_station)
        counters["state_bytes_received"] += payload
        counters["state_chunks_received"] += 1
        if transfer.bytes_moved >= transfer.size_bytes:
            self._finish(transfer, success=True)
            return
        self._send_window(transfer)

    def _watchdog(self, transfer: _Transfer) -> None:
        """Re-arm the window after a stall; give up after the retry budget."""
        if transfer.done:
            return
        now = self.simulator.now
        # An absolute deadline: a remainder recomputed from ``now`` can round
        # to a delay too small to move the clock, and re-arm at ``now`` forever.
        deadline = transfer.last_progress_at + self.stall_timeout_s
        if now < deadline:
            self.simulator.schedule_at(deadline, self._watchdog, transfer)
            return
        transfer.retries += 1
        if transfer.retries > self.max_retries:
            self._finish(transfer, success=False)
            return
        # Whatever was outstanding is presumed lost (dropped on a downed or
        # overflowing link): put it back on the unsent ledger and resend.
        lost = transfer.bytes_outstanding
        if lost > 0:
            self.chunks_retransmitted += -(-lost // self.chunk_bytes)
        transfer.bytes_unsent += lost
        transfer.bytes_outstanding = 0
        transfer.last_progress_at = now
        self._send_window(transfer)
        self.simulator.schedule(self.stall_timeout_s, self._watchdog, transfer)

    def _finish(self, transfer: _Transfer, success: bool) -> None:
        if transfer.done:
            return
        transfer.done = True
        self._transfers.pop(transfer.transfer_id, None)
        if success:
            self.transfers_completed += 1
        else:
            self.transfers_failed += 1
        transfer.on_complete(
            TransferOutcome(
                success=success,
                bytes_moved=transfer.bytes_moved,
                duration_s=self.simulator.now - transfer.started_at,
                chunks_sent=transfer.chunks_sent,
                retries=transfer.retries,
            )
        )

    def cancel_all(self) -> None:
        """Abandon every in-flight transfer (engine shutdown)."""
        for transfer in list(self._transfers.values()):
            transfer.done = True
            self._transfers.pop(transfer.transfer_id, None)
            self.transfers_abandoned += 1

    def summary(self) -> Dict[str, float]:
        return {
            "transfers_started": float(self.transfers_started),
            "transfers_completed": float(self.transfers_completed),
            "transfers_failed": float(self.transfers_failed),
            "state_bytes_sent": float(self.bytes_sent),
            "state_bytes_received": float(self.bytes_received),
            "chunks_retransmitted": float(self.chunks_retransmitted),
        }


# ---------------------------------------------------------------------------
# Strategy policies
# ---------------------------------------------------------------------------


class MigrationPolicy:
    """One migration strategy, invoked by the engine's event hooks."""

    name = "abstract"

    def __init__(self, engine: "MigrationEngine") -> None:
        self.engine = engine

    def client_left(self, assignment: Assignment, event: ClientEvent) -> None:
        """The client left the station hosting its chain (prepare phase)."""

    def migrate(self, assignment: Assignment, event: ClientEvent, record: MigrationRecord) -> None:
        """The client appeared at a new station: move the chain there."""
        raise NotImplementedError


class ColdPolicy(MigrationPolicy):
    """The demo's approach: fresh equivalent chain, state is lost."""

    name = "cold"

    def migrate(self, assignment: Assignment, event: ClientEvent, record: MigrationRecord) -> None:
        engine = self.engine
        old_station = assignment.station_name
        new_agent = engine.manager.agent(event.station_name)

        def on_complete(deployment: ChainDeployment, success: bool, detail: str) -> None:
            engine.finalize(assignment, record, old_station, success, detail)

        engine.manager.channels[event.station_name].call(
            new_agent.deploy_chain,
            assignment.assignment_id,
            assignment.client_ip,
            assignment.head_chain(),
            assignment.selector,
            None,
            on_complete,
        )


class StatefulPolicy(MigrationPolicy):
    """Checkpoint at the old station, move the bytes, restore at the new one."""

    name = "stateful"

    def client_left(self, assignment: Assignment, event: ClientEvent) -> None:
        self.engine.capture_state(assignment)

    def migrate(self, assignment: Assignment, event: ClientEvent, record: MigrationRecord) -> None:
        engine = self.engine
        old_station = assignment.station_name
        old_agent = engine.manager.agents.get(old_station)

        nf_states: List[Dict[str, object]] = []
        state_mb = 0.0
        freeze_s = 0.0
        if old_agent is not None:
            checkpoints, freeze_s = old_agent.checkpoint_chain(assignment.assignment_id)
            nf_states = [dict(checkpoint.nf_state) for checkpoint in checkpoints]
            state_mb = sum(checkpoint.size_mb for checkpoint in checkpoints)
        if not nf_states:
            # The old chain is gone (crashed station, torn down): restore
            # from the state captured when the client left, if any.
            nf_states = engine._captured_state.get(assignment.assignment_id, [])
            state_mb = engine.serialized_state_mb(nf_states)
        record.state_transferred_mb = state_mb
        record.freeze_time_s = freeze_s

        def after_transfer(outcome: TransferOutcome) -> None:
            record.bytes_moved += outcome.bytes_moved
            states = nf_states
            detail = "checkpoint restored at new station"
            if not outcome.success:
                # The backhaul never delivered the state: bring the chain up
                # cold rather than stranding the client without coverage.
                states = []
                detail = "state transfer failed; restarted without state"
            new_agent = engine.manager.agent(event.station_name)

            def on_complete(deployment: ChainDeployment, success: bool, deploy_detail: str) -> None:
                engine.finalize(
                    assignment, record, old_station, success, detail if success else deploy_detail
                )

            engine.manager.channels[event.station_name].call(
                new_agent.deploy_chain,
                assignment.assignment_id,
                assignment.client_ip,
                assignment.head_chain(),
                assignment.selector,
                states,
                on_complete,
            )

        def start_transfer() -> None:
            engine.transfers.transfer(
                old_station, event.station_name, int(state_mb * 1e6), after_transfer
            )

        # The chain freezes for the checkpoint dump, then the bytes ride the
        # backhaul links (congesting with client traffic, paying the RTT).
        engine.simulator.schedule(freeze_s, start_transfer)


class PrecopyPolicy(MigrationPolicy):
    """Make-before-break with iterative dirty-delta rounds.

    When the client leaves, replicas boot on candidate next stations while
    the old chain keeps its state.  When the client reappears next to a
    replica, rounds of shrinking dirty deltas are copied over the links
    while the old chain stays authoritative; once the estimated next-round
    copy fits inside the downtime target (or the round budget is spent),
    the final delta moves inside the freeze window and the replica takes
    over.
    """

    name = "precopy"

    def client_left(self, assignment: Assignment, event: ClientEvent) -> None:
        engine = self.engine
        engine.start_speculative_replicas(assignment, exclude_station=event.station_name)
        engine.capture_state(assignment)

    def migrate(self, assignment: Assignment, event: ClientEvent, record: MigrationRecord) -> None:
        engine = self.engine
        assignment_id = assignment.assignment_id
        replicas = engine._speculative.get(assignment_id, {})
        replica = replicas.get(event.station_name)
        if replica is None:
            # No replica was started where the client actually went: tear
            # down the mispredicted ones and fall back to a cold migration
            # (still accounted against the precopy strategy).
            engine.cleanup_speculative(assignment_id, keep_station=None)
            record.detail = "no replica at target; cold fallback"
            engine.policies["cold"].migrate(assignment, event, record)
            return
        if replica.active_at is None:
            # The replica is still booting.  Adopt it instead of tearing it
            # down and double-deploying the same chain id in the same tick:
            # the switchover runs as soon as the boot completes (or falls
            # back to cold if the boot fails).
            engine._pending_precopy[assignment_id] = (assignment, event, record)
            record.detail = "adopted still-booting replica"
            return
        self.switch_over(assignment, event, record, replica)

    # ------------------------------------------------------------- rounds

    def switch_over(
        self,
        assignment: Assignment,
        event: ClientEvent,
        record: MigrationRecord,
        replica: ChainDeployment,
    ) -> None:
        engine = self.engine
        old_station = assignment.station_name
        captured = engine._captured_state.get(assignment.assignment_id, [])
        size_mb = engine.serialized_state_mb(captured)
        record.state_transferred_mb = size_mb

        def run_round(round_index: int, delta_mb: float) -> None:
            # If copying the *current* dirty delta fits inside the downtime
            # target (or the round budget is spent), do it inside the freeze
            # window; otherwise copy it live and recurse on the shrunk delta.
            estimate = engine.transfers.estimate_transfer_time(
                old_station, event.station_name, int(delta_mb * 1e6)
            )
            final = (
                estimate <= engine.precopy_downtime_target_s
                or round_index + 1 >= engine.precopy_max_rounds
                or delta_mb <= 0.0
            )
            if final:
                freeze_started = engine.simulator.now

                def after_final(outcome: TransferOutcome) -> None:
                    record.bytes_moved += outcome.bytes_moved
                    record.freeze_time_s = outcome.duration_s
                    self._activate(assignment, event, record, replica, captured, freeze_started)

                engine.transfers.transfer(
                    old_station, event.station_name, int(delta_mb * 1e6), after_final
                )
                return

            def after_round(outcome: TransferOutcome) -> None:
                record.bytes_moved += outcome.bytes_moved
                record.rounds += 1
                run_round(round_index + 1, delta_mb * engine.precopy_dirty_fraction)

            engine.transfers.transfer(
                old_station, event.station_name, int(delta_mb * 1e6), after_round
            )

        run_round(0, size_mb)

    def _activate(
        self,
        assignment: Assignment,
        event: ClientEvent,
        record: MigrationRecord,
        replica: ChainDeployment,
        captured: List[Dict[str, object]],
        freeze_started: float,
    ) -> None:
        engine = self.engine
        old_station = assignment.station_name
        new_agent = engine.manager.agents.get(event.station_name)
        channel = engine.manager.channels.get(event.station_name)
        if new_agent is None or channel is None:
            engine.finalize(assignment, record, old_station, False, "target station vanished")
            return

        def activate() -> None:
            for index, deployed in enumerate(replica.deployed_nfs):
                if index < len(captured) and captured[index]:
                    deployed.nf.import_state(captured[index])
            new_agent.set_chain_active(assignment.assignment_id, True)
            record.downtime_s = engine.simulator.now - freeze_started
            engine.cleanup_speculative(assignment.assignment_id, keep_station=event.station_name)
            engine.finalize(
                assignment, record, old_station, True, "switched to pre-copied replica"
            )

        channel.call(activate)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class MigrationEngine:
    """Unifies the migration strategies behind one link-aware subsystem.

    Installed as the Manager's ``roaming`` hook (``GNFTestbed.roaming`` is
    this object): the Manager's client-event tracking calls
    :meth:`client_disconnected` / :meth:`client_connected` /
    :meth:`client_reconnected` and its detach calls
    :meth:`assignment_released`.  The engine holds the policy objects, the
    state-transfer service, the captured-state and speculative-replica
    ledgers, and every lifecycle hook that keeps those ledgers bounded
    (finalize, release, same-station reconnect, shutdown).

    The pre-copy values come from ``TestbedConfig``, whose ``validate()`` is
    their only rule.
    """

    #: Stations a pre-copy migration speculatively boots replicas on.
    speculative_station_limit = 3

    def __init__(
        self,
        simulator: Simulator,
        manager,
        strategy: str = "cold",
        precopy_max_rounds: int = 4,
        precopy_downtime_target_s: float = 0.05,
        precopy_dirty_fraction: float = 0.25,
    ) -> None:
        if strategy not in VALID_STRATEGIES:
            raise MigrationError(
                f"unknown migration strategy {strategy!r}; valid: {VALID_STRATEGIES}"
            )
        self.simulator = simulator
        self.manager = manager
        self.strategy = strategy
        self.precopy_max_rounds = precopy_max_rounds
        self.precopy_downtime_target_s = precopy_downtime_target_s
        self.precopy_dirty_fraction = precopy_dirty_fraction
        self.transfers = StateTransferService(simulator, manager)
        self.records: List[MigrationRecord] = []
        # assignment_id -> station -> speculative deployment (precopy only).
        self._speculative: Dict[str, Dict[str, ChainDeployment]] = {}
        # assignment_id -> exported state captured when the client left.
        self._captured_state: Dict[str, List[Dict[str, object]]] = {}
        # assignment_id -> migration waiting for a replica boot to finish.
        self._pending_precopy: Dict[str, Tuple[Assignment, ClientEvent, MigrationRecord]] = {}
        self.policies: Dict[str, MigrationPolicy] = {
            "cold": ColdPolicy(self),
            "stateful": StatefulPolicy(self),
            "precopy": PrecopyPolicy(self),
        }
        self.policy = self.policies[strategy]

    # ----------------------------------------------------------- event hooks

    def client_disconnected(self, assignment: Assignment, event: ClientEvent) -> None:
        self.policy.client_left(assignment, event)

    def client_connected(self, assignment: Assignment, event: ClientEvent) -> MigrationRecord:
        record = MigrationRecord(
            assignment_id=assignment.assignment_id,
            client_ip=assignment.client_ip,
            # Only the head segment roams with the client; remote segments
            # of a split embedding stay where the embedding put them.
            nf_types=assignment.head_chain().nf_types,
            from_station=assignment.station_name,
            to_station=event.station_name,
            strategy=self.strategy,
            started_at=self.simulator.now,
            client_connected_at=event.time,
        )
        self.records.append(record)
        # A fresh connect supersedes any migration still waiting on a
        # replica boot from a previous roam: without this, a later boot at
        # the old target station would replay the stale switch-over.
        self._pending_precopy.pop(assignment.assignment_id, None)
        assignment.state = AssignmentState.MIGRATING
        self.policy.migrate(assignment, event, record)
        return record

    def client_reconnected(self, assignment: Assignment, event: ClientEvent) -> None:
        """The client came back to the station already hosting its chain.

        Nothing migrates, but any roaming state staged while the client was
        away (captured exports, speculative replicas) is now dead weight --
        dropping it here is what keeps the ledgers bounded on shuttling
        clients that keep returning home.
        """
        self._captured_state.pop(assignment.assignment_id, None)
        self._pending_precopy.pop(assignment.assignment_id, None)
        self.cleanup_speculative(assignment.assignment_id, keep_station=None)

    def assignment_released(self, assignment_id: str) -> None:
        """The assignment was detached: drop every piece of roaming state."""
        self._captured_state.pop(assignment_id, None)
        self._pending_precopy.pop(assignment_id, None)
        self.cleanup_speculative(assignment_id, keep_station=None)

    def shutdown(self) -> None:
        """End-of-run cleanup: abandon transfers, tear down replicas."""
        self.transfers.cancel_all()
        self._pending_precopy.clear()
        self._captured_state.clear()
        for assignment_id in list(self._speculative):
            self.cleanup_speculative(assignment_id, keep_station=None)

    # ------------------------------------------------------------- finalize

    def finalize(
        self,
        assignment: Assignment,
        record: MigrationRecord,
        old_station: str,
        success: bool,
        detail: str = "",
    ) -> None:
        record.completed_at = self.simulator.now
        record.success = success
        if detail:
            record.detail = f"{record.detail}; {detail}" if record.detail else detail
        # Whatever state was captured for this migration has been consumed
        # (or is now stale): never let it survive into a later roam.
        self._captured_state.pop(assignment.assignment_id, None)
        if assignment.state is AssignmentState.REMOVED:
            # A detach raced the migration: never resurrect the assignment,
            # and tear down whatever the migration just deployed -- the
            # detach itself only removed the chain at the *old* home station.
            record.success = False
            record.detail = (
                f"{record.detail}; assignment detached mid-migration"
                if record.detail
                else "assignment detached mid-migration"
            )
            for station_name in {old_station, record.to_station}:
                agent = self.manager.agents.get(station_name)
                if agent is not None:
                    self.manager.channels[station_name].call(
                        agent.remove_chain, assignment.assignment_id
                    )
            return
        if success:
            record.coverage_gap_s = max(0.0, self.simulator.now - record.client_connected_at)
            if record.downtime_s is None:
                record.downtime_s = record.coverage_gap_s
            assignment.station_name = record.to_station
            assignment.head_moved(record.to_station)
            assignment.station_history.append(record.to_station)
            assignment.migrations += 1
            assignment.state = AssignmentState.ACTIVE
            assignment.active_at = self.simulator.now
            # Tell the Manager the assignment's home station moved: a plain
            # GNFManager ignores this, a sharded frontend hands the
            # assignment off to the shard owning the new station.
            self.manager.assignment_station_changed(assignment, old_station)
            # Reconcile with the assignment's time schedule: the re-deploy at
            # the new station steers by default, but if the schedule window is
            # currently closed the chain must come up unsteered (the scheduler
            # itself won't correct this -- it already recorded the assignment
            # as disabled, so it sees no transition to drive).
            if not assignment.schedule.is_active(self.simulator.now):
                new_agent = self.manager.agents.get(record.to_station)
                if new_agent is not None:
                    self.manager.channels[record.to_station].call(
                        new_agent.set_chain_active, assignment.assignment_id, False
                    )
        else:
            assignment.state = AssignmentState.FAILED
            assignment.failure_reason = record.detail
        # Remove the old chain regardless; the station the client left should
        # not keep spending resources on it.  The removal also invalidates the
        # old station's fast path: remove_chain flushes the client's cached
        # verdicts and the rule removal bumps the table generation, so no
        # stale verdict can keep steering the roamed client's traffic into
        # the chain being torn down.
        old_agent = self.manager.agents.get(old_station)
        if old_agent is not None and old_station != record.to_station:
            self.manager.channels[old_station].call(old_agent.remove_chain, assignment.assignment_id)

    # ----------------------------------------------------------- speculation

    def capture_state(self, assignment: Assignment) -> None:
        """Export the chain's NF state at the moment the client left."""
        agent = self.manager.agents.get(assignment.station_name)
        if agent is not None:
            self._captured_state[assignment.assignment_id] = agent.export_chain_state(
                assignment.assignment_id
            )

    def start_speculative_replicas(self, assignment: Assignment, exclude_station: str) -> None:
        """Boot replicas of the chain on candidate next stations (precopy).

        Candidates are ordered by inter-station latency (nearest first, name
        as the deterministic tie-break) so the replicas land where a roaming
        client is most likely to reappear.
        """
        replicas = self._speculative.setdefault(assignment.assignment_id, {})
        topology = self.manager.topology
        home = assignment.station_name

        def distance(name: str) -> float:
            if topology is None or home not in topology.stations or name not in topology.stations:
                return 0.0
            return topology.station_to_station_latency(home, name)

        candidates = sorted(
            (name for name in self.manager.agents if name != exclude_station),
            key=lambda name: (distance(name), name),
        )
        for station_name in candidates[: self.speculative_station_limit]:
            if station_name in replicas:
                continue
            agent = self.manager.agent(station_name)
            deployment = agent.deploy_chain(
                assignment.assignment_id,
                assignment.client_ip,
                assignment.head_chain(),
                assignment.selector,
                None,
                self._replica_boot_finished(assignment.assignment_id, station_name),
            )
            replicas[station_name] = deployment

    def _replica_boot_finished(
        self, assignment_id: str, station_name: str
    ) -> Callable[[ChainDeployment, bool, str], None]:
        def on_complete(deployment: ChainDeployment, success: bool, detail: str) -> None:
            replicas = self._speculative.get(assignment_id)
            if replicas is None or replicas.get(station_name) is not deployment:
                return  # the replica was already cleaned up / superseded
            if not success:
                # A replica that failed to boot is no replica at all: drop
                # the ledger entry so it cannot leak (the agent already
                # rolled the containers back).
                replicas.pop(station_name, None)
                if not replicas:
                    self._speculative.pop(assignment_id, None)
            pending = self._pending_precopy.pop(assignment_id, None)
            if pending is None:
                return
            assignment, event, record = pending
            if assignment.state is not AssignmentState.MIGRATING:
                return  # detached or superseded while the replica booted
            if event.station_name != station_name:
                self._pending_precopy[assignment_id] = pending
                return
            policy = self.policies["precopy"]
            if success:
                assert isinstance(policy, PrecopyPolicy)
                policy.switch_over(assignment, event, record, deployment)
            else:
                self.cleanup_speculative(assignment_id, keep_station=None)
                record.detail = (record.detail + "; replica boot failed, cold fallback").lstrip("; ")
                self.policies["cold"].migrate(assignment, event, record)

        return on_complete

    def cleanup_speculative(self, assignment_id: str, keep_station: Optional[str]) -> None:
        """Remove speculative replicas that were not (or no longer) needed."""
        replicas = self._speculative.pop(assignment_id, {})
        for station_name, deployment in replicas.items():
            if station_name == keep_station:
                continue
            agent = self.manager.agents.get(station_name)
            if agent is not None:
                self.manager.channels[station_name].call(agent.remove_chain, assignment_id)

    # --------------------------------------------------------------- stats

    @staticmethod
    def serialized_state_mb(states: List[Dict[str, object]]) -> float:
        """Size of exported NF state on the wire, in (decimal) MB."""
        return sum(len(str(state)) for state in states if state) / 1e6

    def estimate_copy_time_s(self, station_name: str, size_mb: float) -> float:
        """Seconds to copy ``size_mb`` of state *within* ``station_name``.

        The bundle-upgrade orchestrator uses this for its same-station
        old->new chain copies: the serialization cost is real (the state
        crosses the container boundary at the station's narrowest local
        rate) even though no backhaul link is traversed.
        """
        if size_mb <= 0:
            return 0.0
        return self.transfers.estimate_transfer_time(
            station_name, station_name, int(size_mb * 1e6)
        )

    def completed_migrations(self) -> List[MigrationRecord]:
        return [
            record for record in self.records if record.completed_at is not None and record.success
        ]

    def mean_coverage_gap_s(self) -> float:
        gaps = [
            record.coverage_gap_s
            for record in self.completed_migrations()
            if record.coverage_gap_s is not None
        ]
        return sum(gaps) / len(gaps) if gaps else 0.0

    def summary(self) -> Dict[str, float]:
        completed = self.completed_migrations()
        downtimes = [r.downtime_s for r in completed if r.downtime_s is not None]
        summary = {
            "strategy_" + self.strategy: 1.0,
            "migrations_started": float(len(self.records)),
            "migrations_completed": float(len(completed)),
            "mean_coverage_gap_s": self.mean_coverage_gap_s(),
            "mean_downtime_s": sum(downtimes) / len(downtimes) if downtimes else 0.0,
            "mean_state_transferred_mb": (
                sum(record.state_transferred_mb for record in completed) / len(completed)
                if completed
                else 0.0
            ),
            "total_precopy_rounds": float(sum(record.rounds for record in self.records)),
            "state_bytes_moved": float(sum(record.bytes_moved for record in self.records)),
        }
        summary.update({f"transfer_{k}": v for k, v in self.transfers.summary().items()})
        return summary
