"""The GNF Manager: the provider's central controller.

Section 3: "The Manager allows single or chain of NFs to be associated with
a subset of a selected client's traffic.  This is achieved by providing a
set of APIs to control the state of NFs' containers across all stations and
keeping a connection with all the Agents in the network.  The Manager is
also responsible for continuously monitoring the health and resource
utilization from the GNF stations, allowing the provider to detect
resource-hotspots ...  Using the same API, individual NFs can relay
notifications through their local Agent to the Manager."

This class implements exactly those responsibilities: the attach/detach API
used by the UI, Agent registration and heartbeat processing, client-location
tracking fed by Agent (dis)connection events, hotspot detection,
notification collection, and the hook the migration engine uses to move NFs
when a client shows up at a different station.

:class:`ControlPlane` is the part of that surface a lone Manager shares with
the multi-leaf frontend (:class:`~repro.core.sharding.ShardedManager`): the
attach/detach API up to the point a placed assignment is handed to the
Manager serving its station.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.core.agent import ChainDeployment, GNFAgent
from repro.core.api import (
    AgentHeartbeat,
    ClientEvent,
    ControlChannel,
    NFNotificationMessage,
)
from repro.core.chain import ServiceChain
from repro.core.errors import UnknownAgentError, UnknownAssignmentError, UnknownClientError
from repro.core.monitoring import HotspotDetector
from repro.core.notifications import NotificationCenter, ProviderNotification
from repro.core.placement import (
    ChainSegment,
    PlacementDecision,
    PlacementEngine,
    StationView,
)
from repro.core.policy import TrafficSelector
from repro.core.repository import NFRepository
from repro.core.scheduler import NFScheduler, TimeSchedule
from repro.netem.simulator import Simulator
from repro.netem.topology import EdgeTopology
from repro.telemetry.rollup import HealthRollup

_assignment_ids = itertools.count(1)


class AssignmentState(enum.Enum):
    """Lifecycle of an NF assignment."""

    PENDING = "pending"
    DEPLOYING = "deploying"
    ACTIVE = "active"
    MIGRATING = "migrating"
    REMOVED = "removed"
    FAILED = "failed"


@dataclass
class Assignment:
    """One client's NF (or chain) assignment, as the Manager tracks it."""

    assignment_id: str
    client_ip: str
    chain: ServiceChain
    selector: TrafficSelector
    schedule: TimeSchedule
    station_name: str
    state: AssignmentState = AssignmentState.PENDING
    requested_at: float = 0.0
    active_at: Optional[float] = None
    failure_reason: str = ""
    station_history: List[str] = field(default_factory=list)
    migrations: int = 0
    #: A split embedding's segment map.  Empty (or a single entry) means the
    #: historical whole-chain deployment on ``station_name``; two or more
    #: entries mean the assignment owns containers on that many stations, the
    #: first (head) segment -- holding the client-nearest NFs -- living on
    #: ``station_name`` and roaming with the client.
    segments: List[ChainSegment] = field(default_factory=list)
    #: Chain parts (head + remote segments) still booting; the assignment
    #: turns ACTIVE only when this reaches zero.
    segments_pending: int = 0
    _segment_chains: List[ServiceChain] = field(default_factory=list, repr=False)
    #: Optional observer fired as ``hook(assignment, old_state, new_state)``
    #: whenever ``state`` is reassigned, and around :meth:`swap_chain`.  The
    #: sharded frontend installs it to stream active-assignment / enabled-NF
    #: deltas into the global rollup without scanning the assignment table;
    #: it travels with the object through release/adopt handoffs.  Excluded
    #: from repr/compare so assignments stay digest-neutral.
    on_state_change: Optional[
        Callable[["Assignment", Optional[AssignmentState], Optional[AssignmentState]], None]
    ] = field(default=None, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        if name == "state":
            old = getattr(self, "state", None)
            object.__setattr__(self, name, value)
            hook = getattr(self, "on_state_change", None)
            # ``old is None`` is the dataclass-init first write; skip it.
            if hook is not None and old is not None and old is not value:
                hook(self, old, value)
            return
        object.__setattr__(self, name, value)

    def swap_chain(self, chain: ServiceChain) -> None:
        """Replace the chain in place (upgrade cutover).

        The observer sees the assignment leave its state with the old chain
        (``new_state`` None) and re-enter it with the new one (``old_state``
        None), so per-NF totals it streams follow a change of chain length.
        """
        state, hook = self.state, self.on_state_change
        if hook is not None:
            hook(self, state, None)
        self.chain = chain
        if hook is not None:
            hook(self, None, state)

    @property
    def attach_latency_s(self) -> Optional[float]:
        """Time from the attach API call until traffic steering was active."""
        if self.active_at is None:
            return None
        return self.active_at - self.requested_at

    @property
    def is_split(self) -> bool:
        return len(self.segments) > 1

    def apply_segments(self, segments: List[ChainSegment]) -> None:
        """Adopt a placement decision's segment map.

        Sub-chains are materialised once here (not per read) so every later
        dispatch, migration and teardown of the same segment reuses the same
        :class:`~repro.core.chain.ServiceChain` object.
        """
        self.segments = list(segments)
        self._segment_chains = (
            [self.chain.sub_chain(s.start, s.end) for s in self.segments]
            if len(self.segments) > 1
            else []
        )

    def segment_chains(self) -> List[ServiceChain]:
        """The per-segment sub-chains of a split assignment ([] otherwise)."""
        return self._segment_chains

    def head_chain(self) -> ServiceChain:
        """What the home station runs: the head segment of a split
        embedding, the whole chain otherwise.  Migration deploys exactly
        this at the client's new station -- remote segments stay put."""
        if len(self.segments) > 1:
            return self._segment_chains[0]
        return self.chain

    def head_moved(self, new_station: str) -> None:
        """Record the head segment's new home after a migration."""
        if self.segments:
            self.segments[0] = replace(self.segments[0], station_name=new_station)


ClientEventListener = Callable[[ClientEvent], None]


def make_assignment(
    now: float,
    client_ip: str,
    chain: ServiceChain,
    selector: Optional[TrafficSelector],
    schedule: Optional[TimeSchedule],
    station_name: str,
) -> Assignment:
    """Build a fresh Assignment record (shared by Manager and frontend)."""
    assignment = Assignment(
        assignment_id=f"asg-{next(_assignment_ids):04d}",
        client_ip=client_ip,
        chain=chain,
        selector=selector or TrafficSelector.all_traffic(),
        schedule=schedule or TimeSchedule.always(),
        station_name=station_name,
        requested_at=now,
    )
    assignment.station_history.append(station_name)
    return assignment


def track_client_event(owner, event: ClientEvent) -> None:
    """Client-event bookkeeping and roaming triggers, shared by every
    Manager flavour.

    ``owner`` is any :class:`ControlPlane`: a plain :class:`GNFManager`, a
    leaf of the sharded frontend (where ``roaming`` is None, so only the
    leaf's directory is maintained), or the frontend itself (which owns the
    *global* directory and the roaming hook).  Keeping this in one place is
    what guarantees a sharded run makes exactly the same migration
    decisions as an unsharded one -- the digest-invariance the E10 matrix
    asserts.  ``owner.roaming`` is the
    :class:`~repro.core.migration.MigrationEngine` (or a baseline with the
    same four hooks).
    """
    owner.client_names[event.client_ip] = event.client_name
    previous_station = owner.client_locations.get(event.client_ip)
    if event.event == "connected":
        owner.client_locations[event.client_ip] = event.station_name
        if owner.roaming is not None:
            for assignment in owner.assignments_for_client(event.client_ip):
                if (
                    assignment.state in (AssignmentState.ACTIVE, AssignmentState.MIGRATING)
                    and assignment.station_name != event.station_name
                ):
                    owner.roaming.client_connected(assignment, event)
                elif (
                    assignment.state is AssignmentState.ACTIVE
                    and assignment.station_name == event.station_name
                ):
                    # The client came back to the station already hosting its
                    # chain: nothing migrates, but roaming state staged while
                    # it was away (captured exports, speculative replicas)
                    # must be dropped or it leaks on shuttling clients.
                    owner.roaming.client_reconnected(assignment, event)
    elif event.event == "disconnected":
        if previous_station == event.station_name:
            owner.client_locations.pop(event.client_ip, None)
        if owner.roaming is not None:
            for assignment in owner.assignments_for_client(event.client_ip):
                if assignment.state is AssignmentState.ACTIVE and assignment.station_name == event.station_name:
                    owner.roaming.client_disconnected(assignment, event)
    for listener in owner._client_event_listeners:
        listener(event)


def segment_deployment_id(assignment_id: str, index: int) -> str:
    """Agent-side deployment id of remote segment ``index`` (>= 1)."""
    return f"{assignment_id}::seg{index}"


def upgrade_staging_id(assignment_id: str) -> str:
    """Agent-side deployment id of an assignment's staged replacement chain.

    A bundle upgrade boots the new chain version *next to* the live one
    (unsteered) under this id, then re-keys it to ``assignment_id`` at
    cutover -- the same namespacing trick split embeddings use for their
    remote segments.
    """
    return f"{assignment_id}::upgrade"


def dispatch_remote_segments(owner, assignment: Assignment, finished) -> None:
    """Deploy ``assignment.segments[1:]`` on their stations.

    Remote segments boot *without* steering rules: the client is not
    attached to those stations, so the segment must not claim their
    cell/uplink steering.  ``owner`` must hold network-wide ``agent()`` /
    ``channels`` (a plain Manager, or the sharded frontend -- shards only
    see their own band); ``finished`` is the assignment-owning Manager's
    ``_deployment_finished``, reported back over the segment's own channel.
    """
    chains = assignment.segment_chains()
    for index in range(1, len(assignment.segments)):
        segment = assignment.segments[index]
        agent = owner.agent(segment.station_name)
        channel = owner.channels[segment.station_name]

        def segment_complete(deployment, success: bool, detail: str, _channel=channel) -> None:
            _channel.call(finished, assignment.assignment_id, success, detail, deployment)

        channel.call(
            agent.deploy_chain,
            segment_deployment_id(assignment.assignment_id, index),
            assignment.client_ip,
            chains[index],
            assignment.selector,
            None,
            segment_complete,
            False,
        )


def teardown_remote_segments(owner, assignment: Assignment) -> None:
    """Remove every remote segment's containers (detach / failure path)."""
    for index in range(1, len(assignment.segments)):
        segment = assignment.segments[index]
        agent = owner.agents.get(segment.station_name)
        channel = owner.channels.get(segment.station_name)
        if agent is not None and channel is not None:
            channel.call(
                agent.remove_chain, segment_deployment_id(assignment.assignment_id, index)
            )


class ControlPlane:
    """The attach/detach API and client directory every Manager serves.

    A lone :class:`GNFManager` and the multi-leaf
    :class:`~repro.core.sharding.ShardedManager` frontend place, queue,
    fail and detach assignments identically; they differ only in who ends
    up owning a placed assignment.  Subclasses supply that hand-off
    (:meth:`accept_placed_assignment`), its inverse (:meth:`_withdraw`) and
    the ``station_views`` the engine scores, and call
    :meth:`_bind_placement_engine` once they can serve them.
    """

    #: A station whose last heartbeat is older than this is offline.
    heartbeat_timeout_s = 10.0

    def __init__(
        self,
        simulator: Simulator,
        repository: Optional[NFRepository],
        topology: Optional[EdgeTopology],
        placement_engine: Optional[PlacementEngine],
    ) -> None:
        self.simulator = simulator
        self.repository = repository or NFRepository.with_default_catalog()
        self.topology = topology
        # The placement subsystem: the testbed passes an engine configured
        # from its deployment (strategy, admission control, commitment TTL);
        # without one, the paper's closest-agent placement.
        self.placement_engine = placement_engine or PlacementEngine(
            simulator, repository=self.repository
        )
        self.agents: Dict[str, GNFAgent] = {}
        self.channels: Dict[str, ControlChannel] = {}
        self.assignments: Dict[str, Assignment] = {}
        self.client_locations: Dict[str, str] = {}
        self.client_names: Dict[str, str] = {}
        #: The MigrationEngine (or a baseline with its hooks); None on the
        #: leaves of a frontend, which only keep their directory.
        self.roaming = None
        self._client_event_listeners: List[ClientEventListener] = []

    def _bind_placement_engine(self) -> None:
        """Point the engine's queue callbacks and station view at this
        control plane."""
        self.placement_engine.bind(
            views=self.station_views,
            on_admit=self._deploy_queued_assignment,
            on_timeout=self._fail_queued_assignment,
            locate=lambda client_ip: self.client_locations.get(client_ip),
        )

    def agent(self, station_name: str) -> GNFAgent:
        try:
            return self.agents[station_name]
        except KeyError as exc:
            raise UnknownAgentError(station_name) from exc

    # ------------------------------------------------------------ attach API

    def attach_chain(
        self,
        client_ip: str,
        chain: ServiceChain,
        selector: Optional[TrafficSelector] = None,
        schedule: Optional[TimeSchedule] = None,
        station_name: Optional[str] = None,
    ) -> Assignment:
        """Associate a chain with a subset of the client's traffic.

        The chain is placed by the :class:`PlacementEngine` against the
        network-wide station view (the paper's default strategy: the station
        the client is attached to) and handed to the Manager serving the
        chosen station, which dispatches the deployment to its Agent.  With
        admission control enabled, a chain aimed at a saturated station is
        queued (assignment stays ``PENDING`` until capacity frees) or failed
        outright when queueing is off -- inspect ``assignment.state``.
        """
        client_station = station_name or self.client_locations.get(client_ip)
        if client_station is None:
            raise UnknownClientError(
                f"client {client_ip!r} has no known location; pass station_name explicitly"
            )
        decision = self.placement_engine.place(
            client_station, self.station_views(client_station), chain, client_ip=client_ip
        )
        assignment = make_assignment(
            self.simulator.now, client_ip, chain, selector, schedule, decision.station_name
        )
        self.assignments[assignment.assignment_id] = assignment
        if decision.admitted:
            assignment.apply_segments(decision.segments)
            self.accept_placed_assignment(assignment)
        elif decision.queued:
            self.placement_engine.enqueue(assignment, client_station, chain)
        else:
            assignment.state = AssignmentState.FAILED
            assignment.failure_reason = decision.reason
        return assignment

    def attach_nf(
        self,
        client_ip: str,
        nf_type: str,
        config: Optional[Dict[str, object]] = None,
        selector: Optional[TrafficSelector] = None,
        schedule: Optional[TimeSchedule] = None,
        station_name: Optional[str] = None,
    ) -> Assignment:
        """Associate a single NF with a client (convenience wrapper)."""
        return self.attach_chain(
            client_ip,
            ServiceChain.single(nf_type, config=config),
            selector=selector,
            schedule=schedule,
            station_name=station_name,
        )

    def _deploy_queued_assignment(self, assignment: Assignment, decision: PlacementDecision) -> None:
        """Engine callback: a queued placement finally found capacity."""
        if assignment.state is not AssignmentState.PENDING:
            return  # detached (or failed) while waiting in the queue
        assignment.station_name = decision.station_name
        assignment.station_history[-1] = decision.station_name
        assignment.apply_segments(decision.segments)
        self.accept_placed_assignment(assignment)

    def _fail_queued_assignment(self, assignment: Assignment, reason: str) -> None:
        """Engine callback: a queued placement timed out."""
        if assignment.state is AssignmentState.PENDING:
            assignment.state = AssignmentState.FAILED
            assignment.failure_reason = reason

    def detach(self, assignment_id: str) -> Assignment:
        """Remove a client's chain from wherever it currently runs."""
        assignment = self._assignment(assignment_id)
        if not self.placement_engine.cancel(assignment_id):
            # Not waiting in the admission queue, so it may be deployed (or
            # deploying) somewhere: tear the chain down there.
            self._withdraw(assignment)
        assignment.state = AssignmentState.REMOVED
        # Release any roaming state staged for this assignment (captured NF
        # exports, speculative replicas) so a detach can never leak it.
        if self.roaming is not None:
            self.roaming.assignment_released(assignment_id)
        return assignment

    # -------------------------------------------------------------- queries

    def find_assignment(self, assignment_id: str) -> Optional[Assignment]:
        """Non-raising assignment lookup (upgrade orchestrator polling)."""
        return self.assignments.get(assignment_id)

    def _assignment(self, assignment_id: str) -> Assignment:
        try:
            return self.assignments[assignment_id]
        except KeyError as exc:
            raise UnknownAssignmentError(assignment_id) from exc

    def assignments_for_client(self, client_ip: str) -> List[Assignment]:
        return [a for a in self.assignments.values() if a.client_ip == client_ip]

    def connected_client_ips(self) -> List[str]:
        """The directory's listing of currently connected clients
        (``overview()`` reports only the count)."""
        return sorted(self.client_locations)

    def add_client_event_listener(self, listener: ClientEventListener) -> None:
        self._client_event_listeners.append(listener)

    def control_plane_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-station control-channel statistics (benchmark E7)."""
        return {name: channel.stats() for name, channel in self.channels.items()}


class GNFManager(ControlPlane):
    """The central GNF controller.

    One ``GNFManager`` serves a set of registered stations: it owns the
    attach/detach API, tracks client locations from Agent-reported events,
    monitors Agent health and resource hotspots from heartbeats, collects NF
    notifications and drives time-scheduled activation.  In the default
    deployment it is *the* Manager and serves every station; in a sharded
    deployment (:class:`~repro.core.sharding.ShardedManager`) each instance
    is one leaf restricted to a contiguous band of stations, with the
    frontend handling global placement, roaming and cross-leaf handoffs
    (:meth:`release_assignment` / :meth:`adopt_assignment`).
    """

    def __init__(
        self,
        simulator: Simulator,
        repository: Optional[NFRepository] = None,
        topology: Optional[EdgeTopology] = None,
        placement_engine: Optional[PlacementEngine] = None,
    ) -> None:
        super().__init__(simulator, repository, topology, placement_engine)
        self._bind_placement_engine()
        self.last_heartbeat: Dict[str, AgentHeartbeat] = {}
        self.health = HealthRollup(self.heartbeat_timeout_s)
        self.hotspots = HotspotDetector()
        self.notifications = NotificationCenter()
        self.scheduler = NFScheduler(
            simulator,
            enable_callback=self._enable_assignment,
            disable_callback=self._disable_assignment,
        )
        #: Who holds ``agent()`` / ``channels`` for *every* station, for a
        #: split embedding's remote segments.  A leaf only sees its own
        #: band, so the sharded frontend points this at itself.
        self.network: ControlPlane = self
        self.heartbeats_processed = 0
        self.client_events_processed = 0

    # --------------------------------------------------------- registration

    def register_agent(
        self,
        agent: GNFAgent,
        control_latency_s: Optional[float] = None,
        sink_factory: Optional[Callable[[ControlChannel], tuple]] = None,
    ) -> ControlChannel:
        """Connect an Agent to the Manager over a latency-modelled channel.

        By default the Agent's upstream senders deliver each message over
        the channel as its own simulator event (``channel.sender``).  The
        sharded frontend passes ``sink_factory(channel)`` returning custom
        ``(heartbeat, event, notification)`` senders -- bus sinks that
        coalesce messages per delivery tick.
        """
        station_name = agent.station.name
        if control_latency_s is None:
            if self.topology is not None and station_name in self.topology.stations:
                control_latency_s = self.topology.control_latency(station_name)
            else:
                control_latency_s = 0.01
        channel = ControlChannel(self.simulator, latency_s=control_latency_s, name=f"ctl-{station_name}")
        self.agents[station_name] = agent
        self.channels[station_name] = channel
        if sink_factory is not None:
            heartbeat_sink, event_sink, notification_sink = sink_factory(channel)
        else:
            heartbeat_sink = channel.sender(self.receive_heartbeat)
            event_sink = channel.sender(self.receive_client_event)
            notification_sink = channel.sender(self.receive_notification)
        agent.connect_to_manager(
            channel,
            heartbeat_sink=heartbeat_sink,
            event_sink=event_sink,
            notification_sink=notification_sink,
        )
        self.health.register(station_name, self.simulator.now)
        agent.start()
        return channel

    def start(self) -> "GNFManager":
        """Start the schedule evaluator (agents start when registered)."""
        self.scheduler.start()
        return self

    # ------------------------------------------------------ hand-off (leaf)

    def accept_placed_assignment(self, assignment: Assignment) -> None:
        """Register and deploy an assignment that placement admitted.

        Called by this Manager's own attach API, or by the sharded frontend,
        which runs global placement/admission itself and hands each admitted
        assignment to the leaf owning the chosen station.
        """
        self.assignments[assignment.assignment_id] = assignment
        self._dispatch_deployment(assignment)
        self.scheduler.add(assignment.assignment_id, assignment.schedule, currently_active=True)

    def _withdraw(self, assignment: Assignment) -> None:
        """Detach path: remove the chain from its station and stop
        scheduling it."""
        agent = self.agent(assignment.station_name)
        self.channels[assignment.station_name].call(agent.remove_chain, assignment.assignment_id)
        # A split embedding also owns containers on its remote-segment
        # stations: remove them too or a detach leaks them.
        self._teardown_remote_segments(assignment)
        self.scheduler.remove(assignment.assignment_id)

    def _dispatch_deployment(
        self,
        assignment: Assignment,
        nf_states: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        agent = self.agent(assignment.station_name)
        channel = self.channels[assignment.station_name]
        assignment.state = AssignmentState.DEPLOYING
        assignment.segments_pending = max(1, len(assignment.segments))

        def deployment_complete(deployment: ChainDeployment, success: bool, detail: str) -> None:
            # Report back to the Manager over the control channel.
            channel.call(self._deployment_finished, assignment.assignment_id, success, detail, deployment)

        channel.call(
            agent.deploy_chain,
            assignment.assignment_id,
            assignment.client_ip,
            assignment.head_chain(),
            assignment.selector,
            nf_states,
            deployment_complete,
        )
        if assignment.is_split:
            dispatch_remote_segments(self.network, assignment, self._deployment_finished)

    def _deployment_finished(
        self,
        assignment_id: str,
        success: bool,
        detail: str,
        deployment: ChainDeployment,
    ) -> None:
        assignment = self.assignments.get(assignment_id)
        if assignment is None or assignment.state is AssignmentState.REMOVED:
            # A detach raced the deployment: the boot was cancelled (or its
            # chain already torn down); never resurrect the assignment.
            return
        if assignment.state is AssignmentState.FAILED:
            # A sibling segment already failed the assignment (and tore every
            # part down); late reports must not flip the state back.
            return
        if not success:
            assignment.state = AssignmentState.FAILED
            assignment.failure_reason = detail
            if assignment.is_split:
                # A chain with a hole in it must not keep half its NFs
                # running: remove the head and every remote segment (parts
                # still booting roll back via their cancelled flag).
                self._teardown_split_assignment(assignment)
            return
        assignment.segments_pending = max(0, assignment.segments_pending - 1)
        if assignment.segments_pending == 0 and assignment.state is AssignmentState.DEPLOYING:
            assignment.state = AssignmentState.ACTIVE
            assignment.active_at = self.simulator.now

    def _teardown_split_assignment(self, assignment: Assignment) -> None:
        agent = self.agents.get(assignment.station_name)
        if agent is not None:
            self.channels[assignment.station_name].call(
                agent.remove_chain, assignment.assignment_id
            )
        self._teardown_remote_segments(assignment)

    def _teardown_remote_segments(self, assignment: Assignment) -> None:
        if assignment.is_split:
            teardown_remote_segments(self.network, assignment)

    # ----------------------------------------------------- scheduler hooks

    def _enable_assignment(self, assignment_id: str) -> None:
        assignment = self.assignments.get(assignment_id)
        if assignment is None or assignment.state is AssignmentState.REMOVED:
            return
        agent = self.agents.get(assignment.station_name)
        if agent is not None:
            self.channels[assignment.station_name].call(agent.set_chain_active, assignment_id, True)

    def _disable_assignment(self, assignment_id: str) -> None:
        assignment = self.assignments.get(assignment_id)
        if assignment is None or assignment.state is AssignmentState.REMOVED:
            return
        agent = self.agents.get(assignment.station_name)
        if agent is not None:
            self.channels[assignment.station_name].call(agent.set_chain_active, assignment_id, False)

    # ------------------------------------------------------ bundle upgrades

    def stage_chain_upgrade(
        self,
        assignment_id: str,
        new_chain: ServiceChain,
        on_complete: Callable[[bool, str], None],
    ) -> None:
        """Boot the replacement chain next to the live one, unsteered.

        The staged deployment lives under :func:`upgrade_staging_id` on the
        assignment's home station; ``on_complete(success, detail)`` reports
        back over the control channel once it is booted (or failed).
        """
        assignment = self.assignments.get(assignment_id)
        if assignment is None:
            self.simulator.schedule(0.0, on_complete, False, "unknown assignment")
            return
        agent = self.agent(assignment.station_name)
        channel = self.channels[assignment.station_name]

        def staged_complete(deployment: ChainDeployment, success: bool, detail: str) -> None:
            channel.call(on_complete, success, detail)

        channel.call(
            agent.deploy_chain,
            upgrade_staging_id(assignment_id),
            assignment.client_ip,
            new_chain,
            assignment.selector,
            None,
            staged_complete,
            False,
        )

    def suspend_chain_upgrade(
        self, assignment_id: str, on_suspended: Callable[[float], None]
    ) -> None:
        """Pull the live chain's steering (stateful upgrade freeze start)."""
        assignment = self.assignments.get(assignment_id)
        if assignment is None:
            return
        agent = self.agents.get(assignment.station_name)
        if agent is not None:
            self.channels[assignment.station_name].call(
                agent.suspend_chain, assignment_id, on_suspended
            )

    def cutover_chain_upgrade(
        self,
        assignment_id: str,
        new_chain: ServiceChain,
        final_states: Optional[List[Dict[str, object]]],
        on_done: Callable[[bool, str], None],
    ) -> None:
        """Swap the staged replacement in for the live chain atomically.

        The replacement inherits the steering state the scheduler last
        reconciled for this assignment, so an upgrade racing a disable
        window comes up unsteered.  On success the Manager's assignment
        record tracks the new chain; the result is reported back over the
        channel either way.
        """
        assignment = self.assignments.get(assignment_id)
        if assignment is None:
            self.simulator.schedule(0.0, on_done, False, "unknown assignment")
            return
        agent = self.agent(assignment.station_name)
        channel = self.channels[assignment.station_name]
        desired_active = self.scheduler.currently_active(assignment_id)

        def finished(success: bool, detail: str) -> None:
            if success:
                assignment.swap_chain(new_chain)
            channel.call(on_done, success, detail)

        channel.call(
            agent.cutover_chain,
            assignment_id,
            upgrade_staging_id(assignment_id),
            final_states,
            desired_active,
            finished,
        )

    # ----------------------------------------------------- agent -> manager

    def receive_heartbeat(self, heartbeat: AgentHeartbeat) -> None:
        """Process one Agent heartbeat (liveness, hotspots, latest stats)."""
        self.heartbeats_processed += 1
        self.last_heartbeat[heartbeat.station_name] = heartbeat
        self.health.record(heartbeat.station_name, self.simulator.now)
        self.hotspots.observe(heartbeat.station_name, self.simulator.now, heartbeat.resources)

    def receive_heartbeat_batch(self, heartbeats: List[AgentHeartbeat]) -> None:
        """Process a coalesced burst of heartbeats delivered in one tick.

        Semantically identical to calling :meth:`receive_heartbeat` once per
        message at the same simulated instant -- this is the ControlBus entry
        point, kept separate so a batch pays the dispatch overhead once.
        """
        self.heartbeats_processed += len(heartbeats)
        now = self.simulator.now
        last_heartbeat = self.last_heartbeat
        record = self.health.record
        observe = self.hotspots.observe
        for heartbeat in heartbeats:
            station_name = heartbeat.station_name
            last_heartbeat[station_name] = heartbeat
            record(station_name, now)
            observe(station_name, now, heartbeat.resources)

    def receive_client_event(self, event: ClientEvent) -> None:
        """Process a client (dis)connection reported by an Agent."""
        self.client_events_processed += 1
        track_client_event(self, event)

    def receive_notification(self, message: NFNotificationMessage) -> None:
        """Store an NF notification relayed by an Agent."""
        self.notifications.publish(
            ProviderNotification(
                received_at=self.simulator.now,
                raised_at=message.time,
                station_name=message.station_name,
                nf_name=message.nf_name,
                severity=message.severity,
                message=message.message,
                details=dict(message.details),
            )
        )

    def receive_notification_batch(self, messages: List[NFNotificationMessage]) -> None:
        """Store a coalesced burst of NF notifications (ControlBus entry point)."""
        now = self.simulator.now
        self.notifications.publish_batch(
            [
                ProviderNotification(
                    received_at=now,
                    raised_at=message.time,
                    station_name=message.station_name,
                    nf_name=message.nf_name,
                    severity=message.severity,
                    message=message.message,
                    details=dict(message.details),
                )
                for message in messages
            ]
        )

    # ----------------------------------------------------- sharding hooks

    def assignment_station_changed(self, assignment: Assignment, old_station: str) -> None:
        """Hook invoked by the migration engine after a migration moved
        ``assignment`` to a new home station.

        A single Manager has nothing to do -- all its state is keyed by
        assignment id, not station.  The sharded frontend overrides this to
        hand the assignment off between leaves.
        """

    def release_assignment(self, assignment_id: str) -> bool:
        """Drop an assignment from this shard's tables for a cross-shard
        handoff; returns the schedule-active flag the adopting shard must
        resume from."""
        self.assignments.pop(assignment_id, None)
        active = self.scheduler.pop(assignment_id)
        return True if active is None else active

    def adopt_assignment(self, assignment: Assignment, schedule_active: bool = True) -> None:
        """Take ownership of an assignment handed off by another shard."""
        self.assignments[assignment.assignment_id] = assignment
        self.scheduler.add(assignment.assignment_id, assignment.schedule, currently_active=schedule_active)

    # -------------------------------------------------------------- queries

    def station_views(self, client_station: Optional[str] = None) -> List[StationView]:
        """What the placement strategy sees for every registered station.

        Resource figures come from the station's latest heartbeat (the live
        runtime before the first one arrives); chain density and uplink
        utilization are read from the Agent and topology directly.  Views
        are value objects -- strategies may score them freely.
        """
        views: List[StationView] = []
        now = self.simulator.now
        for station_name, agent in self.agents.items():
            heartbeat = self.last_heartbeat.get(station_name)
            resources = heartbeat.resources if heartbeat else agent.runtime.utilization()
            control_latency = self.channels[station_name].latency_s
            if self.topology is not None and client_station is not None:
                client_latency = self.topology.station_to_station_latency(client_station, station_name)
            else:
                client_latency = 0.0 if station_name == client_station else 0.01
            uplink_utilization = 0.0
            if self.topology is not None and now > 0:
                uplink = self.topology.uplink_links.get(station_name)
                if uplink is not None and uplink.bandwidth_bps > 0:
                    uplink_utilization = min(
                        1.0, uplink.total_stats.tx_bytes * 8 / (uplink.bandwidth_bps * now)
                    )
            views.append(
                StationView(
                    name=station_name,
                    free_memory_mb=float(resources.get("free_memory_mb", 0.0)),
                    memory_utilization=float(resources.get("memory_utilization", 0.0)),
                    running_nfs=int(resources.get("containers_running", 0)),
                    control_latency_s=control_latency,
                    client_latency_s=client_latency,
                    allocatable_memory_mb=float(resources.get("allocatable_memory_mb", 0.0)),
                    chains=len(agent.deployments),
                    uplink_utilization=uplink_utilization,
                )
            )
        return views

    def overview(self) -> Dict[str, object]:
        """The network-wide summary the UI's landing page shows."""
        now = self.simulator.now
        active_assignments = [
            a for a in self.assignments.values() if a.state is AssignmentState.ACTIVE
        ]
        total_nfs = sum(len(a.chain) for a in active_assignments)
        return {
            "time": now,
            "online_stations": list(self.health.online_stations(now)),
            "offline_stations": list(self.health.offline_stations(now)),
            "connected_clients": len(self.client_locations),
            "assignments": len(self.assignments),
            "active_assignments": len(active_assignments),
            "enabled_nfs": total_nfs,
            "hotspot_stations": self.hotspots.hotspot_stations(),
            "notifications": self.notifications.summary(),
            "heartbeats_processed": self.heartbeats_processed,
        }
