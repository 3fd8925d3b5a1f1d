"""The GNF Agent: the lightweight per-station daemon.

Section 3: "A GNF Agent is a lightweight daemon running on the stations
managed by the provider.  It is responsible for the instantiation of the NFs
on the hosting platform, notifying the Manager of clients' (dis)connection
and reporting periodically the state of the device. ...  Apart from starting
and stopping NFs, the Agent is responsible for setting up the containers'
local virtual interfaces.  All containers are connected to the local software
switch by two virtual Ethernet pairs (for ingress/egress traffic,
respectively)."

Concretely, this Agent:

* owns the station's :class:`~repro.containers.runtime.ContainerRuntime`,
* pulls NF images from the central repository when they are not cached,
* creates one container per chain position, wires two veth pairs into the
  station switch and installs the steering flow rules that push the client's
  selected traffic through the chain (and removes them atomically on
  detach),
* watches the station's cells for client (dis)connections and reports them
  to the Manager,
* sends periodic heartbeats with resource, switch and edge-cache statistics,
* relays NF notifications to the Manager, and
* checkpoints chains, and deploys them with imported state, on behalf of
  the migration engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.containers.checkpoint import Checkpoint
from repro.containers.cgroups import AdmissionError, ResourceAccount, ResourceRequest
from repro.containers.container import Container
from repro.containers.runtime import ContainerRuntime, RuntimeTimings
from repro.core.api import AgentHeartbeat, ClientEvent, NFNotificationMessage
from repro.core.chain import ServiceChain
from repro.core.errors import DeploymentError
from repro.core.policy import TrafficSelector
from repro.core.repository import NFRepository
from repro.netem.addressing import MACAllocator
from repro.netem.flowtable import Action, Match
from repro.netem.host import Interface, VethPair
from repro.netem.packet import Packet
from repro.netem.simulator import PeriodicTask, Simulator
from repro.netem.topology import CHAIN_PRIORITY, EdgeStation
from repro.nfs import create_nf
from repro.nfs.base import Direction, NetworkFunction, NFNotification, ProcessingContext
from repro.telemetry.collector import ResourceCollector
from repro.wireless.cell import Cell
from repro.wireless.client import MobileClient

#: Reference per-core clock the NF ``per_packet_cpu_us`` figures assume.
REFERENCE_CPU_MHZ = 3000.0

_deployment_counter = itertools.count(1)


class DeployedNF:
    """One NF container wired into the station switch via two veth pairs."""

    def __init__(
        self,
        simulator: Simulator,
        station: EdgeStation,
        runtime: ContainerRuntime,
        container: Container,
        nf: NetworkFunction,
        client_ip: str,
        cpu_scale: float,
    ) -> None:
        self.simulator = simulator
        self.station = station
        self.runtime = runtime
        self.container = container
        self.nf = nf
        self.client_ip = client_ip
        self.cpu_scale = cpu_scale
        self.ingress_port: Optional[int] = None
        self.egress_port: Optional[int] = None
        self._egress_container_iface: Optional[Interface] = None
        self.packets_processed = 0
        container.network_function = nf

    # --------------------------------------------------------------- wiring

    def wire(self, mac_allocator: MACAllocator) -> None:
        """Create both veth pairs and plug their switch sides into the switch."""
        base = f"{self.container.name}"
        ingress = VethPair(self.simulator, f"{base}-in", mac_allocator.allocate(), mac_allocator.allocate())
        egress = VethPair(self.simulator, f"{base}-out", mac_allocator.allocate(), mac_allocator.allocate())
        ingress_port = self.station.switch.add_port(ingress.end_a, no_flood=True)
        egress_port = self.station.switch.add_port(egress.end_a, no_flood=True)
        ingress.end_b.delivery_override = self._on_ingress
        self.ingress_port = ingress_port.number
        self.egress_port = egress_port.number
        self._egress_container_iface = egress.end_b
        self.container.ingress_port = ingress_port.number
        self.container.egress_port = egress_port.number
        self.container.network_namespace.add_interface(ingress.end_b.name)
        self.container.network_namespace.add_interface(egress.end_b.name)

    def unwire(self) -> None:
        """Unplug and cut both veth pairs (called on teardown/migration).

        Once cut, no pair points back at this deployment, so refcounting
        frees it, its container and its NF when the detach finishes.
        """
        switch = self.station.switch
        for number in (self.ingress_port, self.egress_port):
            port = switch.ports.get(number)
            if port is not None:
                port.interface.cut()
                switch.remove_port(number)

    # ------------------------------------------------------------ dataplane

    def _on_ingress(self, packet: Packet, _interface: Interface) -> None:
        """Packet steered into the container by a flow rule."""
        if not self.container.is_running:
            return
        processing_delay = self.nf.per_packet_cpu_us * 1e-6 * self.cpu_scale
        self.runtime.charge_cpu(self.container.name, processing_delay)
        self.simulator.call_later(processing_delay, self._finish_processing, packet)

    def _finish_processing(self, packet: Packet) -> None:
        if not self.container.is_running or self._egress_container_iface is None:
            return
        direction_tag = packet.metadata.get("gnf_dir")
        direction = Direction.DOWNSTREAM if direction_tag == "down" else Direction.UPSTREAM
        context = ProcessingContext(
            now=self.simulator.now,
            direction=direction,
            client_ip=self.client_ip,
            station_name=self.station.name,
        )
        outputs = self.nf.process(packet, context)
        self.packets_processed += 1
        for output in outputs:
            # Re-classify each emitted packet: anything addressed to the client
            # heads downstream, everything else continues upstream.
            heading_down = output.ip is not None and output.ip.dst == self.client_ip
            output.metadata["gnf_dir"] = "down" if heading_down else "up"
            self._egress_container_iface.send(output)


@dataclass
class ChainDeployment:
    """A chain instantiated for one client on this station."""

    assignment_id: str
    client_ip: str
    chain: ServiceChain
    selector: TrafficSelector
    deployed_nfs: List[DeployedNF] = field(default_factory=list)
    requested_at: float = 0.0
    active_at: Optional[float] = None
    rules_installed: bool = False
    #: Steering state requested by the scheduler.  While the deployment is
    #: still booting this is only recorded; it is applied once the chain is
    #: complete, so a disable racing an in-flight deployment can never leave
    #: rules installed for a half-built chain (or vice versa).
    desired_active: bool = True
    #: Set by :meth:`GNFAgent.remove_chain` when the chain is torn down while
    #: still booting: the deploy process rolls back at its next resume
    #: instead of finishing a chain nobody tracks any more (which used to
    #: leak containers and steering rules when a migration fallback
    #: re-deployed the same assignment id in the same tick).
    cancelled: bool = False

    @property
    def cookie(self) -> str:
        return f"chain:{self.assignment_id}"

    @property
    def deploy_latency_s(self) -> Optional[float]:
        if self.active_at is None:
            return None
        return self.active_at - self.requested_at

    def nf_by_type(self, nf_type: str) -> Optional[DeployedNF]:
        for deployed in self.deployed_nfs:
            if deployed.nf.nf_type == nf_type:
                return deployed
        return None


class GNFAgent:
    """The per-station GNF daemon."""

    def __init__(
        self,
        simulator: Simulator,
        station: EdgeStation,
        repository: NFRepository,
        pull_bandwidth_bps: float = 100e6,
        heartbeat_interval_s: float = 2.0,
    ) -> None:
        self.simulator = simulator
        self.station = station
        self.repository = repository
        self.heartbeat_interval_s = heartbeat_interval_s
        resources = ResourceAccount(
            cpu_mhz=station.profile.cpu_mhz,
            memory_mb=station.profile.memory_mb,
            system_reserved_mb=min(48.0, station.profile.memory_mb * 0.3),
        )
        self.runtime = ContainerRuntime(
            simulator,
            name=f"{station.name}-runtime",
            resources=resources,
            registry=repository.registry,
            timings=RuntimeTimings.for_station_profile(station.profile.name),
            pull_bandwidth_bps=pull_bandwidth_bps,
        )
        station.runtime = self.runtime
        station.agent = self
        self.cpu_scale = max(0.25, REFERENCE_CPU_MHZ / station.profile.cpu_mhz)
        self.mac_allocator = MACAllocator(prefix=0x06)
        self.deployments: Dict[str, ChainDeployment] = {}
        self.connected_clients: Dict[str, str] = {}  # client_ip -> cell name
        self.collector = ResourceCollector(simulator)
        self.collector.add_source("fastpath", self.station.switch.flow_cache.stats)
        self.collector.add_source("flows", self._flow_tracker_metrics)
        self.collector.add_source("cache", self._cache_metrics)
        # Wired to the Manager by GNFManager.register_agent().
        self._manager_heartbeat_sink: Optional[Callable[[AgentHeartbeat], None]] = None
        self._manager_event_sink: Optional[Callable[[ClientEvent], None]] = None
        self._manager_notification_sink: Optional[Callable[[NFNotificationMessage], None]] = None
        self._heartbeat_task: Optional[PeriodicTask] = None
        self.heartbeats_sent = 0
        self.deployments_completed = 0
        self.deployments_failed = 0

    def _flow_tracker_metrics(self) -> Dict[str, float]:
        """Aggregate flow-tracker statistics across the station's running NFs.

        The collector tick doubles as the station's housekeeping clock:
        idle flows are expired here on every sample, so soak runs stop
        leaking tracker entries and ``flows.expired_flows`` finally moves.
        """
        now = self.simulator.now
        totals: Dict[str, float] = {
            "active_flows": 0.0,
            "total_packets": 0.0,
            "total_bytes": 0.0,
            "expired_flows": 0.0,
            "trackers": 0.0,
        }
        for container in self.runtime.running_containers():
            tracker = getattr(container.network_function, "tracker", None)
            if tracker is None or not hasattr(tracker, "snapshot"):
                continue
            tracker.expire_idle(now)
            totals["trackers"] += 1.0
            for key, value in tracker.snapshot().items():
                totals[key] = totals.get(key, 0.0) + float(value)
        return totals

    def _cache_metrics(self) -> Dict[str, float]:
        """Aggregate edge-cache counters across the station's running NFs.

        Backhaul savings are a per-station property (the paper's motivating
        case for edge caches), so the rollup tree carries them like
        ``flows.*``: every NF exposing cache counters contributes to the
        station's ``cache.*`` sample.
        """
        totals: Dict[str, float] = {
            "caches": 0.0,
            "hits": 0.0,
            "misses": 0.0,
            "evictions": 0.0,
            "expirations": 0.0,
            "admission_rejects": 0.0,
            "bytes_served_from_cache": 0.0,
            "backhaul_bytes_saved": 0.0,
            "objects": 0.0,
        }
        for container in self.runtime.running_containers():
            nf = container.network_function
            if nf is None or not hasattr(nf, "bytes_served_from_cache"):
                continue
            totals["caches"] += 1.0
            totals["hits"] += float(getattr(nf, "hits", 0))
            totals["misses"] += float(getattr(nf, "misses", 0))
            totals["evictions"] += float(getattr(nf, "evictions", 0))
            totals["expirations"] += float(getattr(nf, "expirations", 0))
            totals["admission_rejects"] += float(getattr(nf, "admission_rejects", 0))
            totals["bytes_served_from_cache"] += float(nf.bytes_served_from_cache)
            totals["backhaul_bytes_saved"] += float(getattr(nf, "backhaul_bytes_saved", 0))
            totals["objects"] += float(getattr(nf, "object_count", 0))
        return totals

    # ----------------------------------------------------------- manager link

    def connect_to_manager(
        self,
        heartbeat_sink: Callable[[AgentHeartbeat], None],
        event_sink: Callable[[ClientEvent], None],
        notification_sink: Callable[[NFNotificationMessage], None],
    ) -> None:
        """Attach the upstream message senders.

        Each sink is a *sender* that owns its own transport: in the default
        deployment it delivers over the station's control channel as one
        simulator event per message (``ControlChannel.sender``); under a
        sharded Manager it is a ControlBus sink that coalesces messages per
        delivery tick.
        """
        self._manager_heartbeat_sink = heartbeat_sink
        self._manager_event_sink = event_sink
        self._manager_notification_sink = notification_sink

    def start(self) -> "GNFAgent":
        """Start heartbeats and telemetry collection."""
        if self._heartbeat_task is None:
            self._heartbeat_task = self.simulator.every(self.heartbeat_interval_s, self.send_heartbeat)
        self.collector.start()
        return self

    def stop(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.stop()
            self._heartbeat_task = None
        self.collector.stop()

    @property
    def is_running(self) -> bool:
        """Whether the daemon is up (the fault injector stops it on a
        station crash and restarts it on recovery)."""
        return self._heartbeat_task is not None

    # -------------------------------------------------------------- cells

    def watch_cell(self, cell: Cell) -> None:
        """Subscribe to a cell's association events (client connect/disconnect)."""
        cell.on_association(self._on_client_connected)
        cell.on_disassociation(self._on_client_disconnected)

    def _on_client_connected(self, client: MobileClient, cell: Cell) -> None:
        self.connected_clients[client.ip] = cell.name
        self._send_client_event(client, "connected")

    def _on_client_disconnected(self, client: MobileClient, cell: Cell) -> None:
        self.connected_clients.pop(client.ip, None)
        self._send_client_event(client, "disconnected")

    def _send_client_event(self, client: MobileClient, event: str) -> None:
        if self._manager_event_sink is None:
            return
        message = ClientEvent(
            station_name=self.station.name,
            client_ip=client.ip,
            client_name=client.name,
            event=event,
            time=self.simulator.now,
        )
        self._manager_event_sink(message)

    # ---------------------------------------------------------- deployment

    def deploy_chain(
        self,
        assignment_id: str,
        client_ip: str,
        chain: ServiceChain,
        selector: Optional[TrafficSelector] = None,
        nf_states: Optional[Sequence[Dict[str, object]]] = None,
        on_complete: Optional[Callable[[ChainDeployment, bool, str], None]] = None,
        install_steering: bool = True,
    ) -> ChainDeployment:
        """Instantiate a chain for a client's selected traffic.

        The deployment runs as a simulated process (image pulls, container
        boots).  ``on_complete(deployment, success, detail)`` fires when the
        chain is active (steering rules installed) or when it failed.

        ``install_steering=False`` boots the containers without any flow
        rules: that is how a split embedding's *remote* segments deploy --
        the client is not attached to this station, so the segment must not
        claim the station's cell/uplink steering for that client's traffic.
        """
        deployment = ChainDeployment(
            assignment_id=assignment_id,
            client_ip=client_ip,
            chain=chain,
            selector=selector or TrafficSelector.all_traffic(),
            requested_at=self.simulator.now,
            desired_active=install_steering,
        )
        self.deployments[assignment_id] = deployment
        self.simulator.process(
            self._deploy_process(deployment, list(nf_states or []), on_complete),
            name=f"deploy-{assignment_id}",
        )
        return deployment

    def _deploy_process(
        self,
        deployment: ChainDeployment,
        nf_states: List[Dict[str, object]],
        on_complete: Optional[Callable[[ChainDeployment, bool, str], None]],
    ):
        try:
            for index, spec in enumerate(deployment.chain.specs):
                entry = self.repository.lookup(spec.nf_type)
                image, pull_time = self.runtime.ensure_image(entry.image_reference)
                if pull_time > 0:
                    yield pull_time
                if deployment.cancelled:
                    raise DeploymentError("deployment cancelled")
                container_name = (
                    f"{deployment.assignment_id}-{spec.nf_type}-{index}"
                    f"-{next(_deployment_counter):04d}"
                )
                # A declared per-NF memory demand overrides the image's
                # default sizing, so the runtime admits exactly what the
                # placement engine budgeted for this NF.
                requirements = spec.requirements
                request = None
                if requirements is not None and requirements.memory_mb is not None:
                    request = ResourceRequest(
                        memory_mb=requirements.memory_mb
                        + self.runtime.per_container_overhead_mb,
                        cpu_shares=image.default_cpu_shares,
                    )
                container = self.runtime.create(
                    image,
                    name=container_name,
                    request=request,
                    labels={
                        "client": deployment.client_ip,
                        "assignment": deployment.assignment_id,
                        "nf_type": spec.nf_type,
                    },
                )
                config = dict(entry.default_config)
                config.update(spec.config)
                nf = create_nf(entry.nf_class, name=spec.instance_name or container_name, **config)
                if index < len(nf_states) and nf_states[index]:
                    nf.import_state(nf_states[index])
                nf.notification_sink = self._relay_nf_notification
                deployed = DeployedNF(
                    simulator=self.simulator,
                    station=self.station,
                    runtime=self.runtime,
                    container=container,
                    nf=nf,
                    client_ip=deployment.client_ip,
                    cpu_scale=self.cpu_scale,
                )
                # Track the NF before the boot yield so a cancellation (or a
                # failure) mid-boot rolls this container back too.
                deployment.deployed_nfs.append(deployed)
                boot_time = self.runtime.start(container)
                yield boot_time
                if deployment.cancelled:
                    raise DeploymentError("deployment cancelled")
                deployed.wire(self.mac_allocator)
        except (AdmissionError, DeploymentError, KeyError) as error:
            self._rollback(deployment)
            self.deployments_failed += 1
            if on_complete is not None:
                on_complete(deployment, False, str(error))
            return

        # Honour the steering state the scheduler last asked for: a disable
        # that raced the deployment leaves the chain booted but unsteered.
        if deployment.desired_active:
            self.install_chain_rules(deployment)
        deployment.active_at = self.simulator.now
        self.deployments_completed += 1
        if on_complete is not None:
            on_complete(deployment, True, "deployed")

    def _rollback(self, deployment: ChainDeployment) -> None:
        """Undo a partially completed deployment."""
        self.remove_chain_rules(deployment)
        for deployed in deployment.deployed_nfs:
            deployed.unwire()
            if not deployed.container.is_terminal:
                self.runtime.stop(deployed.container)
        deployment.deployed_nfs.clear()
        # A cancelled deployment may already have been replaced under the
        # same assignment id (migration fallback): only drop the table entry
        # if it is still this very deployment.
        if self.deployments.get(deployment.assignment_id) is deployment:
            self.deployments.pop(deployment.assignment_id, None)
        self.flush_client_flows(deployment.client_ip)

    # ----------------------------------------------------------- flow rules

    def install_chain_rules(self, deployment: ChainDeployment) -> None:
        """Install the steering rules pushing the client's traffic through the chain."""
        if deployment.rules_installed or not deployment.deployed_nfs:
            return
        flow_table = self.station.switch.flow_table
        cookie = deployment.cookie
        selector = deployment.selector
        client_ip = deployment.client_ip
        chain = deployment.deployed_nfs
        first, last = chain[0], chain[-1]
        assert self.station.uplink_port is not None

        # Upstream entry: client traffic arriving from any cell port.
        for cell_port in self.station.cell_ports.values():
            flow_table.add(
                priority=CHAIN_PRIORITY,
                match=selector.upstream_match(client_ip, in_port=cell_port),
                actions=[Action.set_metadata("gnf_dir", "up"), Action.output(first.ingress_port)],
                cookie=cookie,
            )
        # Upstream continuation: from each NF's egress to the next NF / the uplink.
        for index, deployed in enumerate(chain):
            next_port = (
                chain[index + 1].ingress_port if index + 1 < len(chain) else self.station.uplink_port
            )
            flow_table.add(
                priority=CHAIN_PRIORITY,
                match=Match(in_port=deployed.egress_port, metadata=(("gnf_dir", "up"),)),
                actions=[Action.output(next_port)],
                cookie=cookie,
            )
        # Downstream entry: traffic for the client arriving from the uplink
        # enters the chain at the last NF (reverse traversal).
        flow_table.add(
            priority=CHAIN_PRIORITY,
            match=selector.downstream_match(client_ip, in_port=self.station.uplink_port),
            actions=[Action.set_metadata("gnf_dir", "down"), Action.output(last.ingress_port)],
            cookie=cookie,
        )
        # Downstream continuation towards the first NF; after the first NF the
        # packet falls through to the client's association rule.
        for index in range(len(chain) - 1, 0, -1):
            flow_table.add(
                priority=CHAIN_PRIORITY,
                match=Match(in_port=chain[index].egress_port, metadata=(("gnf_dir", "down"),)),
                actions=[Action.output(chain[index - 1].ingress_port)],
                cookie=cookie,
            )
        deployment.rules_installed = True

    def remove_chain_rules(self, deployment: ChainDeployment) -> int:
        """Remove every steering rule belonging to a deployment.

        The rule removal bumps the flow-table generation, so every cached
        fast-path verdict on this switch self-invalidates; the client's own
        entries are additionally flushed eagerly so no packet already keyed
        into the cache can be replayed against the torn-down chain.
        """
        removed = self.station.switch.flow_table.remove_by_cookie(deployment.cookie)
        deployment.rules_installed = False
        if removed:
            self.flush_client_flows(deployment.client_ip)
        return removed

    def flush_client_flows(self, client_ip: str) -> int:
        """Drop every fast-path cache entry touching ``client_ip``.

        Called on chain teardown and by the migration engine after a
        migration: a stale cached verdict must never keep steering a roamed
        client's traffic into the old station's (now removed) chain.
        """
        return self.station.switch.flow_cache.flush_ip(client_ip)

    def set_chain_active(self, assignment_id: str, active: bool) -> bool:
        """Enable/disable steering without touching the containers (scheduler path)."""
        deployment = self.deployments.get(assignment_id)
        if deployment is None:
            return False
        deployment.desired_active = active
        if deployment.active_at is None:
            # Deployment still in flight: the request is recorded and applied
            # by _deploy_process when the last container is wired, so rules
            # are never installed against a partially built chain.
            return True
        if active and not deployment.rules_installed:
            self.install_chain_rules(deployment)
        elif not active and deployment.rules_installed:
            self.remove_chain_rules(deployment)
        return True

    # ------------------------------------------------------------- upgrades

    def suspend_chain(
        self,
        assignment_id: str,
        on_suspended: Optional[Callable[[float], None]] = None,
    ) -> bool:
        """Pull a chain's steering rules without touching its containers.

        Used by the stateful bundle-upgrade path: the coverage gap starts
        here (no rules means the client's traffic bypasses the chain) and
        ends when :meth:`cutover_chain` installs the replacement's rules.
        ``on_suspended`` receives the gap-start timestamp synchronously.
        """
        deployment = self.deployments.get(assignment_id)
        if deployment is None or deployment.active_at is None:
            return False
        self.remove_chain_rules(deployment)
        if on_suspended is not None:
            on_suspended(self.simulator.now)
        return True

    def cutover_chain(
        self,
        assignment_id: str,
        staged_id: str,
        final_states: Optional[Sequence[Dict[str, object]]] = None,
        desired_active: bool = True,
        on_done: Optional[Callable[[bool, str], None]] = None,
    ) -> bool:
        """Atomically replace a chain with a fully booted staged replacement.

        The staged deployment (booted unsteered under ``staged_id``) absorbs
        ``final_states``, the old chain is torn down, and the replacement is
        re-keyed to ``assignment_id`` with its steering installed in the same
        simulator event -- so a packet arriving at any instant sees either
        the old rules or the new ones, never neither (zero coverage gap).
        If the staged chain is missing, still booting, cancelled, or lost a
        container (station crash mid-upgrade), nothing is touched and the
        cutover reports failure: the upgrade orchestrator retries rather
        than half-cutting-over.
        """
        staged = self.deployments.get(staged_id)
        ready = (
            staged is not None
            and staged.active_at is not None
            and not staged.cancelled
            and bool(staged.deployed_nfs)
            and all(deployed.container.is_running for deployed in staged.deployed_nfs)
        )
        if not ready:
            if on_done is not None:
                on_done(False, "staged chain not ready")
            return False
        assert staged is not None
        for index, deployed in enumerate(staged.deployed_nfs):
            if final_states and index < len(final_states) and final_states[index]:
                deployed.nf.import_state(dict(final_states[index]))
        old = self.deployments.get(assignment_id)
        if old is not None and old is not staged:
            self.remove_chain(assignment_id)
        self.deployments.pop(staged_id, None)
        staged.assignment_id = assignment_id
        staged.desired_active = desired_active
        self.deployments[assignment_id] = staged
        if desired_active:
            self.install_chain_rules(staged)
        elif staged.rules_installed:
            self.remove_chain_rules(staged)
        if on_done is not None:
            on_done(True, "cut-over")
        return True

    # -------------------------------------------------------------- removal

    def remove_chain(
        self,
        assignment_id: str,
        on_complete: Optional[Callable[[str], None]] = None,
    ) -> float:
        """Tear down a deployment; returns the estimated teardown duration."""
        deployment = self.deployments.pop(assignment_id, None)
        if deployment is None:
            if on_complete is not None:
                self.simulator.schedule(0.0, on_complete, assignment_id)
            return 0.0
        if deployment.active_at is None:
            # Still booting: flag it and let the deploy process roll back the
            # containers at its next resume (it owns the in-flight boot).
            deployment.cancelled = True
            if on_complete is not None:
                self.simulator.schedule(0.0, on_complete, assignment_id)
            return 0.0
        self.remove_chain_rules(deployment)
        longest_stop = 0.0
        for deployed in deployment.deployed_nfs:
            deployed.unwire()
            if not deployed.container.is_terminal:
                longest_stop = max(longest_stop, self.runtime.stop(deployed.container))
        if on_complete is not None:
            self.simulator.schedule(longest_stop, on_complete, assignment_id)
        return longest_stop

    # ----------------------------------------------------------- checkpoint

    def export_chain_state(self, assignment_id: str) -> List[Dict[str, object]]:
        """Snapshot every NF's exported state (used by stateful/pre-copy migration)."""
        deployment = self.deployments.get(assignment_id)
        if deployment is None:
            return []
        return [deployed.nf.export_state() for deployed in deployment.deployed_nfs]

    def checkpoint_chain(self, assignment_id: str) -> Tuple[List[Checkpoint], float]:
        """Checkpoint every container of a deployment; returns (checkpoints, duration)."""
        deployment = self.deployments.get(assignment_id)
        if deployment is None:
            return [], 0.0
        checkpoints: List[Checkpoint] = []
        total_duration = 0.0
        for deployed in deployment.deployed_nfs:
            if not deployed.container.is_running:
                continue
            checkpoint, duration = self.runtime.checkpoint(deployed.container)
            checkpoints.append(checkpoint)
            total_duration += duration
        return checkpoints, total_duration

    # ------------------------------------------------------------ telemetry

    def send_heartbeat(self) -> None:
        """Build and send the periodic station report."""
        if self._manager_heartbeat_sink is None:
            return
        heartbeat = AgentHeartbeat(
            station_name=self.station.name,
            time=self.simulator.now,
            resources=self.runtime.utilization(),
            switch={key: float(value) for key, value in self.station.switch.summary().items()},
            connected_clients=sorted(self.connected_clients),
            cache=self._cache_metrics(),
        )
        self.heartbeats_sent += 1
        self._manager_heartbeat_sink(heartbeat)

    def _relay_nf_notification(self, notification: NFNotification) -> None:
        """Immediately forward an NF notification to the Manager."""
        if self._manager_notification_sink is None:
            return
        message = NFNotificationMessage(
            station_name=self.station.name,
            nf_name=notification.nf_name,
            severity=notification.severity,
            message=notification.message,
            time=notification.time,
            details=dict(notification.details),
        )
        self._manager_notification_sink(message)

    # --------------------------------------------------------------- status

    def deployment_for_client(self, client_ip: str) -> Optional[ChainDeployment]:
        for deployment in self.deployments.values():
            if deployment.client_ip == client_ip:
                return deployment
        return None

    def status(self) -> Dict[str, object]:
        """Local status document (also used by the UI's station view)."""
        return {
            "station": self.station.name,
            "profile": self.station.profile.name,
            "resources": self.runtime.utilization(),
            "switch": self.station.switch.summary(),
            "fastpath": self.station.switch.flow_cache.stats(),
            "deployments": {
                assignment_id: {
                    "client": deployment.client_ip,
                    "chain": deployment.chain.nf_types,
                    "active": deployment.rules_installed,
                    "deploy_latency_s": deployment.deploy_latency_s,
                }
                for assignment_id, deployment in self.deployments.items()
            },
            "connected_clients": sorted(self.connected_clients),
            "heartbeats_sent": self.heartbeats_sent,
        }
