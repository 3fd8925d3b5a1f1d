"""Memory footprint per simulated client.

A roaming population is bounded by what one client costs to emulate, so the
bytes each added bulk client leaves allocated are pinned here: the same
storm shape (uploaders over 8 stations, hybrid mode) is built at two sizes,
advanced past the point where every flow is running, and the difference in
``tracemalloc``-retained bytes is divided by the difference in clients.  The
same two runs are then finalized, and the peak ``finalize()`` reaches above
what the run retained is pinned the same way: the digest must stream the
per-client sections, never hold one whole, and neither the digest's
per-entry hashes nor ``workload_stats`` keep an object per client.

Churn is pinned too: a chain attached to one client and detached again
must leave (almost) nothing behind once the detach completes.  Refcounting
alone frees the deployment -- its ``DeployedNF``, container, NF and veth
pairs -- and the retained bytes after 1 000 vs 100 attach/detach cycles are
bounded per cycle.

``python tools/footprint.py`` prints these figures and the source lines that
hold the retained bytes and what ``finalize()`` leaves allocated, from the
same storm and the same ``measure()``, and the lines that hold the bytes
each churn cycle retains, from the same ``measure_churn()``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import tracemalloc
import weakref
from collections.abc import Mapping
from typing import NamedTuple, Optional, Tuple

from repro.core.chain import ServiceChain
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.host import Interface
from repro.netem.link import Link, LinkStats
from repro.netem.packet import make_udp_packet
from repro.netem.trafficgen import BulkTransferGenerator
from repro.scenarios import (
    ClientFleetSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenarios.digest import canonicalize

_STATIONS = 8
#: Upper bound on retained bytes per added bulk client (the hybrid storm
#: below measures ~2.7 kB: radio links, bulk generators, interfaces and
#: clients are slotted, a link direction is its own ``LinkStats``, and a bulk
#: upload registers no receive listener; a link RNG per radio link alone
#: would add ~2.9 kB).
MAX_BYTES_PER_CLIENT = 2_900
#: Upper bound on what ``finalize()`` allocates at its peak, above the bytes
#: the run retained, per added bulk client (~0.2 kB: 32 raw bytes per digest
#: entry and one packed row of ``workload_stats`` per generator; a hex
#: string per digest entry and a ``bytes`` row per generator read ~0.67 kB,
#: a dict per generator ~1.1 kB, building the ``clients`` and ``workloads``
#: sections whole ~1.6 kB).
MAX_FINALIZE_BYTES_PER_CLIENT = 350
#: Upper bound on the bytes each completed attach/detach cycle of a one-NF
#: chain leaves allocated (~1.2 kB: the Manager's record of the removed
#: assignment).  A runtime that kept every terminal container, and veth ends
#: wired through closures (a reference cycle per pair), read ~4.1 kB.
MAX_BYTES_PER_CHURN_CYCLE = 1_500


def _bulk_storm(clients: int) -> ScenarioSpec:
    """``clients`` 1 MB uploaders at 800 kb/s, spread evenly over 8 stations."""
    per_station, remainder = divmod(clients, _STATIONS)
    fleets = [
        ClientFleetSpec(
            name=f"bulk-s{index + 1}",
            count=per_station + (1 if index < remainder else 0),
            position=(index * 80.0, 0.0),
            spread_m=10.0,
            appear_at_s=0.5,
            workloads=[
                WorkloadSpec(
                    kind="bulk",
                    start_s=6.0,
                    params={"total_bytes": 1_000_000.0, "rate_bps": 800e3, "chunk_bytes": 4000},
                )
            ],
        )
        for index in range(_STATIONS)
    ]
    return ScenarioSpec(
        name="bulk-storm",
        description="bulk-transfer storm for the footprint guard",
        seed=0,
        duration_s=60.0,
        topology=TopologySpec(
            station_count=_STATIONS,
            station_spacing_m=80.0,
            uplink_bandwidth_bps=10e9,
            scan_interval_s=5.0,
            heartbeat_interval_s=5.0,
        ),
        fleets=fleets,
    )


class Footprint(NamedTuple):
    #: Bytes still allocated after ``advance(8)``.
    retained: int
    #: How far above them ``finalize()`` peaks.
    finalize_peak: int
    #: ``tracemalloc`` snapshots (on request) of the retained bytes, and of
    #: what is allocated once ``finalize()`` returned, with its result held.
    before_finalize: Optional[tracemalloc.Snapshot] = None
    after_finalize: Optional[tracemalloc.Snapshot] = None


def measure(clients: int, snapshot: bool = False) -> Footprint:
    """The footprint of a hybrid storm of ``clients``; with ``snapshot``, the
    two snapshots ``tools/footprint.py`` attributes to source lines too."""
    gc.collect()
    tracemalloc.start()
    before = after = None
    try:
        run = ScenarioRunner(_bulk_storm(clients)).start(simulation_mode="hybrid")
        run.advance(8.0)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        before = tracemalloc.take_snapshot() if snapshot else None
        base, _ = tracemalloc.get_traced_memory()  # the snapshot's own bytes are not the run's
        tracemalloc.reset_peak()
        result = run.finalize()
        _, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot() if snapshot else None
    finally:
        tracemalloc.stop()
    del run, result
    gc.collect()
    return Footprint(retained, peak - base, before, after)


@functools.lru_cache(maxsize=None)
def _warm_up() -> None:
    """One small storm and one short churn, unmeasured: lazy imports and
    one-time caches.  Not a cached measurement, so that no measured size
    (``tools/footprint.py``'s smoke size is ``_STATIONS``) reads a cold run."""
    measure(_STATIONS)
    measure_churn(10)


@functools.lru_cache(maxsize=None)
def _footprint(clients: int) -> Tuple[int, int]:
    return measure(clients)[:2]


def _per_added_client(index: int, small: int = 200, large: int = 600) -> float:
    _warm_up()
    return (_footprint(large)[index] - _footprint(small)[index]) / (large - small)


def test_retained_bytes_per_added_bulk_client_stay_bounded():
    per_client = _per_added_client(0)
    assert 0 < per_client <= MAX_BYTES_PER_CLIENT, per_client


def test_finalize_peak_per_added_bulk_client_stays_bounded():
    per_client = _per_added_client(1)
    assert 0 < per_client <= MAX_FINALIZE_BYTES_PER_CLIENT, per_client


def test_radio_links_and_bulk_generators_carry_no_dict():
    """What a bulk client holds per radio link and per generator is slotted,
    and a link direction is its own live ``LinkStats``."""
    run = ScenarioRunner(_bulk_storm(_STATIONS)).start(simulation_mode="hybrid")
    run.advance(7.0)  # every client is associated and uploading
    generator = next(iter(run.generators.values()))
    assert isinstance(generator, BulkTransferGenerator)
    interface = generator.client.radio_interface
    link = interface.link
    assert not hasattr(link, "__dict__")
    assert not hasattr(generator, "__dict__")
    assert isinstance(link._a_to_b, LinkStats) and isinstance(link._b_to_a, LinkStats)
    stats = link.stats(interface)
    sent_packets, sent_bytes = stats.tx_packets, stats.tx_bytes
    packet = make_udp_packet(interface.ip, "10.0.0.1", 1, 2, payload_bytes=100)
    assert link.transmit(packet, interface)
    run.advance(0.1)
    assert (stats.tx_packets, stats.tx_bytes) == (sent_packets + 1, sent_bytes + packet.size_bytes)
    assert run.finalize().drained


def _entry_sha256(tree) -> str:
    encoded = json.dumps(canonicalize(tree), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def test_bulk_clients_hold_no_listener_link_name_or_digest_string():
    """A one-way upload registers no receive listener, a radio link keeps no
    name of its own, and the digest keeps its per-entry hashes as raw bytes
    beside the live key strings: no string per client in either."""
    run = ScenarioRunner(_bulk_storm(_STATIONS)).start(simulation_mode="hybrid")
    run.advance(7.0)
    for generator in run.generators.values():
        assert isinstance(generator, BulkTransferGenerator)
        assert generator.client._receive_listeners == ()
    client = next(iter(run.testbed.clients.values()))
    link = client.radio_interface.link
    assert link._name == ""
    assert client.radio_interface.name in link.name
    assert client.associated_cell.name in link.name
    assert Link(run.simulator, name="uplink").name == "uplink"
    sections = run.telemetry_sections()
    oracle = {
        f"{name}/{key}": _entry_sha256(entry)
        for name, tree in sections.items()
        if isinstance(tree, Mapping)
        for key, entry in ((str(key), tree[key]) for key in tree)
    }
    result = run.finalize()
    subsections = result.digest.subsections
    assert dict(subsections) == oracle and len(subsections) == len(oracle)
    live_names = {
        "clients/": run.testbed.clients,
        "workloads/": run.generators,
    }
    for prefix, texts, digests in subsections._sections:
        assert isinstance(digests, bytearray) and len(digests) == 32 * len(texts)
        if prefix in live_names:
            live = {name: name for name in live_names[prefix]}
            assert all(text is live[text] for text in texts), prefix
    assert sorted(prefix for prefix, _, _ in subsections._sections if prefix in live_names) == [
        "clients/",
        "workloads/",
    ]
    stats = result.workload_stats
    assert list(stats) == sorted(run.generators) and "nope" not in stats and 0 not in stats


def test_runner_keeps_only_pending_orchestration_handles():
    """Spawns and workload starts that fired are not kept after ``advance()``."""
    run = ScenarioRunner(_bulk_storm(40)).start(simulation_mode="hybrid")
    scheduled = len(run._control_events)
    run.advance(1.0)  # every client has appeared; no workload has started yet
    assert all(event.pending for event in run._control_events)
    assert len(run._control_events) == 40 < scheduled + 40  # one workload start per client
    run.advance(7.0)  # every workload has started
    assert run._control_events == []
    assert run.finalize().drained


def _one_station_testbed() -> Tuple[GNFTestbed, str]:
    """A started one-station testbed and the IP of its one client."""
    testbed = GNFTestbed(TestbedConfig(station_count=1))
    phone = testbed.add_client("phone", position=(0.0, 0.0))
    testbed.start()
    testbed.run(1.0)
    return testbed, phone.ip


class Churn(NamedTuple):
    #: Bytes still allocated after the last detach completed.
    retained: int
    #: A ``tracemalloc`` snapshot of them (on request).
    snapshot: Optional[tracemalloc.Snapshot] = None


def measure_churn(cycles: int, snapshot: bool = False) -> Churn:
    """The bytes a one-station testbed retains after ``cycles`` completed
    attach/detach cycles of a one-firewall chain; with ``snapshot``, the
    snapshot ``tools/footprint.py`` attributes to source lines too."""
    gc.collect()
    tracemalloc.start()
    try:
        testbed, client_ip = _one_station_testbed()
        for _ in range(cycles):
            assignment = testbed.manager.attach_chain(
                client_ip, ServiceChain.of("firewall"), station_name="station-1"
            )
            testbed.run(2.0)
            testbed.manager.detach(assignment.assignment_id)
            testbed.run(2.0)
        del assignment
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        taken = tracemalloc.take_snapshot() if snapshot else None
    finally:
        tracemalloc.stop()
    del testbed
    gc.collect()
    return Churn(retained, taken)


@functools.lru_cache(maxsize=None)
def _churn(cycles: int) -> int:
    return measure_churn(cycles).retained


def _per_churn_cycle(small: int = 100, large: int = 1_000) -> float:
    _warm_up()
    return (_churn(large) - _churn(small)) / (large - small)


def test_retained_bytes_per_attach_detach_cycle_stay_bounded():
    per_cycle = _per_churn_cycle()
    assert 0 < per_cycle <= MAX_BYTES_PER_CHURN_CYCLE, per_cycle


def test_a_detached_chain_is_freed_by_refcounting_alone():
    """Once a detach completes, nothing holds its ``DeployedNF``s, their
    containers, NFs or veth ends: no reference cycle waits for the
    collector, and the runtime keeps no terminal container."""
    gc.collect()
    gc.disable()
    try:
        testbed, client_ip = _one_station_testbed()
        assignment = testbed.manager.attach_chain(
            client_ip, ServiceChain.of("firewall", "flow-monitor"), station_name="station-1"
        )
        testbed.run(2.0)
        agent = testbed.agents["station-1"]
        deployed = agent.deployment_for_client(client_ip).deployed_nfs
        refs = [weakref.ref(held) for nf in deployed for held in (nf, nf.container, nf.nf)]
        end_names = {
            f"{nf.container.name}-{pair}-{end}"
            for nf in deployed
            for pair in ("in", "out")
            for end in ("a", "b")
        }
        assert len(refs) == 6 and len(end_names) == 8
        del deployed

        def veth_ends():
            return [held for held in gc.get_objects() if isinstance(held, Interface) and held.name in end_names]

        assert len(veth_ends()) == 8
        testbed.manager.detach(assignment.assignment_id)
        testbed.run(2.0)
        assert agent.deployment_for_client(client_ip) is None
        assert [ref() for ref in refs] == [None] * 6
        assert veth_ends() == []
        assert agent.runtime.containers == {}
    finally:
        gc.enable()
