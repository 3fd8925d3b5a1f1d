"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.analysis.stats import mean, percentile, summarize
from repro.containers.cgroups import AdmissionError, ResourceAccount, ResourceRequest
from repro.containers.image import ImageRegistry, default_nf_images
from repro.containers.runtime import ContainerRuntime
from repro.netem import packet as pkt
from repro.netem.flowtable import Action, FlowTable, Match
from repro.netem.simulator import Simulator
from repro.nfs.base import Direction, ProcessingContext
from repro.nfs.dns_loadbalancer import DNSLoadBalancer
from repro.nfs.firewall import Firewall, FirewallAction, FirewallRule
from repro.nfs.nat import NAT
from repro.nfs.rate_limiter import TokenBucket
from repro.telemetry.metrics import TimeSeries

ip_octet = st.integers(min_value=1, max_value=254)
ips = st.builds(lambda a, b: f"10.{a % 32}.{b}.{a}", ip_octet, ip_octet)
ports = st.integers(min_value=1, max_value=65535)


# --------------------------------------------------------------------------
# Simulator ordering
# --------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_simulator_fires_events_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# --------------------------------------------------------------------------
# Packets and flow keys
# --------------------------------------------------------------------------


@given(ips, ips, ports, ports, st.integers(min_value=0, max_value=9000))
@settings(max_examples=100, deadline=None)
def test_packet_size_positive_and_copy_identical(src, dst, sport, dport, payload):
    packet = pkt.make_tcp_packet(src, dst, sport, dport, payload_bytes=payload)
    assert packet.size_bytes >= 64
    clone = packet.copy()
    assert clone.size_bytes == packet.size_bytes
    assert clone.flow_key == packet.flow_key


@given(ips, ips, ports, ports)
@settings(max_examples=100, deadline=None)
def test_flow_key_reverse_is_involution_and_canonical_is_stable(src, dst, sport, dport):
    key = pkt.FlowKey(src, dst, pkt.PROTO_TCP, sport, dport)
    assert key.reversed().reversed() == key
    assert key.canonical() == key.reversed().canonical()
    assert key.canonical().canonical() == key.canonical()


# --------------------------------------------------------------------------
# Flow table
# --------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=8)), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_flowtable_lookup_returns_highest_priority_match(rules):
    table = FlowTable()
    for priority, port in rules:
        table.add(priority, Match(), [Action.output(port)])
    packet = pkt.make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    hit = table.lookup(packet, in_port=1)
    assert hit is not None
    assert hit.priority == max(priority for priority, _ in rules)


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_flowtable_remove_by_cookie_removes_exactly_that_cookie(cookies):
    table = FlowTable()
    for index, cookie in enumerate(cookies):
        table.add(index, Match(), [Action.drop()], cookie=cookie)
    removed = table.remove_by_cookie("a")
    assert removed == cookies.count("a")
    assert len(table) == len(cookies) - removed
    assert all(rule.cookie != "a" for rule in table.rules())


# --------------------------------------------------------------------------
# Resource accounting
# --------------------------------------------------------------------------


# CPU charges are multiples of 1/1024 s so every sum below is exact in floats.
account_steps = st.tuples(
    st.sampled_from(["charge", "release"]),
    st.integers(min_value=0, max_value=39),
    st.integers(min_value=0, max_value=10_240).map(lambda ticks: ticks / 1024),
)


@given(
    st.lists(st.floats(min_value=1.0, max_value=64.0, allow_nan=False), min_size=1, max_size=40),
    st.lists(account_steps, max_size=40),
)
@settings(max_examples=50, deadline=None)
def test_resource_account_never_overcommits(memory_requests, steps):
    account = ResourceAccount(cpu_mhz=1000, memory_mb=256, system_reserved_mb=32)
    live = []  # owners in admission order
    charged = 0.0
    pending_steps = iter(steps)
    for index, memory in enumerate(memory_requests):
        try:
            account.admit(f"c{index}", ResourceRequest(memory_mb=memory))
            live.append(f"c{index}")
        except AdmissionError:
            pass
        # Interleave one charge or release (of any owner so far, live or not).
        kind, target, cpu_seconds = next(pending_steps, ("charge", 0, 0.0))
        owner = f"c{target % (index + 1)}"
        before = account.total_cpu_seconds()
        if kind == "charge":
            account.charge_cpu(owner, cpu_seconds)
            charged += cpu_seconds if owner in live else 0.0
        else:
            account.release(owner)
            if owner in live:
                live.remove(owner)
        # The station's CPU total is cumulative: a teardown never lowers it.
        assert account.total_cpu_seconds() >= before
        assert account.total_cpu_seconds() == charged
        # The stored sum is the in-admission-order sum, bit for bit.
        assert account.allocated_memory_mb == sum(account.entry(name).memory_mb for name in live)
        assert account.allocated_memory_mb <= account.allocatable_memory_mb + 1e-9
        assert account.owners() == sorted(live)
        assert 0.0 <= account.memory_utilization() <= 1.0


# Ledger == truth: whatever lifecycle calls a runtime sees, the live walk is
# the state filter over everything it tracks and the account is the sum of
# its entries.
runtime_steps = st.lists(
    st.tuples(st.sampled_from(["create", "start", "stop", "fail", "destroy", "behind-back", "run"]), st.integers(0, 7)),
    max_size=60,
)


@given(runtime_steps)
@settings(max_examples=60, deadline=None)
def test_runtime_live_walk_and_account_match_a_full_scan(steps):
    sim = Simulator()
    registry = ImageRegistry()
    for image in default_nf_images():
        registry.push(image)
    account = ResourceAccount(cpu_mhz=3000, memory_mb=96, system_reserved_mb=16)
    runtime = ContainerRuntime(sim, "rt", account, registry=registry)
    image, _ = runtime.ensure_image("gnf/firewall")
    created = 0
    #: Every container created and not destroyed, in creation order: the model
    #: the runtime's live dict and its ``containers_total`` count must match.
    tracked = []
    for kind, pick in steps:
        target = tracked[pick % len(tracked)] if tracked else None
        try:
            if kind == "create":
                tracked.append(runtime.create(image, f"c{created}"))
                created += 1
            elif kind == "run":
                sim.run(until=sim.now + 0.3)
            elif target is None:
                continue
            elif kind == "start":
                runtime.start(target)
            elif kind == "stop":
                runtime.stop(target)
            elif kind == "fail":
                runtime.fail(target)
            elif kind == "destroy":
                runtime.destroy(target)
                tracked.remove(target)
            else:  # terminal behind the runtime's back: still filtered by state
                target.mark_failed(sim.now, "behind the runtime's back")
        except RuntimeError:  # admission refused, illegal transition or destroy of a live container
            pass
        assert runtime.running_containers() == [c for c in tracked if c.is_running]
        assert runtime.running_count == len(runtime.running_containers())
        # The runtime holds exactly the tracked containers it has not retired:
        # every one that is not terminal, plus any made terminal behind its back.
        assert all(c is runtime.containers[c.name] for c in tracked if not c.is_terminal)
        assert all(any(c is held for c in tracked) for held in runtime.containers.values())
        entries = [account.entry(owner) for owner in account.owners()]
        assert len(account) == len(entries)
        assert set(account.owners()) == set(runtime.containers)
        in_admission_order = sorted(entries, key=lambda entry: int(entry.owner[1:]))
        assert account.allocated_memory_mb == sum(entry.memory_mb for entry in in_admission_order)
        assert runtime.utilization()["containers_total"] == float(len(tracked))


# --------------------------------------------------------------------------
# Token bucket
# --------------------------------------------------------------------------


@given(
    st.floats(min_value=100.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=100.0, max_value=1e6, allow_nan=False),
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=10.0), st.integers(min_value=1, max_value=2000)), max_size=50),
)
@settings(max_examples=50, deadline=None)
def test_token_bucket_never_exceeds_burst_or_goes_negative(rate, burst, events):
    bucket = TokenBucket(rate_bytes_per_s=rate, burst_bytes=burst)
    now = 0.0
    for delta, size in sorted(events):
        now += delta
        bucket.try_consume(size, now)
        assert -1e-6 <= bucket.tokens <= burst + 1e-6


# --------------------------------------------------------------------------
# NFs
# --------------------------------------------------------------------------


def _ctx(direction=Direction.UPSTREAM):
    return ProcessingContext(now=0.0, direction=direction, client_ip="10.10.0.5")


@given(st.lists(st.tuples(ips, ports), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_firewall_conservation_accepted_plus_dropped_equals_input(flows):
    firewall = Firewall(
        rules=[FirewallRule(action=FirewallAction.DROP, dst_port_range=(0, 1023))],
    )
    for dst, port in flows:
        packet = pkt.make_tcp_packet("10.10.0.5", dst, 40000, port)
        firewall.process(packet, _ctx())
    assert firewall.accepted + firewall.dropped == len(flows)
    assert firewall.packets_in == len(flows)
    assert firewall.packets_out + firewall.packets_dropped == len(flows)


@given(st.lists(st.tuples(ips, ports), min_size=1, max_size=40, unique=True))
@settings(max_examples=50, deadline=None)
def test_nat_translations_are_reversible_and_unique(flows):
    nat = NAT(public_ip="192.0.2.1")
    seen_public_ports = set()
    for src_unused, sport in flows:
        outbound = pkt.make_tcp_packet("10.10.0.5", "10.30.0.2", sport, 80)
        translated = nat.process(outbound, _ctx())[0]
        public_port = translated.l4.src_port
        # Distinct private ports must never share a public port.
        key = (sport,)
        if key not in seen_public_ports:
            seen_public_ports.add(public_port)
        reply = pkt.make_tcp_packet("10.30.0.2", "192.0.2.1", 80, public_port)
        reversed_packet = nat.process(reply, _ctx(Direction.DOWNSTREAM))[0]
        assert reversed_packet.ip.dst == "10.10.0.5"
        assert reversed_packet.l4.dst_port == sport
    assert nat.binding_count == len({sport for _, sport in flows})


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=60))
@settings(max_examples=50, deadline=None)
def test_dns_lb_round_robin_is_balanced(backend_count, queries):
    backends = [f"198.18.0.{i}" for i in range(1, backend_count + 1)]
    lb = DNSLoadBalancer(pools={"svc": backends})
    for _ in range(queries):
        query = pkt.make_dns_query("10.10.0.5", "10.30.0.2", name="svc")
        response = pkt.make_dns_response(query, addresses=("0.0.0.0",))
        lb.process(response, _ctx(Direction.DOWNSTREAM))
    distribution = lb.backend_distribution("svc")
    assert sum(distribution.values()) == queries
    if distribution:
        assert max(distribution.values()) - min(distribution.values() or [0]) <= 1


@given(st.dictionaries(st.sampled_from(["a.com", "b.com", "c.com"]), st.integers(1, 5), min_size=1))
@settings(max_examples=30, deadline=None)
def test_firewall_state_export_import_is_lossless(hosts):
    firewall = Firewall()
    for host_index, (host, count) in enumerate(hosts.items()):
        for index in range(count):
            packet = pkt.make_tcp_packet("10.10.0.5", f"10.30.0.{host_index + 1}", 40000 + index, 80)
            firewall.process(packet, _ctx())
    clone = Firewall()
    clone.import_state(firewall.export_state())
    assert clone.export_state() == firewall.export_state()


# --------------------------------------------------------------------------
# Telemetry and stats
# --------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
@example([5e-324, 5e-324])  # lo*(1-f) + hi*f underflows both halves to 0.0
def test_percentile_bounds_and_summary_consistency(values):
    assert min(values) <= percentile(values, 50) <= max(values)
    block = summarize(values)
    assert block["min"] <= block["median"] <= block["max"]
    assert block["min"] <= block["mean"] <= block["max"]
    assert block["p95"] <= block["max"] + 1e-9


def test_percentile_stays_within_its_neighbours_at_the_float_extremes():
    assert percentile([5e-324, 5e-324], 50) == 5e-324
    assert -1e308 <= percentile([-1e308, 1e308], 25) <= 1e308  # the span overflows


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e4, allow_nan=False),
                          st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
                min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_timeseries_respects_bound_and_latest(samples):
    series = TimeSeries("x", max_samples=32)
    for timestamp, value in samples:
        series.record(timestamp, value)
    assert len(series) <= 32
    assert series.latest() == tuple(samples[-1])
