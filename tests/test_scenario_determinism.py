"""Seed threading and replay determinism.

Covers the satellite requirements: one master seed flows from
``TestbedConfig`` into every RNG (mobility, trafficgen, handover jitter),
derived per-component seeds are stable and independent, and the determinism
regression digest catches nondeterminism loudly.
"""

from __future__ import annotations

import copy
import hashlib
import json
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.seeds import derive_seed
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import DNSWorkloadGenerator, HTTPWorkloadGenerator
from repro.scenarios import (
    ClientFleetSpec,
    MetricsDigest,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
    canonicalize,
    run_scenario,
)
from repro.wireless.mobility import RandomWaypointMobility

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import digests  # noqa: E402

GOLDEN = digests.load_golden()

# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


def test_derive_seed_is_stable_and_path_sensitive():
    assert derive_seed(42, "mobility", "client-1") == derive_seed(42, "mobility", "client-1")
    assert derive_seed(42, "mobility", "client-1") != derive_seed(42, "mobility", "client-2")
    assert derive_seed(42, "mobility", "client-1") != derive_seed(43, "mobility", "client-1")
    assert derive_seed(42, "mobility") != derive_seed(42, "workload")
    # 64-bit, non-negative.
    assert 0 <= derive_seed(0) < 2**64


def test_testbed_threads_master_seed_to_components():
    bed_a = GNFTestbed(TestbedConfig(station_count=1, seed=7))
    bed_b = GNFTestbed(TestbedConfig(station_count=1, seed=7))
    bed_c = GNFTestbed(TestbedConfig(station_count=1, seed=8))
    assert bed_a.seed_for("mobility", "x") == bed_b.seed_for("mobility", "x")
    assert bed_a.seed_for("mobility", "x") != bed_c.seed_for("mobility", "x")


def test_generators_accept_threaded_seeds_and_keep_legacy_defaults():
    bed = GNFTestbed(TestbedConfig(station_count=1, seed=3))
    phone = bed.add_client("phone", position=(0.0, 0.0))
    bed.start()
    bed.run(1.0)

    # Threaded seeds give distinct, reproducible streams per component.
    waypoint_a = RandomWaypointMobility(
        bed.simulator, phone, seed=bed.seed_for("mobility", "phone")
    )
    waypoint_b = RandomWaypointMobility(
        bed.simulator, phone, seed=bed.seed_for("mobility", "phone")
    )
    assert waypoint_a._rng.random() == waypoint_b._rng.random()

    http = HTTPWorkloadGenerator(
        bed.simulator, phone, server_ip=bed.server_ip, seed=bed.seed_for("workload", "phone", 0)
    )
    dns = DNSWorkloadGenerator(
        bed.simulator, phone, resolver_ip=bed.server_ip, seed=bed.seed_for("workload", "phone", 1)
    )
    assert http._rng.random() != dns._rng.random()

    # Omitting the seed keeps the historical fixed defaults (3/7/11), so
    # pre-scenario callers see unchanged behaviour.
    import random

    legacy_wp = RandomWaypointMobility(bed.simulator, phone)
    assert legacy_wp._rng.random() == random.Random(3).random()
    legacy_http = HTTPWorkloadGenerator(bed.simulator, phone, server_ip=bed.server_ip)
    assert legacy_http._rng.random() == random.Random(7).random()
    legacy_dns = DNSWorkloadGenerator(bed.simulator, phone, resolver_ip=bed.server_ip)
    assert legacy_dns._rng.random() == random.Random(11).random()


# ---------------------------------------------------------------------------
# The determinism regression gate
# ---------------------------------------------------------------------------


def test_same_spec_same_seed_identical_digest_across_repeats():
    # Three runs, not two: global itertools counters (assignment ids,
    # container names) advance between runs, so any leakage of those into
    # behaviour or telemetry would show up here.
    digests = [run_scenario("commuter-rush", seed=21).digest for _ in range(3)]
    assert digests[0] == digests[1] == digests[2]


def test_digest_covers_event_counts_fastpath_and_latency_samples():
    result = run_scenario("fig2-roaming", seed=21)
    sections = set(result.digest.components)
    # The satellite list: event counts, fastpath hit rates, latency samples.
    assert {"simulator", "stations", "workloads", "handover", "roaming", "manager"} <= sections
    # And they carry real content for this traffic-ful scenario.
    http_stats = result.workload_stats["smartphone-1/http0"]
    assert http_stats["responses_received"] > 0


def test_digest_diff_names_changed_sections():
    base = MetricsDigest.compute({"a": {"x": 1}, "b": {"y": 2.0, "z": 5}})
    same = MetricsDigest.compute({"a": {"x": 1}, "b": {"y": 2.0, "z": 5}})
    changed = MetricsDigest.compute({"a": {"x": 1}, "b": {"y": 3.0, "z": 5}})
    assert base == same
    assert base.diff(same) == []
    # The mismatch localises to the changed key inside section "b".
    assert base.diff(changed) == ["b/y"]
    assert base != changed
    # Non-dict sections still diff at section granularity.
    flat = MetricsDigest.compute({"a": [1, 2], "b": {"y": 2.0, "z": 5}})
    flat_changed = MetricsDigest.compute({"a": [1, 3], "b": {"y": 2.0, "z": 5}})
    assert flat.diff(flat_changed) == ["a"]


def test_digest_diff_qualifies_keys_with_provenance():
    """A station-keyed mismatch names the owning region/shard -- the
    federation debuggability fix -- while provenance itself never affects
    digest equality (it differs across region counts by construction)."""
    provenance = {"station-3": "region-1/shard-0"}
    base = MetricsDigest.compute(
        {"stations": {"station-3": {"rx": 1}, "station-1": {"rx": 2}}}, provenance=provenance
    )
    changed = MetricsDigest.compute(
        {"stations": {"station-3": {"rx": 9}, "station-1": {"rx": 2}}}
    )
    # The label is picked up from whichever side carries it.
    assert base.diff(changed) == ["stations/station-3 [region-1/shard-0]"]
    assert changed.diff(base) == ["stations/station-3 [region-1/shard-0]"]
    # Same sections, different provenance: still equal digests.
    unlabelled = MetricsDigest.compute(
        {"stations": {"station-3": {"rx": 1}, "station-1": {"rx": 2}}}
    )
    assert base == unlabelled and base.hexdigest == unlabelled.hexdigest


def test_digest_canonicalisation_is_dict_order_independent():
    forward = MetricsDigest.compute({"s": {"a": 1, "b": 2, "c": 0.5}})
    backward = MetricsDigest.compute({"s": dict(reversed(list({"a": 1, "b": 2, "c": 0.5}.items())))})
    assert forward == backward


def _whole_tree_sha256(payload):
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def _eager(sections):
    """``sections`` with every mapping-valued section copied into a ``dict``."""
    return {
        name: dict(tree) if isinstance(tree, Mapping) else tree for name, tree in sections.items()
    }


def _whole_tree_digest(sections):
    """The digest formula that canonicalizes and dumps each whole section
    (kept verbatim as the oracle for the entry-by-entry encoding)."""
    canonical = {name: canonicalize(tree) for name, tree in _eager(sections).items()}
    components = {name: _whole_tree_sha256(tree) for name, tree in canonical.items()}
    subsections = {
        f"{name}/{key}": _whole_tree_sha256(sub)
        for name, tree in canonical.items()
        if isinstance(tree, dict)
        for key, sub in tree.items()
    }
    overall = _whole_tree_sha256({name: components[name] for name in sorted(components)})
    return overall, components, subsections


def _printing_apart(mapping):
    return len({str(key) for key in mapping}) == len(mapping)


class _BuiltOnRead(Mapping):
    """A section that is not a ``dict``: each entry is a fresh copy made when read."""

    def __init__(self, entries):
        self._entries = entries

    def __getitem__(self, key):
        return copy.deepcopy(self._entries[key])

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)


_KEYS = st.one_of(
    st.text(max_size=6),
    st.integers(-50, 50),
    st.floats(allow_nan=False, width=32),
    st.booleans(),
    st.none(),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(_KEYS, children, max_size=4).filter(_printing_apart),
    ),
    max_leaves=24,
)
_SECTION_DICTS = st.dictionaries(_KEYS, _TREES, max_size=6).filter(_printing_apart)
_SECTIONS = st.dictionaries(
    st.text(max_size=8),
    st.one_of(_SECTION_DICTS, _SECTION_DICTS.map(_BuiltOnRead), _TREES),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(_SECTIONS)
@example({"/": {"": None}, "": {"/": 1}})
def test_entry_by_entry_digest_equals_the_whole_tree_formula(sections):
    digest = MetricsDigest.compute(sections)
    overall, components, subsections = _whole_tree_digest(sections)
    assert digest.hexdigest == overall
    assert digest.components == components
    assert digest.subsections == subsections


def _hybrid_bulk_storm(clients: int) -> ScenarioSpec:
    """``clients`` 1 MB uploaders spread over 4 stations."""
    fleets = [
        ClientFleetSpec(
            name=f"bulk-s{index + 1}",
            count=clients // 4,
            position=(index * 80.0, 0.0),
            spread_m=10.0,
            appear_at_s=0.5,
            workloads=[
                WorkloadSpec(
                    kind="bulk",
                    start_s=2.0,
                    params={"total_bytes": 1_000_000.0, "rate_bps": 800e3, "chunk_bytes": 4000},
                )
            ],
        )
        for index in range(4)
    ]
    return ScenarioSpec(
        name="bulk-storm",
        description="hybrid bulk storm for the streamed-digest check",
        seed=0,
        duration_s=15.0,
        topology=TopologySpec(station_count=4, station_spacing_m=80.0, uplink_bandwidth_bps=10e9),
        fleets=fleets,
    )


@pytest.mark.parametrize(
    "spec, mode",
    [(build_scenario("commuter-rush", 0), "packet"), (_hybrid_bulk_storm(40), "hybrid")],
    ids=["commuter-rush", "hybrid-bulk-storm-40"],
)
def test_streamed_telemetry_digest_equals_the_eager_one(spec, mode):
    """The per-client sections are built entry by entry as the digest reads
    them; copying each section into a ``dict`` first must change nothing."""
    run = ScenarioRunner(spec).start(simulation_mode=mode)
    run.advance(spec.duration_s)
    sections = run.telemetry_sections()
    assert not isinstance(sections["clients"], dict)
    assert not isinstance(sections["workloads"], dict)
    eager = _eager(run.telemetry_sections())
    assert len(eager["clients"]) == len(run.testbed.clients) > 1
    assert len(eager["workloads"]) == len(run.generators) > 1
    if mode == "packet":
        assert any(entry["rtt_samples"] for entry in eager["workloads"].values())
    streamed, copied = MetricsDigest.compute(sections), MetricsDigest.compute(eager)
    assert streamed.hexdigest == copied.hexdigest
    assert streamed.components == copied.components
    assert streamed.subsections == copied.subsections
    assert run.finalize().digest.hexdigest == streamed.hexdigest


def test_packed_subsections_read_as_the_flat_dict_section_by_section():
    """``subsections`` builds ``"section/key" -> hex`` on read; where a section
    name holds a ``/`` two flat keys can collide, and the section written
    last wins, in the position the first one took, as in a flat dict."""
    sections = {"a": {"b/c": 1, "z": 2}, "a/b": {"c": 3}, "b": [1], "": {"/": 4}, "/": {"": 5}}
    flat = _whole_tree_digest(sections)[2]
    subsections = MetricsDigest.compute(sections).subsections
    assert list(subsections) == list(flat) == ["a/b/c", "a/z", "//"]
    assert dict(subsections) == flat and len(subsections) == 3
    assert subsections["a/b/c"] == _whole_tree_sha256(3)
    assert subsections["//"] == _whole_tree_sha256(5)
    for missing in ("a/", "a/b", "b/0", "c/z", 1, None):
        assert missing not in subsections
    with pytest.raises(TypeError):
        subsections["a/z"] = "0" * 64
    plain = MetricsDigest.compute({"s": {"x": 1, "y": [2]}, "t": 3})
    assert dict(plain.subsections) == {"s/x": _whole_tree_sha256(1), "s/y": _whole_tree_sha256([2])}
    assert MetricsDigest("0" * 64).subsections == {}


def test_keys_that_print_alike_are_rejected_not_collapsed():
    with pytest.raises(TypeError, match="keys 1 and '1'"):
        canonicalize({1: "a", "1": "b"})
    with pytest.raises(TypeError, match="keys 1 and '1'"):
        canonicalize({"nested": [{1: "a", "1": "b"}]})
    # Both entry points: a first-level collision inside a section and one
    # deeper down.
    with pytest.raises(TypeError, match="keys 1 and '1'"):
        MetricsDigest.compute({"s": {1: "a", "1": "b"}})
    with pytest.raises(TypeError, match="keys 2.0 and '2.0'"):
        MetricsDigest.compute({"s": {"x": {2.0: "a", "2.0": "b"}}})
    # Keys of different types that print apart still digest.
    assert MetricsDigest.compute({"s": {1: "a", "2": "b"}}).subsections.keys() == {"s/1", "s/2"}


def test_digest_invariant_across_placement_strategies_when_unloaded():
    """The placement-engine satellite: with autoscaling off, the existing
    canned library replays to the *identical* digest under every engine
    strategy.  The load-aware strategies prefer the client's station until
    it is actually loaded, so on the (unsaturated) historical scenarios they
    must make exactly the closest-agent decisions -- byte for byte."""
    for name in ("fig2-roaming", "flash-crowd", "firewall-churn"):
        base = run_scenario(name, seed=0)
        golden = GOLDEN[digests.cell_key((name, 0, "packet"))]
        assert (base.digest.hexdigest, base.events_processed) == (
            golden["digest"],
            golden["events_processed"],
        )
        for strategy in ("closest-agent", "least-loaded", "latency-weighted", "bin-packing"):
            other = run_scenario(name, seed=0, placement_strategy=strategy)
            assert other.digest == base.digest, (
                name,
                strategy,
                base.digest.diff(other.digest),
            )


def test_the_golden_matrix_holds_every_cell_and_names_a_moved_one():
    assert sorted(GOLDEN) == sorted(digests.cell_key(cell) for cell in digests.cells())
    assert len(GOLDEN) == 44
    key = "fig2-roaming/seed-1/packet"
    moved = dict(GOLDEN, **{key: dict(GOLDEN[key], events_processed=0)})
    assert digests.moved_cells(GOLDEN, moved) == [
        f"{key}: events_processed {GOLDEN[key]['events_processed']!r} -> 0"
    ]
    assert digests.moved_cells(GOLDEN, dict(GOLDEN)) == []


def test_handover_jitter_is_seeded_not_global():
    # Two runs of a jittered scenario stay identical: the jitter RNG is
    # derived from the master seed, never from global random state.
    spec = build_scenario("commuter-rush", seed=5)
    assert spec.topology.handover_scan_jitter_s > 0
    import random

    random.seed(123)
    first = run_scenario("commuter-rush", seed=5)
    random.seed(456)
    second = run_scenario("commuter-rush", seed=5)
    assert first.digest == second.digest


# ---------------------------------------------------------------------------
# numpy is not a runtime dependency
# ---------------------------------------------------------------------------

#: Replays that reach the two places numpy once served: QUIC draw blocks
#: (cache-vs-backhaul's QUIC fleet starts at 5 s) and the fluid solver.
_NUMPY_FREE_REPLAYS = (("cache-vs-backhaul", "packet"), ("bulk-backhaul", "hybrid"))
_NUMPY_FREE_SECONDS = 8.0

_NUMPY_FREE_SCRIPT = f"""
import sys
sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
from repro.scenarios import ScenarioRunner, build_scenario
for name, mode in {_NUMPY_FREE_REPLAYS!r}:
    run = ScenarioRunner(build_scenario(name, 0)).start(simulation_mode=mode)
    print(run.advance({_NUMPY_FREE_SECONDS!r}).finalize().digest.hexdigest)
"""


def test_scenarios_replay_identically_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    numpy_free = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT],
        check=True,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
    ).stdout.split()
    in_process = [
        ScenarioRunner(build_scenario(name, 0))
        .start(simulation_mode=mode)
        .advance(_NUMPY_FREE_SECONDS)
        .finalize()
        .digest.hexdigest
        for name, mode in _NUMPY_FREE_REPLAYS
    ]
    assert numpy_free == in_process
