"""Service bundles, the catalogue, and zero-gap rolling upgrades.

Covers the tentpole layer end to end: the declarative catalogue
(versioned ``BundleSpec`` validation, slice compilation into plain
``ServiceChain`` objects), the mobile-core NF state/config split the
upgrades rely on, and the ``BundleUpgradeOrchestrator`` walk -- precopy
cutovers with zero coverage gap, stateful cutovers with a measured gap,
the scheduler enable/disable race, retries through a station outage, and
the canned ``bundle-rolling-upgrade`` scenario replaying digest-identically
across the region/shard matrix with every instance ending on v2.
"""

from __future__ import annotations

import pytest

from repro.core.bundles import (
    BundleCatalogue,
    BundleError,
    BundleNF,
    BundleSpec,
    SliceSpec,
    default_catalogue,
)
from repro.core.chain import ChainSLO
from repro.core.manager import AssignmentState, upgrade_staging_id
from repro.core.scheduler import TimeSchedule
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.nfs.cache import EdgeCache
from repro.scenarios import run_scenario

# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


def test_default_catalogue_registers_both_mobile_core_versions():
    catalogue = default_catalogue()
    assert catalogue.refs() == ["mobile-core@v1", "mobile-core@v2"]
    assert "mobile-core" in catalogue
    assert catalogue.versions("mobile-core") == [1, 2]
    # version=0 resolves to the latest registered version.
    assert catalogue.get("mobile-core").version == 2
    assert catalogue.get("mobile-core", 1).version == 1
    with pytest.raises(BundleError):
        catalogue.get("mobile-core", 9)
    with pytest.raises(BundleError):
        catalogue.get("nope")


def test_mobile_core_v2_differs_only_in_config_not_shape():
    """v1 and v2 keep the same NF graph (the federation NF-count stream
    relies on it); the upgrade is a pure config roll."""
    catalogue = default_catalogue()
    v1, v2 = catalogue.get("mobile-core", 1), catalogue.get("mobile-core", 2)
    assert v1.nf_graph() == v2.nf_graph() == "amf -> smf -> upf"
    assert v1.slice_names() == v2.slice_names() == ["embb", "iot"]
    upf_v1 = next(nf for nf in v1.nfs if nf.name == "upf")
    upf_v2 = next(nf for nf in v2.nfs if nf.name == "upf")
    assert upf_v1.config_dict()["edge_breakout"] is False
    assert upf_v2.config_dict()["edge_breakout"] is True


def test_chain_for_compiles_fresh_slice_chains_with_slos():
    spec = default_catalogue().get("mobile-core", 1)
    embb = spec.chain_for("embb")
    iot = spec.chain_for("iot")
    assert embb.name == "mobile-core@v1/embb" and len(embb) == 3
    assert iot.name == "mobile-core@v1/iot" and len(iot) == 2
    assert embb.slo == ChainSLO(max_latency_s=0.05, min_bandwidth_mbps=6.0)
    assert iot.slo == ChainSLO(max_latency_s=0.25, min_bandwidth_mbps=0.5)
    # Chains are per-assignment objects: every compile is a fresh one.
    assert spec.chain_for("embb") is not embb
    # The full graph compiles too (no slice, no SLO).
    full = spec.chain_for()
    assert full.name == "mobile-core@v1" and len(full) == 3 and full.slo is None
    with pytest.raises(BundleError):
        spec.chain_for("mmtc")


def test_bundle_spec_rejects_unknown_nf_type():
    nfs = (BundleNF(name="amf", nf_type="amf"), BundleNF(name="x", nf_type="teleporter"))
    with pytest.raises(BundleError, match=r"b@v1 NF 1 \('x'\): unknown NF type 'teleporter'"):
        BundleSpec(name="b", version=1, nfs=nfs).validate()


def test_bundle_spec_rejects_unknown_nf_config_key():
    nfs = (BundleNF(name="u", nf_type="upf", config=(("warp_factor", 9),)),)
    with pytest.raises(BundleError, match=r"b@v1 NF 0 \('u'\): upf takes no config key \['warp_factor'\]"):
        BundleSpec(name="b", version=1, nfs=nfs).validate()


def test_bundle_spec_validation_rejects_bad_graphs():
    amf = BundleNF(name="amf", nf_type="amf")
    with pytest.raises(BundleError):  # dangling dependency
        BundleSpec(
            name="b", version=1, nfs=(BundleNF(name="x", nf_type="firewall", requires=("y",)),)
        ).validate()
    with pytest.raises(BundleError):  # slice referencing an unknown NF
        BundleSpec(
            name="b", version=1, nfs=(amf,),
            slices=(SliceSpec(name="s", nf_names=("ghost",)),),
        ).validate()
    with pytest.raises(BundleError):  # empty slice
        BundleSpec(
            name="b", version=1, nfs=(amf,), slices=(SliceSpec(name="s", nf_names=()),)
        ).validate()
    with pytest.raises(BundleError):  # versions start at 1
        BundleSpec(name="b", version=0, nfs=(amf,)).validate()
    catalogue = BundleCatalogue()
    catalogue.register(BundleSpec(name="b", version=1, nfs=(amf,)))
    with pytest.raises(BundleError):  # duplicate registration
        catalogue.register(BundleSpec(name="b", version=1, nfs=(amf,)))


# ---------------------------------------------------------------------------
# State/config split (the property upgrades depend on)
# ---------------------------------------------------------------------------


def test_edge_cache_state_roundtrip_preserves_all_counters():
    source = EdgeCache()
    source.evictions = 7
    source.bytes_served_from_cache = 4096
    target = EdgeCache()
    target.import_state(source.export_state())
    assert target.evictions == 7
    assert target.bytes_served_from_cache == 4096


def test_mobile_core_state_never_carries_config():
    """Rolling upgrades import v1 state into a v2 instance; exported state
    must therefore carry runtime tables only, never configuration."""
    from repro.nfs.mobile_core import AMFFunction, SMFFunction, UPFFunction

    for nf in (AMFFunction(), SMFFunction(), UPFFunction(edge_breakout=True)):
        state = nf.export_state()
        for config_key in ("signalling_interval_s", "session_ttl_s", "edge_breakout", "breakout_ports"):
            assert config_key not in state, (nf.nf_type, config_key)
    upgraded = UPFFunction(edge_breakout=True, breakout_ports=(8080,))
    old = UPFFunction(edge_breakout=False)
    old.tunneled_packets = 11
    upgraded.import_state(old.export_state())
    assert upgraded.edge_breakout is True  # v2 config survives the import
    assert upgraded.tunneled_packets == 11  # v1 state arrives


# ---------------------------------------------------------------------------
# The orchestrator walk (unit level, one station)
# ---------------------------------------------------------------------------


def _bundle_testbed(schedule=None):
    bed = GNFTestbed(TestbedConfig(station_count=1, seed=11))
    client = bed.add_client("phone", position=(0.0, 0.0))
    bed.start()
    bed.run(0.5)
    spec = bed.upgrades.catalogue.get("mobile-core", 1)
    assignment = bed.manager.attach_chain(
        client.ip, spec.chain_for("embb"), schedule=schedule, station_name="station-1"
    )
    bed.run(6.0)
    assert assignment.state is AssignmentState.ACTIVE
    bed.upgrades.register_instance(
        assignment.assignment_id, "mobile-core", 1, "embb", client.ip, fleet="phone"
    )
    return bed, assignment


def _live_upf(bed, assignment_id):
    deployment = bed.agents["station-1"].deployments[assignment_id]
    return next(d.nf for d in deployment.deployed_nfs if d.nf.nf_type == "upf")


def test_precopy_upgrade_has_zero_coverage_gap():
    bed, assignment = _bundle_testbed()
    assert bed.upgrades.live_refs() == {"mobile-core@v1": 1}
    assert bed.upgrades.upgrade_bundle("mobile-core", 2, mode="precopy") == 1
    bed.run(15.0)
    telemetry = bed.upgrades.telemetry()
    assert telemetry["instances"] == {"mobile-core@v2": 1}
    assert telemetry["cutovers"] == 1 and telemetry["failures"] == 0
    assert telemetry["max_coverage_gap_s"] == 0.0
    assert 0.0 < telemetry["max_downtime_s"] < 0.05  # under the precopy target
    # The live instance now runs the v2 config, rules still installed.
    assert _live_upf(bed, assignment.assignment_id).edge_breakout is True
    assert bed.agents["station-1"].deployments[assignment.assignment_id].rules_installed
    # No staging leftovers.
    assert upgrade_staging_id(assignment.assignment_id) not in bed.agents["station-1"].deployments
    bed.stop()


def test_stateful_upgrade_pays_a_measured_gap():
    bed, assignment = _bundle_testbed()
    bed.upgrades.upgrade_bundle("mobile-core", 2, mode="stateful")
    bed.run(15.0)
    telemetry = bed.upgrades.telemetry()
    assert telemetry["instances"] == {"mobile-core@v2": 1}
    (record,) = telemetry["records"]
    assert record["success"] and record["mode"] == "stateful"
    # Freeze-then-copy: the coverage gap is real and equals the downtime.
    assert record["coverage_gap_s"] > 0.0
    assert record["coverage_gap_s"] == record["downtime_s"]
    bed.stop()


def test_idempotent_upgrade_skips_instances_already_on_target():
    bed, _ = _bundle_testbed()
    assert bed.upgrades.upgrade_bundle("mobile-core", 2) == 1
    bed.run(15.0)
    # Nothing left on v1: a second roll queues no work.
    assert bed.upgrades.upgrade_bundle("mobile-core", 2) == 0
    bed.stop()


def test_schedule_disable_racing_upgrade_defers_rule_install():
    """An NFScheduler disable landing mid-upgrade must carry over: the v2
    instance comes up *without* steering rules, and the next scheduled
    enable activates it -- never a half-active chain."""
    # Active [0, 30) and [60, 90); disabled [30, 60) each 60 s day.
    schedule = TimeSchedule.daily(0.0, 30.0, day_length_s=60.0)
    bed, assignment = _bundle_testbed(schedule=schedule)
    bed.run(32.0)  # past the disable edge: rules are down, chain idle
    deployment = bed.agents["station-1"].deployments[assignment.assignment_id]
    assert not deployment.rules_installed
    bed.upgrades.upgrade_bundle("mobile-core", 2, mode="precopy")
    bed.run(15.0)  # upgrade completes inside the disabled window
    telemetry = bed.upgrades.telemetry()
    assert telemetry["instances"] == {"mobile-core@v2": 1}
    deployment = bed.agents["station-1"].deployments[assignment.assignment_id]
    assert not deployment.rules_installed  # cutover inherited "disabled"
    bed.run(15.0)  # crosses t=60: the scheduler re-enables the v2 chain
    deployment = bed.agents["station-1"].deployments[assignment.assignment_id]
    assert deployment.rules_installed
    assert _live_upf(bed, assignment.assignment_id).edge_breakout is True
    bed.stop()


def test_upgrade_retries_through_station_outage_and_never_half_cuts():
    bed, assignment = _bundle_testbed()
    agent = bed.agents["station-1"]
    agent.stop()  # the station goes dark before the roll starts
    bed.upgrades.upgrade_bundle("mobile-core", 2, mode="precopy")
    bed.run(5.0)
    telemetry = bed.upgrades.telemetry()
    # Stalled, not failed -- and the live instance is untouched v1.
    assert telemetry["cutovers"] == 0 and telemetry["failures"] == 0
    assert telemetry["retries"] >= 3
    assert bed.upgrades.live_refs() == {"mobile-core@v1": 1}
    assert _live_upf(bed, assignment.assignment_id).edge_breakout is False
    agent.start()  # outage over: the walk resumes and completes
    bed.run(15.0)
    telemetry = bed.upgrades.telemetry()
    assert telemetry["instances"] == {"mobile-core@v2": 1}
    assert telemetry["cutovers"] == 1 and telemetry["failures"] == 0
    assert telemetry["max_coverage_gap_s"] == 0.0
    assert upgrade_staging_id(assignment.assignment_id) not in agent.deployments
    bed.stop()


# ---------------------------------------------------------------------------
# The canned scenarios (integration + the acceptance gates)
# ---------------------------------------------------------------------------


def test_bundle_rolling_upgrade_scenario_survives_chaos_on_v2():
    """The acceptance walk: four mobile-core@v1 instances roll to v2 while
    station-2 crashes mid-upgrade -- retries happen, every instance ends on
    v2, and the coverage gap stays exactly zero."""
    result = run_scenario("bundle-rolling-upgrade", seed=0)
    assert result.drained
    assert result.faults_injected == 1  # the mid-roll station crash fired
    telemetry = result.testbed.upgrades.telemetry()
    assert telemetry["instances"] == {"mobile-core@v2": 4}
    assert telemetry["cutovers"] == 4 and telemetry["failures"] == 0
    assert telemetry["retries"] >= 1  # the crash made at least one job wait
    assert telemetry["max_coverage_gap_s"] == 0.0
    assert all(record["success"] for record in telemetry["records"])
    assert {record["slice"] for record in telemetry["records"]} == {"embb", "iot"}
    # The digest carries the bundle census, so replays gate on it.
    assert "bundles" in result.digest.components


def test_bundle_rolling_upgrade_digest_invariant_across_regions_and_shards():
    base = run_scenario("bundle-rolling-upgrade", seed=0, region_count=1, shard_count=1)
    federated = run_scenario("bundle-rolling-upgrade", seed=0, region_count=2, shard_count=4)
    assert federated.digest == base.digest, base.digest.diff(federated.digest)


def test_slice_scenario_runs_both_slices_with_distinct_slos():
    result = run_scenario("slice-embb-iot", seed=0)
    assert result.drained and result.attach_failures == []
    assert result.testbed.upgrades.live_refs() == {"mobile-core@v1": 5}
    slos = {a.chain.name.split("/")[-1]: a.chain.slo for a in result.testbed.manager.assignments.values()}
    assert slos["embb"] == ChainSLO(max_latency_s=0.05, min_bandwidth_mbps=6.0)
    assert slos["iot"] == ChainSLO(max_latency_s=0.25, min_bandwidth_mbps=0.5)


def test_upf_edge_breakout_saves_backhaul_vs_core():
    result = run_scenario("upf-edge-vs-core", seed=0)
    assert result.drained
    edge_bytes = core_bytes = 0
    for agent in result.testbed.agents.values():
        for deployment in agent.deployments.values():
            for deployed in deployment.deployed_nfs:
                if deployed.nf.nf_type != "upf":
                    continue
                if deployed.nf.edge_breakout:
                    edge_bytes += deployed.nf.breakout_bytes
                    assert deployed.nf.tunneled_bytes == 0
                else:
                    core_bytes += deployed.nf.tunneled_bytes
                    assert deployed.nf.breakout_bytes == 0
    # Both sides saw traffic; the edge side kept all of it off the backhaul.
    assert edge_bytes > 0 and core_bytes > 0


# ---------------------------------------------------------------------------
# Per-station cache telemetry (satellite: digest-visible like flows.*)
# ---------------------------------------------------------------------------


def test_cache_telemetry_reaches_collector_and_rollup_tree():
    result = run_scenario("mixed-chain-density", seed=0, shard_count=2)
    totals = {"cache.hits": 0.0, "cache.bytes_served_from_cache": 0.0}
    for agent in result.testbed.agents.values():
        latest = agent.collector.latest()
        for key in totals:
            totals[key] += latest.get(key, 0.0)
    assert totals["cache.hits"] > 0
    assert totals["cache.bytes_served_from_cache"] > 0
    # The sharded frontend folds per-station cache deltas from heartbeats
    # into the rollup tree.  The stream is heartbeat-granular, so the root
    # may lag the collectors by the delta since the last beat -- but it is
    # live, positive, and never overshoots the ground truth.
    root = result.testbed.manager.telemetry.counters
    assert 0 < root.get("cache_hits") <= int(totals["cache.hits"])
    assert 0 < root.get("cache_bytes_served_from_cache") <= int(totals["cache.bytes_served_from_cache"])
    # And the digest gates on it: the per-station stations section carries
    # the cache.* counters alongside flows.*.
    assert "stations" in result.digest.components
