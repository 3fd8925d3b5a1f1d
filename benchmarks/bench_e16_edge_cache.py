"""E16 -- backhaul bytes saved vs cache placement, and generator cost.

The promoted :class:`~repro.nfs.cache.EdgeCache` makes GNF's core economic
argument measurable: an NF *at the edge* absorbs repeat content before it
touches the backhaul.  The first leg runs the canned ``cache-vs-backhaul``
ablation -- two identical ABR+web+QUIC fleets behind identical caches,
except one cache serves hits locally (``placement="edge"``) and the other
merely records them while forwarding everything upstream
(``placement="core"``).  The saving is measured *physically*, as the gap
between the two stations' uplink byte counters, and cross-checked against
the cache's own ``backhaul_bytes_saved`` ledger.  The run must clear a
relative-savings floor (``E16_MIN_SAVINGS`` env var, default 0.30).

The second leg prices the new vectorized generators: simulator events per
emitted request for the QUIC burst generator (which pre-draws its gaps and
burst sizes 64 at a time and emits whole 0-RTT bursts inside one event) versus the ABR segment
fetcher (one event per segment by design).
"""

from __future__ import annotations

import os

import pytest
from _bench_utils import run_once

from repro.analysis.report import ExperimentResult
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import ABRVideoGenerator, QUICWorkloadGenerator
from repro.scenarios import run_scenario

MIN_SAVINGS = float(os.environ.get("E16_MIN_SAVINGS", "0.30"))


@pytest.fixture
def e16_options(request):
    return {
        "seed": request.config.getoption("--e16-seed"),
        "gen_duration": request.config.getoption("--e16-gen-duration"),
    }


def _cache_nfs(testbed):
    """Every deployed cache NF, keyed by hosting station."""
    found = {}
    for station_name, agent in testbed.agents.items():
        for deployment in agent.deployments.values():
            for deployed in deployment.deployed_nfs:
                if deployed.nf.nf_type == "cache":
                    found.setdefault(station_name, []).append(deployed.nf)
    return found


def _placement_run(seed: int):
    """Run the ablation scenario; return per-station uplink + cache ledgers."""
    result = run_scenario("cache-vs-backhaul", seed=seed)
    testbed = result.testbed
    uplink_bytes = {
        name: link.total_stats.tx_bytes
        for name, link in testbed.topology.uplink_links.items()
    }
    ledgers = {}
    for station_name, caches in _cache_nfs(testbed).items():
        ledgers[station_name] = {
            "placement": caches[0].placement,
            "hits": sum(nf.hits for nf in caches),
            "misses": sum(nf.misses for nf in caches),
            "uncacheable": sum(nf.uncacheable_requests for nf in caches),
            "bytes_served_from_cache": sum(nf.bytes_served_from_cache for nf in caches),
            "backhaul_bytes_saved": sum(nf.backhaul_bytes_saved for nf in caches),
        }
    testbed.stop()
    return uplink_bytes, ledgers, result.digest.hexdigest


def _generator_run(duration_s: float):
    """Events-per-request for the vectorized QUIC generator vs the ABR one."""
    testbed = GNFTestbed(TestbedConfig(station_count=1, seed=16))
    client = testbed.add_client("bench-client", position=(0.0, 0.0))
    testbed.start()
    testbed.run(0.5)
    generators = {
        "quic": QUICWorkloadGenerator(
            testbed.simulator, client, server_ip=testbed.server_ip, mean_gap_s=0.4
        ),
        "abr": ABRVideoGenerator(
            testbed.simulator,
            client,
            server_ip=testbed.server_ip,
            segment_duration_s=0.5,
        ),
    }
    scheduled = {}
    for kind, generator in generators.items():
        scheduled[kind] = 0
        original = generator._schedule

        def counting(delay, callback, *args, _kind=kind, _original=original):
            scheduled[_kind] += 1
            return _original(delay, callback, *args)

        generator._schedule = counting
        generator.start()
    testbed.run(duration_s)
    measured = {}
    for kind, generator in generators.items():
        stats = generator.stats()
        generator.stop()
        requests = stats["packets_sent"]
        measured[kind] = {
            "requests": requests,
            "events": scheduled[kind],
            "requests_per_event": requests / max(scheduled[kind], 1),
            "loss_rate": stats["loss_rate"],
        }
    testbed.stop()
    return measured


def _run_experiment(options):
    uplink_bytes, ledgers, digest = _placement_run(options["seed"])
    rows = []
    by_placement = {entry["placement"]: (name, entry) for name, entry in ledgers.items()}
    edge_station, edge = by_placement["edge"]
    core_station, core = by_placement["core"]
    savings = 1.0 - uplink_bytes[edge_station] / uplink_bytes[core_station]
    for station, entry in ((edge_station, edge), (core_station, core)):
        rows.append(
            [
                "placement",
                entry["placement"],
                uplink_bytes[station],
                entry["hits"],
                entry["misses"],
                entry["backhaul_bytes_saved"],
                f"uncacheable={entry['uncacheable']} digest={digest[:12]}",
            ]
        )
    rows.append(
        [
            "savings",
            "edge-vs-core",
            uplink_bytes[core_station] - uplink_bytes[edge_station],
            "",
            "",
            "",
            f"{100.0 * savings:.1f}% backhaul bytes saved (floor {100.0 * MIN_SAVINGS:.0f}%)",
        ]
    )
    generator_cost = _generator_run(options["gen_duration"])
    for kind, entry in sorted(generator_cost.items()):
        rows.append(
            [
                "generator",
                kind,
                "",
                "",
                "",
                "",
                (
                    f"{entry['requests']:.0f} requests in {entry['events']} events "
                    f"= {entry['requests_per_event']:.2f} req/event"
                ),
            ]
        )
    return rows, savings, edge, core, generator_cost


def test_e16_edge_cache_backhaul(benchmark, record_experiment, e16_options):
    rows, savings, edge, core, generator_cost = run_once(
        benchmark, lambda: _run_experiment(e16_options)
    )
    result = ExperimentResult(
        experiment_id="E16",
        title="Edge cache placement: backhaul bytes saved + generator cost",
        headers=[
            "row",
            "config",
            "uplink bytes",
            "hits",
            "misses",
            "bytes saved",
            "detail",
        ],
        paper_claim=(
            "placing network functions at the network edge keeps traffic "
            "local and off the backhaul; an edge cache makes the saving "
            "directly measurable in uplink byte counters"
        ),
        notes=(
            "both fleets and caches are identical; only placement differs. "
            "The core-placed cache records the same hit opportunities but "
            "forwards every request upstream, so the uplink gap is exactly "
            "the traffic an edge placement absorbs. Generator rows price "
            "the vectorized QUIC burst generator (multiple 0-RTT requests "
            "per simulator event) against the one-event-per-segment ABR "
            "fetcher"
        ),
    )
    for row in rows:
        result.add_row(*row)
    record_experiment(result)

    # The headline claim: the edge placement keeps >= MIN_SAVINGS of the
    # backhaul bytes local relative to the identical core placement.
    assert savings >= MIN_SAVINGS, f"savings {savings:.3f} below floor {MIN_SAVINGS}"
    # Both caches saw real hit opportunities (same traffic, same admission);
    # only the edge one turned them into saved backhaul bytes.
    assert edge["hits"] > 0 and core["hits"] > 0
    assert edge["backhaul_bytes_saved"] > 0
    assert core["backhaul_bytes_saved"] == 0
    # QUIC's uncacheable requests were classified, not silently cached.
    assert edge["uncacheable"] > 0 and core["uncacheable"] > 0
    # Vectorization is real: QUIC emits multiple requests per simulator
    # event, ABR exactly one fetch per event.
    assert generator_cost["quic"]["requests_per_event"] > 1.0
    assert generator_cost["abr"]["requests_per_event"] <= 1.0 + 1e-9
    assert (
        generator_cost["quic"]["requests_per_event"]
        > generator_cost["abr"]["requests_per_event"]
    )
