"""Centralised ("core") NFV baseline for the edge-vs-core latency comparison.

The paper motivates edge NFs with "customized services to users at low
latency and high throughput".  The latency win materialises whenever an NF
can answer the client locally -- a cache hit, a blocked page, a DNS answer --
instead of the request travelling over the backhaul to the core.

This baseline therefore models the centralised deployment as *the same
functions sitting next to the origin servers*: the client's requests always
traverse the access + backhaul path, and any "local" answer is produced at
the core, saving nothing.  In the emulation that is equivalent to running the
workload without edge NFs (the origin already answers every request), which
is exactly how :class:`CoreNFVScenario` measures it.  The edge deployment is
measured by the same scenario class with ``edge_nf=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.chain import ServiceChain
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.netem.trafficgen import HTTPWorkloadGenerator
from repro.wireless.mobility import StaticMobility


@dataclass
class LatencyComparison:
    """Result of one edge-vs-core run."""

    deployment: str
    mean_latency_s: float
    p95_latency_s: float
    requests: int
    responses: int
    served_locally: int


class CoreNFVScenario:
    """Runs a web workload with the NF chain at the edge or at the core."""

    def __init__(
        self,
        edge_nf: bool,
        chain: Optional[ServiceChain] = None,
        config: Optional[TestbedConfig] = None,
        mean_think_time_s: float = 0.2,
        sites: Optional[List[str]] = None,
    ) -> None:
        self.edge_nf = edge_nf
        self.chain = chain or ServiceChain.single("cache", config={"capacity_mb": 64.0})
        self.config = config or TestbedConfig(station_count=2)
        self.mean_think_time_s = mean_think_time_s
        self.sites = sites or ["cdn.example.com"]
        self.deployment_name = "edge" if edge_nf else "core"

    def run(self, duration_s: float = 60.0) -> LatencyComparison:
        """Run the workload and summarise per-request latency."""
        testbed = GNFTestbed(self.config)
        client = testbed.add_client("latency-client", position=(0.0, 0.0))
        StaticMobility(testbed.simulator, client).start()
        testbed.start()
        testbed.run(1.0)

        if self.edge_nf:
            testbed.manager.attach_chain(client.ip, self.chain)
            testbed.run(5.0)

        workload = HTTPWorkloadGenerator(
            testbed.simulator,
            client,
            server_ip=testbed.server_ip,
            sites=self.sites,
            # Repeated paths so an edge cache actually gets hits.
            paths=["/index.html", "/article"],
            mean_think_time_s=self.mean_think_time_s,
        )
        workload.start()
        testbed.run(duration_s)
        workload.stop()

        rtts = sorted(workload.rtts)
        served_locally = 0
        if self.edge_nf:
            deployment = testbed.agents[
                testbed.manager.assignments_for_client(client.ip)[0].station_name
            ].deployment_for_client(client.ip)
            if deployment is not None:
                cache_nf = deployment.nf_by_type("cache")
                if cache_nf is not None:
                    served_locally = int(getattr(cache_nf.nf, "hits", 0))
        mean_latency = sum(rtts) / len(rtts) if rtts else 0.0
        p95 = rtts[int(0.95 * (len(rtts) - 1))] if rtts else 0.0
        return LatencyComparison(
            deployment=self.deployment_name,
            mean_latency_s=mean_latency,
            p95_latency_s=p95,
            requests=workload.packets_sent,
            responses=workload.responses_received,
            served_locally=served_locally,
        )
