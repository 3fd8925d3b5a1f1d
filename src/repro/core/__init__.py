"""The GNF framework itself (the paper's contribution).

* :mod:`repro.core.manager` -- the central Manager (attach/detach API,
  monitoring, hotspot detection, notifications).
* :mod:`repro.core.agent` -- the per-station Agent (container lifecycle,
  veth/flow-rule wiring, client events, heartbeats).
* :mod:`repro.core.ui` -- the operator dashboard over the Manager API.
* :mod:`repro.core.migration` -- NF migration that follows roaming clients
  (cold / stateful / pre-copy strategies).
* :mod:`repro.core.repository` -- the central NF image catalogue.
* :mod:`repro.core.chain` / :mod:`repro.core.policy` -- service chains and
  per-client traffic selectors.
* :mod:`repro.core.placement` -- the placement subsystem: strategies
  (closest agent, least-loaded, latency-weighted, bin-packing, core...),
  the PlacementEngine (admission control + queueing) and the NFAutoscaler.
* :mod:`repro.core.sharding` -- the multi-leaf control plane (ShardedManager
  frontend over region x shard leaves, ControlBus message coalescing,
  handoffs between leaves).
* :mod:`repro.core.scheduler` -- time-scheduled NF activation.
* :mod:`repro.core.bundles` -- versioned service-bundle templates (multi-
  slice NF graphs with per-slice SLOs) and the rolling-upgrade
  orchestrator that walks live instances between versions with zero
  coverage gap.
* :mod:`repro.core.monitoring` / :mod:`repro.core.notifications` -- health,
  hotspots and provider notifications.
* :mod:`repro.core.testbed` -- one-call assembly of a complete emulated GNF
  deployment (topology + wireless + Manager + Agents + UI).
"""

from repro.core.agent import ChainDeployment, DeployedNF, GNFAgent
from repro.core.bundles import (
    BundleCatalogue,
    BundleError,
    BundleNF,
    BundleSpec,
    BundleUpgradeOrchestrator,
    SliceSpec,
    default_catalogue,
)
from repro.core.api import (
    AgentHeartbeat,
    ClientEvent,
    ControlChannel,
    DeployChainRequest,
    DeployChainResponse,
    NFNotificationMessage,
    RegisterAgent,
    RemoveChainRequest,
)
from repro.core.chain import NFSpec, ServiceChain
from repro.core.errors import (
    CatalogError,
    DeploymentError,
    GNFError,
    MigrationError,
    ScenarioSpecError,
    ScheduleError,
    UnknownAgentError,
    UnknownAssignmentError,
    UnknownClientError,
)
from repro.core.manager import Assignment, AssignmentState, GNFManager
from repro.core.migration import MigrationEngine, MigrationRecord
from repro.core.monitoring import Hotspot, HotspotDetector
from repro.core.notifications import NotificationCenter, ProviderNotification
from repro.core.placement import (
    BinPackingPlacement,
    ClosestAgentPlacement,
    CorePlacement,
    LatencyAwarePlacement,
    LatencyWeightedPlacement,
    LeastLoadedPlacement,
    LoadAwarePlacement,
    NFAutoscaler,
    PlacementDecision,
    PlacementEngine,
    ScaleEvent,
    StationView,
    make_strategy,
)
from repro.core.policy import TrafficSelector
from repro.core.repository import CatalogEntry, NFRepository
from repro.core.scheduler import NFScheduler, ScheduleWindow, TimeSchedule
from repro.core.sharding import ControlBus, ShardedManager, ShardHandoff, StationShardMap
from repro.core.testbed import GNFTestbed, TestbedConfig
from repro.core.ui import GNFDashboard

__all__ = [
    "GNFAgent",
    "ChainDeployment",
    "DeployedNF",
    "GNFManager",
    "ShardedManager",
    "ControlBus",
    "StationShardMap",
    "ShardHandoff",
    "Assignment",
    "AssignmentState",
    "GNFDashboard",
    "MigrationEngine",
    "MigrationRecord",
    "NFRepository",
    "CatalogEntry",
    "ServiceChain",
    "NFSpec",
    "TrafficSelector",
    "TimeSchedule",
    "ScheduleWindow",
    "NFScheduler",
    "BundleCatalogue",
    "BundleError",
    "BundleNF",
    "BundleSpec",
    "BundleUpgradeOrchestrator",
    "SliceSpec",
    "default_catalogue",
    "ClosestAgentPlacement",
    "LoadAwarePlacement",
    "LatencyAwarePlacement",
    "LeastLoadedPlacement",
    "LatencyWeightedPlacement",
    "BinPackingPlacement",
    "CorePlacement",
    "PlacementEngine",
    "PlacementDecision",
    "NFAutoscaler",
    "ScaleEvent",
    "StationView",
    "make_strategy",
    "HotspotDetector",
    "Hotspot",
    "NotificationCenter",
    "ProviderNotification",
    "ControlChannel",
    "AgentHeartbeat",
    "ClientEvent",
    "NFNotificationMessage",
    "RegisterAgent",
    "DeployChainRequest",
    "DeployChainResponse",
    "RemoveChainRequest",
    "GNFTestbed",
    "TestbedConfig",
    "GNFError",
    "UnknownAgentError",
    "UnknownClientError",
    "UnknownAssignmentError",
    "DeploymentError",
    "MigrationError",
    "CatalogError",
    "ScheduleError",
    "ScenarioSpecError",
]
