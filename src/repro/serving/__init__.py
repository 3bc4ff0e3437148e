"""Serving layer: the Behavior Card on a replica cluster, its two engines, monitoring."""

from repro.serving.behavior_card import (
    BehaviorCardConfig,
    BehaviorCardService,
    zigong_quantized_state,
    zigong_replica_factory,
)
from repro.serving.cluster import (
    ClusterConfig,
    ClusterStats,
    ClusterSupervisor,
    ForkTransport,
    Replica,
    ReplicaApp,
    ThreadTransport,
)
from repro.serving.continuous import ContinuousEngine, GenerationApp
from repro.serving.engine import (
    EngineConfig,
    EngineStats,
    MicroBatchEngine,
    PendingResult,
    ScoreRequest,
    ScoreResult,
)
from repro.serving.explain import (
    ExplainConfig,
    ExplainResult,
    ExplainService,
    InfluentialExample,
    TokenAttribution,
)
from repro.serving.scorecard import ScorecardScaler
from repro.serving.monitoring import (
    PSI_DRIFT,
    PSI_WATCH,
    DriftMonitor,
    ShadowDeployment,
    ShadowRecord,
    population_stability_index,
)

__all__ = [
    "ClusterSupervisor",
    "ClusterConfig",
    "ClusterStats",
    "Replica",
    "ReplicaApp",
    "ThreadTransport",
    "ForkTransport",
    "zigong_replica_factory",
    "zigong_quantized_state",
    "BehaviorCardService",
    "BehaviorCardConfig",
    "MicroBatchEngine",
    "ContinuousEngine",
    "GenerationApp",
    "EngineConfig",
    "EngineStats",
    "PendingResult",
    "ScoreRequest",
    "ScoreResult",
    "population_stability_index",
    "DriftMonitor",
    "ShadowDeployment",
    "ShadowRecord",
    "PSI_WATCH",
    "PSI_DRIFT",
    "ScorecardScaler",
    "ExplainService",
    "ExplainConfig",
    "ExplainResult",
    "InfluentialExample",
    "TokenAttribution",
]
