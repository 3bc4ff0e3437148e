"""Reproduction of "ZiGong 1.0: A Large Language Model for Financial Credit".

Public API highlights:

* :class:`repro.core.ZiGong` — tokenizer + MistralTiny + LoRA fine-tuning
* :class:`repro.core.ZiGongPipeline` — warmup, TracSeq pruning, 70/30 mix,
  final fine-tune (the paper's Figure 1)
* :class:`repro.influence.TracSeq` — time-decayed influence (Eq. 1)
* :class:`repro.eval.CalmBenchmark` — the Table 2 evaluation suite
* :class:`repro.serving.BehaviorCardService` — the deployment surface
* :class:`repro.obs.Observability` — metrics / spans / events layer
"""

from repro.config import ZiGongConfig, bench_config, table3_rows, test_config
from repro.obs import MetricsRegistry, Observability, get_observability
from repro.core import (
    DataPruner,
    PipelineConfig,
    PipelineResult,
    PrunerConfig,
    ZiGong,
    ZiGongPipeline,
)
from repro.influence import TracInCP, TracSeq
from repro.serving import (
    BehaviorCardService,
    MicroBatchEngine,
    ScoreRequest,
    ScoreResult,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ZiGong",
    "ZiGongPipeline",
    "PipelineConfig",
    "PipelineResult",
    "DataPruner",
    "PrunerConfig",
    "TracInCP",
    "TracSeq",
    "BehaviorCardService",
    "MicroBatchEngine",
    "ScoreRequest",
    "ScoreResult",
    "ZiGongConfig",
    "test_config",
    "bench_config",
    "table3_rows",
    "Observability",
    "MetricsRegistry",
    "get_observability",
]
