"""Training loop, batching, checkpoints, step history and metrics."""

from repro.training.batching import IGNORE_INDEX, TokenBatch, collate, iter_batches
from repro.training.callbacks import History, MetricsLogger, StepLog
from repro.training.checkpoint import CheckpointManager, CheckpointRecord
from repro.training.trainer import Trainer, TrainingConfig

__all__ = [
    "IGNORE_INDEX",
    "TokenBatch",
    "collate",
    "iter_batches",
    "History",
    "MetricsLogger",
    "StepLog",
    "CheckpointManager",
    "CheckpointRecord",
    "Trainer",
    "TrainingConfig",
]
