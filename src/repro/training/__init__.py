"""Training loop, batching, checkpoints and callbacks."""

from repro.training.batching import IGNORE_INDEX, TokenBatch, collate, iter_batches
from repro.training.callbacks import (
    Callback,
    History,
    MetricsLogger,
    StepLog,
)
from repro.training.checkpoint import CheckpointManager, CheckpointRecord
from repro.training.trainer import Trainer, TrainingConfig

__all__ = [
    "IGNORE_INDEX",
    "TokenBatch",
    "collate",
    "iter_batches",
    "Callback",
    "History",
    "MetricsLogger",
    "StepLog",
    "CheckpointManager",
    "CheckpointRecord",
    "Trainer",
    "TrainingConfig",
]
