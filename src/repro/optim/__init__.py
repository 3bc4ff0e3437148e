"""Optimizers, LR schedules and gradient utilities."""

from repro.optim.optimizer import Optimizer
from repro.optim.adamw import AdamW
from repro.optim.schedule import ConstantLR, CosineDecayLR, LRSchedule
from repro.optim.clip import clip_grad_norm, global_grad_norm

__all__ = [
    "Optimizer",
    "AdamW",
    "LRSchedule",
    "ConstantLR",
    "CosineDecayLR",
    "clip_grad_norm",
    "global_grad_norm",
]
