"""Learning-rate schedules.

The paper trains with cosine decay (Table 3); warmup and constant
schedules are provided for ablations and the trainer's default.
"""

from __future__ import annotations

import abc
import math

from repro.errors import ConfigError


class LRSchedule(abc.ABC):
    """Maps a 0-based optimizer step to a learning rate."""

    @abc.abstractmethod
    def lr_at(self, step: int) -> float:
        """Learning rate to use for optimizer step ``step``."""

    def __call__(self, step: int) -> float:
        return self.lr_at(step)


class ConstantLR(LRSchedule):
    """A fixed learning rate."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr

    def lr_at(self, step: int) -> float:
        return self.lr


class CosineDecayLR(LRSchedule):
    """Linear warmup followed by cosine decay to ``min_lr``.

    After ``total_steps`` the schedule stays at ``min_lr``.
    """

    def __init__(self, base_lr: float, total_steps: int, warmup_steps: int = 0, min_lr: float = 0.0):
        if base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {base_lr}")
        if total_steps <= 0:
            raise ConfigError(f"total_steps must be positive, got {total_steps}")
        if not 0 <= warmup_steps < total_steps:
            raise ConfigError(
                f"warmup_steps must be in [0, total_steps), got {warmup_steps}/{total_steps}"
            )
        if not 0 <= min_lr <= base_lr:
            raise ConfigError("min_lr must be in [0, base_lr]")
        self.base_lr = base_lr
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self.min_lr = min_lr

    def lr_at(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return self.base_lr * (step + 1) / self.warmup_steps
        progress = (step - self.warmup_steps) / max(self.total_steps - self.warmup_steps, 1)
        progress = min(progress, 1.0)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine
