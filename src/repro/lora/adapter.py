"""LoRA: low-rank adaptation of linear layers (Hu et al., 2021).

A :class:`LoRALinear` wraps a frozen base :class:`~repro.nn.Linear` and
adds a trainable low-rank update ``(alpha / r) * B @ A``.  The paper's
configuration (Table 3) is rank 8, alpha 16, applied to the attention
query/key/value projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.tensor import Tensor
from repro.tensor.random import default_rng
from repro.nn.layers import Linear, linear
from repro.nn.module import Module, Parameter


@dataclass(frozen=True)
class LoRAConfig:
    """LoRA hyperparameters; defaults match the paper's Table 3."""

    rank: int = 8
    alpha: float = 16.0
    target_modules: tuple[str, ...] = ("wq", "wk", "wv")
    # Keep embedding tables trainable alongside the adapters (the
    # ``modules_to_save`` pattern from HF PEFT).  Our base model is not
    # pretrained at 7B scale, so the tied embedding/head must adapt for
    # the answer head to be learnable at all.
    train_embeddings: bool = True

    def __post_init__(self):
        if self.rank <= 0:
            raise ConfigError(f"LoRA rank must be positive, got {self.rank}")
        if self.alpha <= 0:
            raise ConfigError(f"LoRA alpha must be positive, got {self.alpha}")
        if not self.target_modules:
            raise ConfigError("LoRA target_modules must not be empty")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


class LoRALinear(Module):
    """A frozen linear layer plus a trainable low-rank residual.

    ``lora_a`` is Gaussian-initialized and ``lora_b`` zero-initialized so
    the adapted layer starts exactly equal to the base layer.
    """

    def __init__(self, base: Linear, config: LoRAConfig, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.base = base
        self.config = config
        self.rank = config.rank
        self.scaling = config.scaling
        base.weight.requires_grad = False
        if base.bias is not None:
            base.bias.requires_grad = False
        in_features = base.in_features
        out_features = base.out_features
        self.lora_a = Parameter(
            rng.normal(0.0, 1.0 / config.rank, size=(config.rank, in_features)).astype(np.float32)
        )
        self.lora_b = Parameter(np.zeros((out_features, config.rank), dtype=np.float32))
        self._merged = False

    @property
    def merged(self) -> bool:
        return self._merged

    def delta_weight(self) -> np.ndarray:
        """The dense update ``scaling * B @ A`` currently represented."""
        return (self.scaling * (self.lora_b.data @ self.lora_a.data)).astype(np.float32)

    def forward(self, x: Tensor) -> Tensor:
        if self._merged:
            return self.base(x)
        lora = (self.lora_a, self.lora_b, self.scaling)
        return linear(x, self.base.weight, self.base.bias, lora)

    def merged_weight(self) -> np.ndarray:
        """The base weight with the update folded in: what :meth:`merge` stores.

        Once merged, that is the base weight itself (not a copy).
        """
        if self._merged:
            return self.base.weight.data
        return self.base.weight.data + self.delta_weight()

    def merge(self) -> None:
        """Fold the low-rank update into the base weight (for inference)."""
        if self._merged:
            return
        self.base.weight.data = self.merged_weight()
        self._merged = True
