"""Sequence classification head on the MistralTiny backbone.

Table 3 lists ZiGong's task type as "Text Generation & Classification";
this is the classification half: mean-pool the backbone's hidden states
over non-padding positions and project to a single logit, trained with
binary cross entropy.  The discriminative counterpart to generate-and-
parse classification (compared head-to-head in
``benchmarks/bench_ablation_head.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.tensor import Tensor, no_grad
from repro.tensor.random import default_rng
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.transformer import MistralTiny, ModelConfig
from repro.optim.adamw import AdamW


def pad_sequences(sequences: Sequence[Sequence[int]], pad_id: int = 0) -> np.ndarray:
    """Right-pad ragged token sequences into one ``(batch, width)`` array.

    The companion of every batched scoring path: padding positions carry
    ``pad_id`` and are masked out downstream (mean-pooling here, causal
    attention plus last-real-position indexing in the LM path), so a
    padded batch scores identically to one-at-a-time calls.
    """
    if not sequences:
        raise ShapeError("pad_sequences() received no sequences")
    if any(len(seq) == 0 for seq in sequences):
        raise ShapeError("pad_sequences() received an empty sequence")
    width = max(len(seq) for seq in sequences)
    batch = np.full((len(sequences), width), pad_id, dtype=np.int64)
    for row, seq in enumerate(sequences):
        batch[row, : len(seq)] = seq
    return batch


class SequenceClassifier(Module):
    """Backbone + mean-pool + linear head -> P(positive)."""

    def __init__(self, config: ModelConfig, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.config = config
        self.backbone = MistralTiny(config, rng=rng)
        self.head = Linear(config.d_model, 1, rng=rng)
        self.pad_id = 0

    def _pooled(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.atleast_2d(np.asarray(token_ids))
        hidden = self.backbone.hidden_states(token_ids)  # (B, T, D)
        mask = (token_ids != self.pad_id).astype(np.float32)[:, :, None]
        counts = np.maximum(mask.sum(axis=1), 1.0)  # (B, 1)
        summed = (hidden * Tensor(mask)).sum(axis=1)  # (B, D)
        return summed * Tensor(1.0 / counts)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Raw classification logits, shape ``(batch,)``."""
        return self.head(self._pooled(token_ids)).reshape(-1)

    def loss(self, token_ids: np.ndarray, labels: np.ndarray) -> Tensor:
        """Numerically stable binary cross entropy on the logits."""
        labels = np.asarray(labels, dtype=np.float32).reshape(-1)
        token_ids = np.atleast_2d(np.asarray(token_ids))
        if labels.shape[0] != token_ids.shape[0]:
            raise ShapeError(
                f"{labels.shape[0]} labels for batch of {token_ids.shape[0]}"
            )
        z = self.forward(token_ids)
        y = Tensor(labels)
        # max(z, 0) - z*y + log(1 + exp(-|z|))
        return (z.relu() - z * y + ((-(z.abs())).exp() + 1.0).log()).mean()

    def predict_proba(self, token_ids: np.ndarray) -> np.ndarray:
        """P(positive) per sequence (no gradients)."""
        with no_grad():
            z = self.forward(token_ids)
        return 1.0 / (1.0 + np.exp(-z.data))

    def fit(
        self,
        token_sequences: Sequence[list[int]],
        labels: Sequence[int],
        epochs: int = 5,
        batch_size: int = 8,
        lr: float = 1e-3,
        seed: int = 0,
        pad_id: int = 0,
    ) -> list[float]:
        """Train the head (and backbone) with AdamW; returns epoch losses."""
        if len(token_sequences) != len(labels):
            raise ConfigError(
                f"{len(token_sequences)} sequences but {len(labels)} labels"
            )
        if not token_sequences:
            raise ConfigError("fit() received no sequences")
        self.pad_id = pad_id
        labels = np.asarray(labels, dtype=np.float32)
        optimizer = AdamW(self.parameters(), lr=lr)
        rng = np.random.default_rng(seed)
        history = []
        for _ in range(epochs):
            order = rng.permutation(len(token_sequences))
            epoch_losses = []
            for start in range(0, len(order), batch_size):
                idx = order[start : start + batch_size]
                batch = pad_sequences([token_sequences[i] for i in idx], pad_id=pad_id)
                optimizer.zero_grad()
                loss = self.loss(batch, labels[idx])
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            history.append(float(np.mean(epoch_losses)))
        return history
