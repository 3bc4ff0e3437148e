"""Perplexity-based data scoring (the PPL metric of Li et al., 2023).

A cheap alternative to gradient influence: score each training sample
by how well the (warmup) model already predicts its answer span.  Low
perplexity = clean, representative, learnable; high perplexity = noisy
or out-of-distribution.  The pruning pipeline exposes this as the
``"ppl"`` strategy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.influence.gradients import TokenExample
from repro.tensor import no_grad


def sample_losses(model, examples: Sequence[TokenExample]) -> np.ndarray:
    """Per-sample mean answer-token cross entropy (no gradients)."""
    if not examples:
        raise InfluenceError("sample_losses() received no examples")
    losses = np.empty(len(examples))
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for i, (input_ids, labels) in enumerate(examples):
                loss = model.loss(
                    np.asarray(input_ids, dtype=np.int64)[None, :],
                    np.asarray(labels, dtype=np.int64)[None, :],
                )
                losses[i] = loss.item()
    finally:
        if was_training:
            model.train()
    return losses


def ppl_quality_scores(model, examples: Sequence[TokenExample]) -> np.ndarray:
    """Quality scores: negated loss, so Top-K keeps low-perplexity samples."""
    return -sample_losses(model, examples)
