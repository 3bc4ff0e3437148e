"""Hybrid training-set construction (Section 3.2 of the paper).

"70% of the samples are randomly selected from the entire dataset, while
the remaining 30% are high-influence samples filtered through data
pruning."
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from repro.errors import DataError
from repro.influence.selection import stratified_top_k, top_k_indices

T = TypeVar("T")


def hybrid_mix(
    examples: Sequence[T],
    scores: np.ndarray,
    total: int | None = None,
    pruned_fraction: float = 0.3,
    seed: int = 0,
    labels: Sequence[int] | None = None,
) -> list[T]:
    """Build the paper's 70/30 random + high-influence training mix.

    Parameters
    ----------
    examples:
        Candidate pool.
    scores:
        Influence scores aligned with ``examples`` (TracSeq output).
    total:
        Target training-set size (defaults to ``len(examples)``).
    pruned_fraction:
        Share of the mix taken from the Top-K by score (paper: 0.3).
        The random portion is drawn from outside the Top-K, so the mix
        has no duplicates.
    labels:
        Optional class labels aligned with ``examples``.  When given, the
        Top-K selection is stratified per class, preventing the pruned
        slice from collapsing onto the majority class (see
        :func:`repro.influence.selection.stratified_top_k`).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(examples) != scores.shape[0]:
        raise DataError(f"{len(examples)} examples but {scores.shape[0]} scores")
    if not 0.0 <= pruned_fraction <= 1.0:
        raise DataError(f"pruned_fraction must be in [0, 1], got {pruned_fraction}")
    total = total if total is not None else len(examples)
    if total <= 0 or total > len(examples):
        raise DataError(f"total={total} out of range for {len(examples)} examples")

    n_pruned = int(round(pruned_fraction * total))
    n_random = total - n_pruned
    rng = np.random.default_rng(seed)

    if n_pruned == 0:
        pruned_idx = np.array([], dtype=np.int64)
    elif labels is not None:
        pruned_idx = stratified_top_k(scores, np.asarray(labels), n_pruned)
    else:
        pruned_idx = top_k_indices(scores, n_pruned)
    pool = np.setdiff1d(np.arange(len(examples)), pruned_idx)
    if n_random > pool.size:
        raise DataError(
            f"cannot draw {n_random} non-overlapping random samples from a pool of {pool.size}"
        )
    random_idx = rng.choice(pool, size=n_random, replace=False) if n_random else np.array([], dtype=np.int64)

    chosen = np.concatenate([pruned_idx, random_idx]).astype(np.int64)
    rng.shuffle(chosen)
    return [examples[i] for i in chosen]
