"""Top-K selection of influential samples (the paper's Eq. 2).

``D = { z_t | z_t in Top-k TracSeq(z_t) }``
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from repro.errors import InfluenceError

T = TypeVar("T")


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores, in descending score order."""
    scores = np.asarray(scores, dtype=np.float64)
    if k <= 0 or k > scores.shape[0]:
        raise InfluenceError(f"k={k} out of range for {scores.shape[0]} scores")
    order = np.argsort(-scores, kind="stable")
    return order[:k]


def bottom_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` lowest scores, in ascending score order."""
    scores = np.asarray(scores, dtype=np.float64)
    if k <= 0 or k > scores.shape[0]:
        raise InfluenceError(f"k={k} out of range for {scores.shape[0]} scores")
    order = np.argsort(scores, kind="stable")
    return order[:k]


def select_top_k(items: Sequence[T], scores: np.ndarray, k: int) -> list[T]:
    """Return the ``k`` items with the highest scores (Eq. 2's dataset D)."""
    if len(items) != np.asarray(scores).shape[0]:
        raise InfluenceError(f"{len(items)} items but {len(scores)} scores")
    return [items[i] for i in top_k_indices(scores, k)]


def stratified_top_k(scores: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Top-K by score *within each label class*, proportionally allocated.

    Influence sums against a validation set are systematically biased
    toward the majority class (majority-aligned gradients dominate the
    validation gradient sum), so an unstratified Top-K can be single-label
    and destroy the training distribution.  Stratification preserves the
    pool's label mix while still preferring high-influence samples inside
    each class.  Returned indices are ordered by descending score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape[0] != scores.shape[0]:
        raise InfluenceError(f"{labels.shape[0]} labels for {scores.shape[0]} scores")
    if k <= 0 or k > scores.shape[0]:
        raise InfluenceError(f"k={k} out of range for {scores.shape[0]} scores")
    classes, counts = np.unique(labels, return_counts=True)
    # Largest-remainder proportional allocation of k over classes.
    exact = counts / counts.sum() * k
    alloc = np.floor(exact).astype(int)
    remainder = k - alloc.sum()
    if remainder > 0:
        order = np.argsort(-(exact - alloc))
        alloc[order[:remainder]] += 1
    alloc = np.minimum(alloc, counts)
    shortfall = k - alloc.sum()
    if shortfall > 0:  # redistribute to classes with spare members
        for i in np.argsort(-(counts - alloc)):
            take = min(shortfall, counts[i] - alloc[i])
            alloc[i] += take
            shortfall -= take
            if shortfall == 0:
                break
    chosen: list[np.ndarray] = []
    for cls, quota in zip(classes, alloc):
        if quota == 0:
            continue
        members = np.flatnonzero(labels == cls)
        order = members[np.argsort(-scores[members], kind="stable")]
        chosen.append(order[:quota])
    combined = np.concatenate(chosen)
    return combined[np.argsort(-scores[combined], kind="stable")]


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Min-max normalize scores to [0, 1] (constant arrays map to 0.5)."""
    scores = np.asarray(scores, dtype=np.float64)
    low, high = scores.min(), scores.max()
    if high - low < 1e-12:
        return np.full_like(scores, 0.5)
    return (scores - low) / (high - low)
