"""Evaluation metrics: accuracy, F1, miss rate, KS, ROC-AUC.

Conventions follow the CALM benchmark the paper evaluates on:

* a *missed* prediction (the model's output could not be parsed into a
  valid answer) counts as incorrect for accuracy and as a negative
  prediction for F1;
* ``Miss`` itself is reported separately (smaller is better);
* the KS statistic — the financial risk-control industry's standard
  discrimination measure — is the maximum gap between the score CDFs of
  the two classes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EvaluationError


def _check_labels(y_true: np.ndarray) -> np.ndarray:
    y_true = np.asarray(y_true, dtype=np.int64)
    if y_true.size == 0:
        raise EvaluationError("empty label array")
    if not np.isin(y_true, (0, 1)).all():
        raise EvaluationError("labels must be binary 0/1")
    return y_true


def miss_rate(predictions: Sequence[int | None]) -> float:
    """Fraction of predictions that are missing (``None``)."""
    if not len(predictions):
        raise EvaluationError("empty prediction list")
    return sum(1 for p in predictions if p is None) / len(predictions)


def accuracy(y_true: Sequence[int], predictions: Sequence[int | None]) -> float:
    """Accuracy with missing predictions counted as incorrect."""
    y_true = _check_labels(y_true)
    if len(predictions) != y_true.shape[0]:
        raise EvaluationError(f"{len(predictions)} predictions for {y_true.shape[0]} labels")
    correct = sum(1 for t, p in zip(y_true, predictions) if p is not None and p == t)
    return correct / y_true.shape[0]


def f1_binary(y_true: Sequence[int], predictions: Sequence[int | None], positive: int = 1) -> float:
    """Binary F1 for the ``positive`` class; missing predictions count negative."""
    y_true = _check_labels(y_true)
    if len(predictions) != y_true.shape[0]:
        raise EvaluationError(f"{len(predictions)} predictions for {y_true.shape[0]} labels")
    tp = fp = fn = 0
    for t, p in zip(y_true, predictions):
        pred_pos = p is not None and p == positive
        true_pos = t == positive
        if pred_pos and true_pos:
            tp += 1
        elif pred_pos and not true_pos:
            fp += 1
        elif not pred_pos and true_pos:
            fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def weighted_f1(y_true: Sequence[int], predictions: Sequence[int | None]) -> float:
    """Support-weighted average of per-class F1 (the CALM reporting style)."""
    y_true = _check_labels(y_true)
    total = y_true.shape[0]
    score = 0.0
    for cls in (0, 1):
        support = int((y_true == cls).sum())
        if support == 0:
            continue
        score += support / total * f1_binary(y_true, predictions, positive=cls)
    return score


def ks_statistic(y_true: Sequence[int], scores: Sequence[float]) -> float:
    """Kolmogorov–Smirnov statistic between positive and negative scores.

    ``max_s |P(score <= s | y=1) - P(score <= s | y=0)|`` — equivalently
    the maximum of ``|TPR - FPR|`` over thresholds.
    """
    y_true = _check_labels(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != y_true.shape[0]:
        raise EvaluationError(f"{scores.shape[0]} scores for {y_true.shape[0]} labels")
    pos = np.sort(scores[y_true == 1])
    neg = np.sort(scores[y_true == 0])
    if pos.size == 0 or neg.size == 0:
        raise EvaluationError("KS needs both classes present")
    grid = np.unique(scores)
    cdf_pos = np.searchsorted(pos, grid, side="right") / pos.size
    cdf_neg = np.searchsorted(neg, grid, side="right") / neg.size
    return float(np.abs(cdf_pos - cdf_neg).max())


def roc_auc(y_true: Sequence[int], scores: Sequence[float]) -> float:
    """Rank-based ROC-AUC (ties share rank)."""
    y_true = _check_labels(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[0] != y_true.shape[0]:
        raise EvaluationError(f"{scores.shape[0]} scores for {y_true.shape[0]} labels")
    n_pos = int(y_true.sum())
    n_neg = y_true.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs both classes present")
    order = np.argsort(scores)
    ranks = np.empty_like(order, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    rank = 1
    while i < sorted_scores.size:
        j = i
        while j + 1 < sorted_scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        mean_rank = (rank + rank + (j - i)) / 2.0
        ranks[order[i : j + 1]] = mean_rank
        rank += j - i + 1
        i = j + 1
    sum_pos = ranks[y_true == 1].sum()
    return float((sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
