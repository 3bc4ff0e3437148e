"""Calibration and hallucination metrics.

The paper motivates its data pruning as a *hallucination* mitigation.
For a yes/no credit model, the operational form of a hallucination is a
**confidently wrong** answer — a decision handed downstream with high
score but the wrong label.  This module quantifies that:

* ``brier_score`` — mean squared error of the probability forecast;
* ``expected_calibration_error`` — the standard binned |confidence −
  accuracy| gap;
* ``hallucination_rate`` — fraction of predictions that are wrong while
  the model's confidence exceeds a threshold.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EvaluationError


def _validate(y_true: Sequence[int], scores: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if y.size == 0:
        raise EvaluationError("empty inputs")
    if y.shape != s.shape:
        raise EvaluationError(f"labels shape {y.shape} != scores shape {s.shape}")
    if not np.isin(y, (0, 1)).all():
        raise EvaluationError("labels must be binary 0/1")
    if (s < 0).any() or (s > 1).any():
        raise EvaluationError("scores must be probabilities in [0, 1]")
    return y, s


def brier_score(y_true: Sequence[int], scores: Sequence[float]) -> float:
    """Mean squared error of P(positive) forecasts (lower is better)."""
    y, s = _validate(y_true, scores)
    return float(((s - y) ** 2).mean())


def expected_calibration_error(
    y_true: Sequence[int], scores: Sequence[float], n_bins: int = 10
) -> float:
    """Binned ECE over P(positive) (lower is better).

    Bins are equal-width on [0, 1]; empty bins contribute nothing.
    """
    if n_bins <= 0:
        raise EvaluationError("n_bins must be positive")
    y, s = _validate(y_true, scores)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    # Right-closed bins; clip so score 1.0 lands in the last bin.
    which = np.clip(np.digitize(s, edges[1:-1], right=False), 0, n_bins - 1)
    ece = 0.0
    for b in range(n_bins):
        mask = which == b
        if not mask.any():
            continue
        confidence = s[mask].mean()
        accuracy = y[mask].mean()
        ece += mask.mean() * abs(confidence - accuracy)
    return float(ece)


def hallucination_rate(
    y_true: Sequence[int],
    predictions: Sequence[int | None],
    scores: Sequence[float],
    confidence: float = 0.8,
) -> float:
    """Fraction of answers that are *confidently wrong*.

    A prediction hallucinates when it disagrees with the label while the
    model's confidence in its own answer — ``score`` for a positive
    prediction, ``1 - score`` for a negative one — exceeds
    ``confidence``.  Missing predictions are not hallucinations (the
    model declined to answer); they are captured by the Miss metric.
    """
    if not 0.0 < confidence < 1.0:
        raise EvaluationError(f"confidence must be in (0, 1), got {confidence}")
    y = np.asarray(y_true, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if y.size == 0:
        raise EvaluationError("empty inputs")
    if len(predictions) != y.size or s.size != y.size:
        raise EvaluationError("labels, predictions and scores must align")
    count = 0
    for label, pred, score in zip(y, predictions, s):
        if pred is None:
            continue
        own_confidence = score if pred == 1 else 1.0 - score
        if pred != label and own_confidence > confidence:
            count += 1
    return count / y.size
