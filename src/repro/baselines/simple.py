"""Trivial baseline: the training majority class."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.eval.harness import CreditModel, EvalSample, Prediction


class MajorityClassModel(CreditModel):
    """Always answers the training majority class.

    This is the floor any model must beat on imbalanced fraud data —
    and the trap Table 2 shows several generic LLMs falling into.
    """

    name = "majority"

    def __init__(self, train_labels: Sequence[int]):
        labels = np.asarray(train_labels)
        if labels.size == 0:
            raise EvaluationError("MajorityClassModel needs training labels")
        self.majority = int(labels.mean() >= 0.5)
        self.base_rate = float(labels.mean())

    def predict(self, sample: EvalSample) -> Prediction:
        return Prediction(label=self.majority, score=self.base_rate)
