"""Expert-system baselines: classic ML on the numeric features.

These play the role of the "SOTA expert system models" column in
Table 2 — production credit scorecards are logistic regressions or
boosted trees over engineered features.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EvaluationError
from repro.datasets.base import TabularDataset
from repro.ml.logistic import LogisticRegression
from repro.eval.harness import CreditModel, EvalSample, Prediction


class ExpertSystemModel(CreditModel):
    """A fitted classic-ML model evaluated through the benchmark harness."""

    def __init__(self, estimator, threshold: float = 0.5, name: str = "expert"):
        self.estimator = estimator
        self.threshold = threshold
        self.name = name

    @classmethod
    def logistic(cls, train: TabularDataset, **kwargs) -> "ExpertSystemModel":
        """Fit a from-scratch logistic regression on the train split."""
        estimator = LogisticRegression(**kwargs).fit(train.X, train.y)
        return cls(estimator, name="logistic")

    def predict(self, sample: EvalSample) -> Prediction:
        if sample.features is None:
            raise EvaluationError("ExpertSystemModel needs samples with numeric features")
        proba = float(self.estimator.predict_proba(np.asarray(sample.features)[None, :])[0])
        return Prediction(label=int(proba >= self.threshold), score=proba)
