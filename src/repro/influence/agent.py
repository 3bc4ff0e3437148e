"""The lightweight *agent model* that scores training samples.

The paper: "we employ an agent model (a domain-specific lightweight
model) to assign scores to training samples, and then integrate the
pruned samples with the original data for model training."

Here the agent is a from-scratch logistic regression over hashed
bag-of-word features of the instruction text.  A sample's score is the
agent's confidence in the sample's *own* label — representative,
learnable samples score high; noisy or mislabeled ones score low.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.ml.features import HashingVectorizer
from repro.ml.logistic import LogisticRegression

# Width of the hashed bag-of-words features.
N_FEATURES = 256


class AgentScorer:
    """Score instruction samples with a lightweight domain model."""

    def __init__(self):
        self.vectorizer = HashingVectorizer(n_features=N_FEATURES)
        self.model = LogisticRegression()
        self._fitted = False

    def fit(self, texts: Sequence[str], labels: Sequence[int]) -> "AgentScorer":
        """Train the agent on ``(prompt text, binary label)`` pairs."""
        labels = np.asarray(labels)
        if len(texts) != labels.shape[0]:
            raise InfluenceError(f"{len(texts)} texts but {labels.shape[0]} labels")
        if labels.min() < 0 or labels.max() > 1:
            raise InfluenceError("agent labels must be binary 0/1")
        X = self.vectorizer.transform(list(texts))
        self.model.fit(X, labels)
        self._fitted = True
        return self

    def score(self, texts: Sequence[str], labels: Sequence[int]) -> np.ndarray:
        """Per-sample quality scores in [0, 1].

        Score = agent's predicted probability of the sample's own label.
        """
        if not self._fitted:
            raise InfluenceError("AgentScorer.score() called before fit()")
        labels = np.asarray(labels)
        if len(texts) != labels.shape[0]:
            raise InfluenceError(f"{len(texts)} texts but {labels.shape[0]} labels")
        proba = self.model.predict_proba(self.vectorizer.transform(list(texts)))
        return np.where(labels == 1, proba, 1.0 - proba)
