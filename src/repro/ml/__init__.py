"""Small classic-ML toolbox (from scratch) shared by baselines and pruning."""

from repro.ml.features import HashingVectorizer
from repro.ml.logistic import LogisticRegression

__all__ = [
    "LogisticRegression",
    "HashingVectorizer",
]
