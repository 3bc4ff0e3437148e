"""Baseline models for the Table 2 comparison."""

from repro.baselines.expert import ExpertSystemModel
from repro.baselines.head import HeadClassifierModel
from repro.baselines.lm import LMClassifier
from repro.baselines.simple import MajorityClassModel

__all__ = [
    "LMClassifier",
    "MajorityClassModel",
    "ExpertSystemModel",
    "HeadClassifierModel",
]
