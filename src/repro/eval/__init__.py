"""Evaluation: metrics, parsing, harness, CALM benchmark, reporting."""

from repro.eval.calibration import (
    brier_score,
    expected_calibration_error,
    hallucination_rate,
)
from repro.eval.bootstrap import ConfidenceInterval, bootstrap_metric
from repro.eval.calm import CalmBenchmark, CalmTask
from repro.eval.fairness import FairnessReport, fairness_report
from repro.eval.forgetting import ForgettingResult, measure_forgetting
from repro.eval.generative import GenerativeEvalResult, evaluate_generative
from repro.eval.harness import (
    CreditModel,
    EvalResult,
    EvalSample,
    Prediction,
    evaluate,
    make_eval_samples,
)
from repro.eval.metrics import (
    accuracy,
    f1_binary,
    ks_statistic,
    miss_rate,
    roc_auc,
    weighted_f1,
)
from repro.eval.parsing import parse_answer, parse_choice
from repro.eval.report import format_table

__all__ = [
    "accuracy",
    "f1_binary",
    "weighted_f1",
    "miss_rate",
    "ks_statistic",
    "roc_auc",
    "parse_answer",
    "parse_choice",
    "CreditModel",
    "EvalSample",
    "Prediction",
    "EvalResult",
    "evaluate",
    "make_eval_samples",
    "CalmBenchmark",
    "CalmTask",
    "format_table",
    "brier_score",
    "expected_calibration_error",
    "hallucination_rate",
    "GenerativeEvalResult",
    "evaluate_generative",
    "ConfidenceInterval",
    "bootstrap_metric",
    "ForgettingResult",
    "measure_forgetting",
    "FairnessReport",
    "fairness_report",
]
