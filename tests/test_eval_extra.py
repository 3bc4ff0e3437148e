"""Tests for calibration metrics and the generative multi-choice harness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.data import InstructExample
from repro.eval import (
    brier_score,
    evaluate_generative,
    expected_calibration_error,
    hallucination_rate,
)


class TestBrier:
    def test_perfect_forecast(self):
        assert brier_score([1, 0], [1.0, 0.0]) == 0.0

    def test_worst_forecast(self):
        assert brier_score([1, 0], [0.0, 1.0]) == 1.0

    def test_hand_computed(self):
        assert brier_score([1, 0], [0.8, 0.4]) == pytest.approx((0.04 + 0.16) / 2)

    def test_validation(self):
        with pytest.raises(EvaluationError):
            brier_score([], [])
        with pytest.raises(EvaluationError):
            brier_score([1], [1.5])
        with pytest.raises(EvaluationError):
            brier_score([2], [0.5])

    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, pairs):
        y = [p[0] for p in pairs]
        s = [p[1] for p in pairs]
        assert 0.0 <= brier_score(y, s) <= 1.0


class TestECE:
    def test_perfectly_calibrated_bins(self):
        # Score 0.2 with 20% positives, score 0.8 with 80% positives.
        y = [0, 0, 0, 0, 1] + [1, 1, 1, 1, 0]
        s = [0.2] * 5 + [0.8] * 5
        assert expected_calibration_error(y, s, n_bins=5) == pytest.approx(0.0, abs=1e-9)

    def test_overconfident_model(self):
        y = [0, 1, 0, 1]
        s = [0.99, 0.99, 0.99, 0.99]
        assert expected_calibration_error(y, s) == pytest.approx(0.49, abs=0.01)

    def test_score_one_in_last_bin(self):
        assert expected_calibration_error([1, 1], [1.0, 1.0]) == pytest.approx(0.0)

    def test_invalid_bins(self):
        with pytest.raises(EvaluationError):
            expected_calibration_error([1], [0.5], n_bins=0)

    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, pairs):
        y = [p[0] for p in pairs]
        s = [p[1] for p in pairs]
        assert 0.0 <= expected_calibration_error(y, s) <= 1.0


class TestHallucinationRate:
    def test_confidently_wrong_counted(self):
        y = [0, 1]
        preds = [1, 1]
        scores = [0.95, 0.9]  # first is wrong and confident
        assert hallucination_rate(y, preds, scores) == 0.5

    def test_unconfident_wrong_not_counted(self):
        assert hallucination_rate([0], [1], [0.6]) == 0.0

    def test_confident_negative_wrong(self):
        # Predicts 0 with score 0.05 (confidence 0.95) but label is 1.
        assert hallucination_rate([1], [0], [0.05]) == 1.0

    def test_misses_excluded(self):
        assert hallucination_rate([1, 1], [None, 1], [0.99, 0.99]) == 0.0

    def test_threshold_validation(self):
        with pytest.raises(EvaluationError):
            hallucination_rate([1], [1], [0.5], confidence=1.0)

    def test_alignment_validation(self):
        with pytest.raises(EvaluationError):
            hallucination_rate([1, 0], [1], [0.5, 0.5])


class _FixedGenerator:
    def __init__(self, outputs):
        self.outputs = list(outputs)
        self.i = 0

    def __call__(self, prompt):
        out = self.outputs[self.i % len(self.outputs)]
        self.i += 1
        return out


def _examples(answers):
    label_of = {"bad": 0, "neutral": 1, "good": 2}
    return [
        InstructExample(prompt=f"text {i} question: sentiment ? answer:", answer=a, label=label_of[a])
        for i, a in enumerate(answers)
    ]


class TestEvaluateGenerative:
    CHOICES = ("bad", "neutral", "good")

    def test_all_correct(self):
        examples = _examples(["good", "bad"])
        gen = _FixedGenerator(["good", "bad"])
        result = evaluate_generative(gen, examples, self.CHOICES)
        assert result.accuracy == 1.0
        assert result.miss == 0.0
        assert result.per_class_accuracy["good"] == 1.0

    def test_miss_counted(self):
        examples = _examples(["good", "bad"])
        gen = _FixedGenerator(["mumble", "bad"])
        result = evaluate_generative(gen, examples, self.CHOICES)
        assert result.miss == 0.5
        assert result.accuracy == 0.5

    def test_confusion_tracks_errors(self):
        examples = _examples(["good", "good"])
        gen = _FixedGenerator(["bad", "good"])
        result = evaluate_generative(gen, examples, self.CHOICES)
        assert result.confusion[("good", "bad")] == 1
        assert result.confusion[("good", "good")] == 1

    def test_unknown_answer_rejected(self):
        examples = [InstructExample("p", "sideways", 0)]
        with pytest.raises(EvaluationError):
            evaluate_generative(_FixedGenerator(["x"]), examples, self.CHOICES)

    def test_empty_inputs_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate_generative(_FixedGenerator(["x"]), [], self.CHOICES)
        with pytest.raises(EvaluationError):
            evaluate_generative(_FixedGenerator(["x"]), _examples(["good"]), ())
