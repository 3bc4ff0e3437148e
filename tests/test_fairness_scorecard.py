"""Fairness metrics and scorecard-scaling tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import EvaluationError, ServingError
from repro.eval import FairnessReport, fairness_report
from repro.serving import ScorecardScaler


class TestFairnessReport:
    def test_parity_when_identical(self):
        y = [1, 0, 1, 0]
        pred = [1, 0, 1, 0]
        group = [0, 0, 1, 1]
        report = fairness_report(y, pred, group)
        assert report.demographic_parity_difference == 0.0
        assert report.disparate_impact_ratio == 1.0
        assert report.passes_four_fifths()

    def test_blatant_disparity(self):
        # Group A always approved, group B never.
        y = [1, 0, 1, 0]
        pred = [1, 1, 0, 0]
        group = [0, 0, 1, 1]
        report = fairness_report(y, pred, group)
        assert report.positive_rate_a == 1.0
        assert report.positive_rate_b == 0.0
        assert report.demographic_parity_difference == 1.0
        assert report.disparate_impact_ratio == 0.0
        assert not report.passes_four_fifths()

    def test_equalized_odds_hand_computed(self):
        # Group A: TPR=1, FPR=0; group B: TPR=0, FPR=1.
        y = [1, 0, 1, 0]
        pred = [1, 0, 0, 1]
        group = [0, 0, 1, 1]
        report = fairness_report(y, pred, group)
        assert report.equalized_odds_difference == 1.0

    def test_four_fifths_boundary(self):
        # rates 0.8 vs 1.0 -> ratio exactly 0.8 passes.
        y = [1] * 10
        pred = [1, 1, 1, 1, 0] + [1] * 5
        group = [0] * 5 + [1] * 5
        report = fairness_report(y, pred, group)
        assert report.disparate_impact_ratio == pytest.approx(0.8)
        assert report.passes_four_fifths()

    def test_zero_approvals_everywhere(self):
        report = fairness_report([1, 0], [0, 0], [0, 1])
        assert report.disparate_impact_ratio == 1.0  # vacuous parity

    def test_validation(self):
        with pytest.raises(EvaluationError):
            fairness_report([], [], [])
        with pytest.raises(EvaluationError):
            fairness_report([1], [1], [0])  # one group missing
        with pytest.raises(EvaluationError):
            fairness_report([2], [1], [0])
        with pytest.raises(EvaluationError):
            fairness_report([1, 0], [1], [0, 1])

    def test_on_model_output(self, fitted_zigong, german_small):
        """End-to-end: audit a fitted model's decisions by an age split."""
        from repro.eval import make_eval_samples

        samples = make_eval_samples(german_small)[:60]
        preds = [
            0 if p.label is None else p.label
            for p in fitted_zigong.classifier().predict_many(samples)
        ]
        labels = [s.label for s in samples]
        age = german_small.X[:60, 8]
        group = (age > np.median(age)).astype(int)
        report = fairness_report(labels, preds, group)
        assert 0.0 <= report.demographic_parity_difference <= 1.0


class TestMissingSupportRates:
    """Regression: a group with no positives/negatives used to report a
    silent 0.0 TPR/FPR — a fake "perfect parity" signal.  Missing support
    must surface as nan, and propagate into the odds gap."""

    def test_no_positives_in_one_group_gives_nan_tpr(self):
        # Group B is all-negative: its TPR does not exist.
        report = fairness_report([1, 0, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1])
        assert report.tpr_a == 1.0
        assert report.fpr_a == 0.0
        assert math.isnan(report.tpr_b)
        assert report.fpr_b == 0.5
        assert math.isnan(report.equalized_odds_difference)

    def test_no_negatives_in_one_group_gives_nan_fpr(self):
        report = fairness_report([1, 0, 1, 1], [1, 0, 1, 0], [0, 0, 1, 1])
        assert math.isnan(report.fpr_b)
        assert math.isnan(report.equalized_odds_difference)

    def test_nan_propagation_is_order_independent(self):
        """max() under nan is order-dependent; the report must not be."""
        flipped = fairness_report([1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0])
        assert math.isnan(flipped.equalized_odds_difference)

    def test_full_support_unchanged(self):
        report = fairness_report([1, 0, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1])
        assert report.equalized_odds_difference == 1.0
        assert report.tpr_a == 1.0 and report.fpr_a == 0.0
        assert report.tpr_b == 0.0 and report.fpr_b == 1.0

    def test_parity_metrics_unaffected_by_missing_support(self):
        report = fairness_report([1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1])
        assert report.demographic_parity_difference == 0.0
        assert report.disparate_impact_ratio == 1.0
        assert math.isnan(report.equalized_odds_difference)


class TestScorecardScaler:
    def test_base_anchor(self):
        scaler = ScorecardScaler(base_score=600, base_odds=50, pdo=20)
        p_at_base = 1.0 / 51.0  # odds 50:1 good:bad
        assert scaler.score(p_at_base) == pytest.approx(600, abs=1e-6)

    def test_pdo_doubles_odds(self):
        scaler = ScorecardScaler(base_score=600, base_odds=50, pdo=20)
        p_base = 1.0 / 51.0
        p_double = 1.0 / 101.0  # odds 100:1
        assert scaler.score(p_double) - scaler.score(p_base) == pytest.approx(20, abs=1e-6)

    def test_monotone_decreasing_in_risk(self):
        scaler = ScorecardScaler()
        scores = [scaler.score(p) for p in (0.01, 0.05, 0.2, 0.5, 0.9)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_clamped_to_range(self):
        scaler = ScorecardScaler()
        assert scaler.score(1e-9) == scaler.max_score
        assert scaler.score(1 - 1e-9) == scaler.min_score

    def test_bands_ordered(self):
        scaler = ScorecardScaler()
        assert scaler.band(0.004) == "excellent"
        assert scaler.band(0.9) == "poor"
        ordering = ["excellent", "good", "fair", "poor"]
        bands = [scaler.band(p) for p in (0.004, 0.02, 0.5, 0.95)]
        assert [b for b in ordering if b in bands] == list(dict.fromkeys(bands))

    def test_validation(self):
        with pytest.raises(ServingError):
            ScorecardScaler(pdo=0)
        with pytest.raises(ServingError):
            ScorecardScaler(min_score=900, max_score=850)
        with pytest.raises(ServingError):
            ScorecardScaler().score(1.5)

    def test_factor_formula(self):
        scaler = ScorecardScaler(pdo=40)
        assert scaler.factor == pytest.approx(40 / math.log(2))
