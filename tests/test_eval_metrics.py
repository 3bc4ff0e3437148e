"""Metric tests: hand-worked cases plus hypothesis properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.eval import (
    accuracy,
    f1_binary,
    ks_statistic,
    miss_rate,
    roc_auc,
    weighted_f1,
)


class TestAccuracyAndMiss:
    def test_accuracy_basic(self):
        assert accuracy([1, 0, 1, 0], [1, 0, 0, 0]) == 0.75

    def test_miss_counts_as_wrong(self):
        assert accuracy([1, 1], [1, None]) == 0.5

    def test_miss_rate(self):
        assert miss_rate([1, None, 0, None]) == 0.5
        assert miss_rate([1, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            accuracy([1, 0], [1])

    def test_empty_raises(self):
        with pytest.raises(EvaluationError):
            miss_rate([])
        with pytest.raises(EvaluationError):
            accuracy([], [])

    def test_non_binary_labels_raise(self):
        with pytest.raises(EvaluationError):
            accuracy([0, 2], [0, 1])


class TestF1:
    def test_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_hand_computed(self):
        # tp=1, fp=1, fn=1 -> precision=0.5, recall=0.5, f1=0.5
        assert f1_binary([1, 0, 1, 0], [1, 1, 0, 0]) == 0.5

    def test_no_positive_predictions(self):
        assert f1_binary([1, 1, 0], [0, 0, 0]) == 0.0

    def test_miss_counts_as_negative(self):
        with_miss = f1_binary([1, 1], [1, None])
        explicit = f1_binary([1, 1], [1, 0])
        assert with_miss == explicit

    def test_weighted_f1_balanced_equals_mean(self):
        y = [1, 1, 0, 0]
        p = [1, 0, 0, 1]
        expected = 0.5 * f1_binary(y, p, positive=1) + 0.5 * f1_binary(y, p, positive=0)
        assert weighted_f1(y, p) == pytest.approx(expected)

    def test_weighted_f1_perfect(self):
        assert weighted_f1([1, 0, 0], [1, 0, 0]) == 1.0


class TestKS:
    def test_perfect_separation(self):
        y = [0, 0, 1, 1]
        scores = [0.1, 0.2, 0.8, 0.9]
        assert ks_statistic(y, scores) == pytest.approx(1.0)

    def test_no_separation(self):
        y = [0, 1, 0, 1]
        scores = [0.5, 0.5, 0.5, 0.5]
        assert ks_statistic(y, scores) == pytest.approx(0.0)

    def test_hand_computed(self):
        y = [0, 0, 1, 1]
        scores = [0.1, 0.6, 0.4, 0.9]
        # At threshold 0.4: CDF_pos=0.5, CDF_neg=0.5 -> 0; at 0.1: 0 vs .5 -> .5
        assert ks_statistic(y, scores) == pytest.approx(0.5)

    def test_single_class_raises(self):
        with pytest.raises(EvaluationError):
            ks_statistic([1, 1], [0.2, 0.3])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)),
            min_size=4,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_ks_bounded(self, pairs):
        y = [p[0] for p in pairs]
        s = [p[1] for p in pairs]
        if 0 < sum(y) < len(y):
            value = ks_statistic(y, s)
            assert 0.0 <= value <= 1.0

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 50)
        y[0], y[1] = 0, 1
        s = rng.random(50)
        assert ks_statistic(y, s) == pytest.approx(ks_statistic(y, np.exp(3 * s)))


class TestAUC:
    def test_perfect(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_reversed(self):
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 2000)
        s = rng.random(2000)
        assert roc_auc(y, s) == pytest.approx(0.5, abs=0.05)

    def test_ties_handled(self):
        assert roc_auc([0, 1], [0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_raises(self):
        with pytest.raises(EvaluationError):
            roc_auc([0, 0], [0.1, 0.2])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)),
            min_size=4,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_complement_symmetry(self, pairs):
        """AUC(y, s) + AUC(y, -s) == 1."""
        y = [p[0] for p in pairs]
        s = np.array([p[1] for p in pairs])
        if 0 < sum(y) < len(y):
            assert roc_auc(y, s) + roc_auc(y, -s) == pytest.approx(1.0)

    def test_ks_le_relation_with_auc_extremes(self):
        """Perfect AUC implies perfect KS."""
        y = [0, 0, 0, 1, 1, 1]
        s = [0.1, 0.2, 0.3, 0.7, 0.8, 0.9]
        assert roc_auc(y, s) == 1.0
        assert ks_statistic(y, s) == 1.0
