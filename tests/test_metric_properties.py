"""Hypothesis property tests for evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import (
    accuracy,
    brier_score,
    f1_binary,
    ks_statistic,
    miss_rate,
    roc_auc,
    weighted_f1,
)

pairs = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from([0, 1, None])),
    min_size=1,
    max_size=40,
)

scored = st.lists(
    st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)),
    min_size=4,
    max_size=40,
)


class TestMetricProperties:
    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_accuracy_bounded(self, data):
        y = [d[0] for d in data]
        p = [d[1] for d in data]
        assert 0.0 <= accuracy(y, p) <= 1.0

    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_accuracy_plus_errors_is_one(self, data):
        y = [d[0] for d in data]
        p = [d[1] for d in data]
        acc = accuracy(y, p)
        wrong = sum(1 for t, q in zip(y, p) if q is None or q != t)
        assert acc + wrong / len(y) == pytest.approx(1.0)

    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_f1_bounded(self, data):
        y = [d[0] for d in data]
        p = [d[1] for d in data]
        assert 0.0 <= f1_binary(y, p) <= 1.0
        assert 0.0 <= weighted_f1(y, p) <= 1.0

    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_perfect_predictions_maximize_everything(self, data):
        y = [d[0] for d in data]
        assert accuracy(y, y) == 1.0
        assert weighted_f1(y, y) == 1.0
        assert miss_rate(y) == 0.0

    @given(scored)
    @settings(max_examples=60, deadline=None)
    def test_ks_invariant_to_label_consistent_relabeling(self, data):
        """KS(y, s) == KS(1-y, s): it measures separation, not direction."""
        y = [d[0] for d in data]
        s = [d[1] for d in data]
        if 0 < sum(y) < len(y):
            flipped = [1 - t for t in y]
            assert ks_statistic(y, s) == pytest.approx(ks_statistic(flipped, s))

    @given(scored)
    @settings(max_examples=60, deadline=None)
    def test_ks_bounded_by_one_minus_overlap(self, data):
        y = [d[0] for d in data]
        s = [d[1] for d in data]
        if 0 < sum(y) < len(y):
            assert 0.0 <= ks_statistic(y, s) <= 1.0

    @given(scored)
    @settings(max_examples=60, deadline=None)
    def test_auc_flip_relation(self, data):
        """AUC(1−y, s) == 1 − AUC(y, s)."""
        y = [d[0] for d in data]
        s = np.array([d[1] for d in data])
        if 0 < sum(y) < len(y):
            flipped = [1 - t for t in y]
            assert roc_auc(flipped, s) == pytest.approx(1.0 - roc_auc(y, s), abs=1e-9)

    @given(scored)
    @settings(max_examples=60, deadline=None)
    def test_brier_decomposition_bound(self, data):
        """Brier <= 1 always; <= 0.25 for the constant 0.5 forecast."""
        y = [d[0] for d in data]
        assert brier_score(y, [0.5] * len(y)) == pytest.approx(0.25)

    @given(scored)
    @settings(max_examples=40, deadline=None)
    def test_extreme_auc_forces_extreme_ks(self, data):
        """Perfect (or perfectly reversed) ranking implies KS == 1."""
        y = [d[0] for d in data]
        s = np.array([d[1] for d in data], dtype=np.float64)
        s = s + np.arange(s.size) * 1e-6  # deterministic tie-break
        if 0 < sum(y) < len(y):
            auc = roc_auc(y, s)
            if auc in (0.0, 1.0):
                assert ks_statistic(y, s) == pytest.approx(1.0)
