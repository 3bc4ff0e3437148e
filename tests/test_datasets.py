"""Synthetic dataset generator tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError
from repro.datasets import (
    CALM_DATASETS,
    FeatureSpec,
    TabularDataset,
    available_datasets,
    load_dataset,
    make_australia,
    make_behavior,
    make_ccfraud,
    make_creditcard,
    make_german,
    make_income,
    make_travel,
)

GENERATORS = {
    "german": make_german,
    "australia": make_australia,
    "creditcard_fraud": make_creditcard,
    "ccfraud": make_ccfraud,
    "travel_insurance": make_travel,
}


class TestGeneratorsCommon:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_shapes_and_labels(self, name):
        ds = GENERATORS[name](n=200, seed=0)
        assert len(ds) == 200
        assert ds.X.shape == (200, len(ds.features))
        assert set(np.unique(ds.y)) <= {0, 1}

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_deterministic(self, name):
        a = GENERATORS[name](n=100, seed=7)
        b = GENERATORS[name](n=100, seed=7)
        np.testing.assert_allclose(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_seed_changes_data(self, name):
        a = GENERATORS[name](n=100, seed=1)
        b = GENERATORS[name](n=100, seed=2)
        assert np.abs(a.X - b.X).max() > 0

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_verbalization_tokens(self, name):
        ds = GENERATORS[name](n=50, seed=0)
        text = ds.row_text(0)
        parts = text.split()
        assert len(parts) == len(ds.features)
        assert all("=" in p for p in parts)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_signal_exists(self, name):
        """An expert model must beat the base rate: labels are learnable."""
        from repro.ml import LogisticRegression

        ds = GENERATORS[name](n=600, seed=0)
        model = LogisticRegression().fit(ds.X, ds.y)
        acc = (model.predict(ds.X) == ds.y).mean()
        base = max(ds.positive_rate, 1 - ds.positive_rate)
        assert acc > base + 0.02


class TestTargetRates:
    def test_german_positive_rate(self):
        ds = make_german(n=1000, seed=0)
        assert ds.positive_rate == pytest.approx(0.7, abs=0.03)

    def test_australia_positive_rate(self):
        ds = make_australia(n=690, seed=0)
        assert ds.positive_rate == pytest.approx(0.445, abs=0.05)

    def test_creditcard_fraud_rate_configurable(self):
        ds = make_creditcard(n=4000, seed=0, fraud_rate=0.02)
        assert ds.positive_rate == pytest.approx(0.02, abs=0.01)

    def test_travel_claim_rate(self):
        ds = make_travel(n=1500, seed=0)
        assert ds.positive_rate == pytest.approx(0.15, abs=0.03)

    def test_answer_texts(self):
        assert make_german(n=50).positive_text == "good"
        assert make_ccfraud(n=50).positive_text == "yes"


class TestTabularDataset:
    def test_split_stratified(self):
        ds = make_german(n=500, seed=0)
        train, test = ds.split(test_fraction=0.2, seed=0)
        assert len(train) + len(test) == len(ds)
        assert abs(train.positive_rate - test.positive_rate) < 0.08

    def test_split_shares_bin_edges(self):
        ds = make_german(n=300, seed=0)
        train, test = ds.split(test_fraction=0.3, seed=0)
        assert train._bin_edges.keys() == test._bin_edges.keys()
        for key in train._bin_edges:
            np.testing.assert_allclose(train._bin_edges[key], test._bin_edges[key])

    def test_split_invalid_fraction(self):
        ds = make_german(n=50)
        with pytest.raises(DataError):
            ds.split(test_fraction=0.0)

    def test_invalid_construction(self):
        spec = [FeatureSpec("x")]
        with pytest.raises(DataError):
            TabularDataset("t", "task", spec, np.ones((3, 2)), np.zeros(3), "q")
        with pytest.raises(DataError):
            TabularDataset("t", "task", spec, np.ones((3, 1)), np.array([0, 1, 2]), "q")

    def test_categorical_out_of_range(self):
        spec = [FeatureSpec("c", "categorical", ("a", "b"))]
        ds = TabularDataset("t", "task", spec, np.array([[0.0], [1.0]]), np.array([0, 1]), "q")
        with pytest.raises(DataError):
            ds.verbalize_value(0, 5.0)

    def test_feature_spec_validation(self):
        with pytest.raises(DataError):
            FeatureSpec("x", "weird")
        with pytest.raises(DataError):
            FeatureSpec("x", "categorical")


class TestRegistry:
    def test_all_calm_datasets_registered(self):
        assert set(CALM_DATASETS) <= set(available_datasets())

    def test_load_by_name(self):
        ds = load_dataset("german", n=50, seed=0)
        assert ds.name == "german"

    def test_unknown_name(self):
        with pytest.raises(DataError):
            load_dataset("nope")


class TestBehaviorDataset:
    def test_shapes(self):
        ds = make_behavior(n_users=50, n_periods=6, seed=0)
        assert ds.features.shape == (50, 6, 5)
        assert ds.risk.shape == (50, 6)
        assert ds.y.shape == (50,)

    def test_default_rate(self):
        ds = make_behavior(n_users=400, seed=0, default_rate=0.25)
        assert ds.y.mean() == pytest.approx(0.25, abs=0.05)

    def test_recent_periods_more_predictive(self):
        """The generative story: last-period risk correlates with default
        more than first-period risk."""
        ds = make_behavior(n_users=800, seed=0)
        corr_last = abs(np.corrcoef(ds.risk[:, -1], ds.y)[0, 1])
        corr_first = abs(np.corrcoef(ds.risk[:, 0], ds.y)[0, 1])
        assert corr_last > corr_first + 0.1

    def test_row_text_structure(self):
        ds = make_behavior(n_users=10, n_periods=3, seed=0)
        text = ds.row_text(0, 2)
        assert text.startswith("period=2")
        assert len(text.split()) == 1 + len(ds.feature_names)

    def test_supervised_rows_count_and_timestamps(self):
        ds = make_behavior(n_users=10, n_periods=4, seed=0)
        rows = ds.supervised_rows()
        assert len(rows) == 40
        assert {r[2] for r in rows} == {0, 1, 2, 3}

    def test_invalid_params(self):
        with pytest.raises(DataError):
            make_behavior(signal_decay=1.5)
        with pytest.raises(DataError):
            make_behavior(ar_coefficient=1.0)

    def test_deterministic(self):
        a = make_behavior(n_users=20, seed=9)
        b = make_behavior(n_users=20, seed=9)
        np.testing.assert_allclose(a.features, b.features)


class TestIncomeDataset:
    def test_shapes_and_brackets(self):
        ds = make_income(n=300, seed=0)
        assert len(ds) == 300
        assert set(np.unique(ds.bracket)) == {0, 1, 2}

    def test_brackets_roughly_balanced(self):
        ds = make_income(n=900, seed=0)
        counts = np.bincount(ds.bracket)
        assert counts.min() > 200

    def test_row_text_fields(self):
        ds = make_income(n=10, seed=0)
        text = ds.row_text(0)
        for field in ("brand=", "tier=", "price=", "education="):
            assert field in text

    def test_income_monotone_in_education(self):
        ds = make_income(n=2000, seed=0)
        low = ds.income[ds.education == 0].mean()
        high = ds.income[ds.education == 3].mean()
        assert high > low
