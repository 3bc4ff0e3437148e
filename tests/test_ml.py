"""Classic-ML toolbox tests: logistic regression, hashing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, DataError
from repro.ml import HashingVectorizer, LogisticRegression


def linearly_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    return X, y


class TestLogisticRegression:
    def test_learns_separable_data(self):
        X, y = linearly_separable()
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_proba_in_unit_interval(self):
        X, y = linearly_separable()
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_generalizes(self):
        X, y = linearly_separable(seed=1)
        Xt, yt = linearly_separable(seed=2)
        model = LogisticRegression().fit(X, y)
        assert (model.predict(Xt) == yt).mean() > 0.9

    def test_constant_feature_no_crash(self):
        X, y = linearly_separable()
        X[:, 3] = 5.0  # zero-variance column
        LogisticRegression().fit(X, y)

    def test_unfitted_predict_raises(self):
        with pytest.raises(DataError):
            LogisticRegression().predict_proba(np.ones((2, 3)))

    def test_non_binary_labels_raise(self):
        with pytest.raises(DataError):
            LogisticRegression().fit(np.ones((3, 2)), np.array([0, 1, 2]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            LogisticRegression().fit(np.ones((3, 2)), np.array([0, 1]))

    def test_1d_x_raises(self):
        with pytest.raises(DataError):
            LogisticRegression().fit(np.ones(3), np.array([0, 1, 0]))

    def test_invalid_hyperparams(self):
        with pytest.raises(ConfigError):
            LogisticRegression(lr=0)
        with pytest.raises(ConfigError):
            LogisticRegression(epochs=0)


class TestHashingVectorizer:
    def test_shape(self):
        vec = HashingVectorizer(n_features=32)
        out = vec.transform(["a b c", "a a"])
        assert out.shape == (2, 32)

    def test_deterministic(self):
        a = HashingVectorizer(n_features=64).transform(["credit risk loan"])
        b = HashingVectorizer(n_features=64).transform(["credit risk loan"])
        np.testing.assert_allclose(a, b)

    def test_word_order_invariant(self):
        vec = HashingVectorizer(n_features=64)
        np.testing.assert_allclose(
            vec.transform(["loan credit"]), vec.transform(["credit loan"])
        )

    def test_repeated_words_accumulate(self):
        vec = HashingVectorizer(n_features=64, signed=False)
        once = vec.transform(["credit"])
        twice = vec.transform(["credit credit"])
        np.testing.assert_allclose(twice, 2 * once)

    def test_empty_text(self):
        out = HashingVectorizer(n_features=8).transform([""])
        np.testing.assert_allclose(out, np.zeros((1, 8)))

    def test_invalid_n_features(self):
        with pytest.raises(ConfigError):
            HashingVectorizer(n_features=0)

    @given(st.text(alphabet="abcdef ", max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_total_mass_bounded_by_token_count(self, text):
        vec = HashingVectorizer(n_features=16)
        out = vec.transform([text])
        assert np.abs(out).sum() <= len(text.split())
