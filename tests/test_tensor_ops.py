"""Tests for the functional ops: softmax, cross entropy, embedding, etc."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import (
    Tensor,
    concat,
    cross_entropy,
    embedding,
    softmax,
)

from conftest import numeric_grad


def log_softmax_ref(x):
    """Reference log-softmax over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)).astype(np.float32))
        probs = softmax(x).numpy()
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(4), rtol=1e-5)
        assert (probs >= 0).all()

    def test_stability_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]], dtype=np.float32))
        probs = softmax(x).numpy()
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs[0, :2], [0.5, 0.5], atol=1e-5)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 5)).astype(np.float32), requires_grad=True)
        w = rng.normal(size=(2, 5)).astype(np.float32)
        (softmax(x) * Tensor(w)).sum().backward()

        def f():
            return float((softmax(Tensor(x.data)).numpy() * w).sum())

        np.testing.assert_allclose(x.grad, numeric_grad(f, x.data), atol=2e-2, rtol=1e-2)


class TestCrossEntropy:
    def test_matches_manual_nll(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(5, 8)).astype(np.float32))
        targets = np.array([0, 3, 7, 2, 2])
        loss = cross_entropy(logits, targets).item()
        logp = log_softmax_ref(logits.data)
        expected = -logp[np.arange(5), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_ignore_index_excluded(self):
        logits = Tensor(np.random.default_rng(1).normal(size=(4, 6)).astype(np.float32))
        targets = np.array([1, -100, 2, -100])
        loss = cross_entropy(logits, targets).item()
        logp = log_softmax_ref(logits.data)
        expected = -(logp[0, 1] + logp[2, 2]) / 2
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_all_ignored_raises(self):
        logits = Tensor(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            cross_entropy(logits, np.array([-100, -100]))

    def test_shape_mismatch_raises(self):
        logits = Tensor(np.zeros((2, 3, 5), dtype=np.float32))
        with pytest.raises(ShapeError):
            cross_entropy(logits, np.zeros((2, 4), dtype=np.int64))

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(
            np.random.default_rng(2).normal(size=(3, 4)).astype(np.float32), requires_grad=True
        )
        targets = np.array([1, 0, 3])
        cross_entropy(logits, targets).backward()
        probs = np.exp(log_softmax_ref(logits.data))
        expected = probs.copy()
        expected[np.arange(3), targets] -= 1.0
        expected /= 3
        np.testing.assert_allclose(logits.grad, expected, atol=1e-5)

    def test_ignored_positions_get_zero_grad(self):
        logits = Tensor(
            np.random.default_rng(3).normal(size=(3, 4)).astype(np.float32), requires_grad=True
        )
        cross_entropy(logits, np.array([1, -100, 2])).backward()
        np.testing.assert_allclose(logits.grad[1], np.zeros(4), atol=1e-7)

    def test_3d_logits(self):
        logits = Tensor(np.random.default_rng(4).normal(size=(2, 3, 5)).astype(np.float32))
        targets = np.array([[0, 1, -100], [2, -100, 4]])
        loss = cross_entropy(logits, targets).item()
        assert np.isfinite(loss)


class TestEmbedding:
    def test_lookup_values(self):
        weight = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = embedding(weight, np.array([2, 0]))
        np.testing.assert_allclose(out.numpy(), weight.numpy()[[2, 0]])

    def test_scatter_add_gradient(self):
        weight = Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)
        embedding(weight, np.array([1, 1, 3])).sum().backward()
        expected = np.zeros((4, 2))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_allclose(weight.grad, expected)

    def test_2d_indices(self):
        weight = Tensor(np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32))
        out = embedding(weight, np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 3)

    def test_out_of_range_raises(self):
        weight = Tensor(np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            embedding(weight, np.array([4]))
        with pytest.raises(ShapeError):
            embedding(weight, np.array([-1]))

    def test_float_indices_raise(self):
        weight = Tensor(np.zeros((4, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            embedding(weight, np.array([0.5]))


class TestStructuralOps:
    def test_concat_values_and_grad(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.full((2, 3), 2.0, dtype=np.float32), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            concat([])
