"""Hypothesis property tests for the autograd engine.

These complement the point-wise numerical gradchecks with algebraic
invariants that must hold for *any* input.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, cross_entropy, softmax


def log_softmax_ref(x):
    """Reference log-softmax over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def arrays(shape=(3, 4), lo=-3.0, hi=3.0):
    return hnp.arrays(
        dtype=np.float32,
        shape=shape,
        elements=st.floats(lo, hi, width=32, allow_nan=False),
    )


class TestAlgebraicInvariants:
    @given(arrays())
    @settings(max_examples=40, deadline=None)
    def test_sum_grad_is_ones(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @given(arrays(), st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_grad_linear_in_scale(self, data, scale):
        """d(c·sum(x))/dx == c for every c."""
        x = Tensor(data, requires_grad=True)
        (x.sum() * float(scale)).backward()
        np.testing.assert_allclose(x.grad, np.full_like(data, np.float32(scale)), atol=1e-5)

    @given(arrays())
    @settings(max_examples=40, deadline=None)
    def test_add_sub_cancel(self, data):
        """grad of sum(x + x − x) is exactly ones."""
        x = Tensor(data, requires_grad=True)
        (x + x - x).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data), atol=1e-6)

    @given(arrays(shape=(4, 3)))
    @settings(max_examples=40, deadline=None)
    def test_double_transpose_identity(self, data):
        x = Tensor(data, requires_grad=True)
        y = x.swapaxes(0, 1).swapaxes(0, 1)
        np.testing.assert_allclose(y.numpy(), data)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @given(arrays(shape=(2, 5)))
    @settings(max_examples=40, deadline=None)
    def test_softmax_simplex(self, data):
        probs = softmax(Tensor(data)).numpy()
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=-1), np.ones(2), rtol=1e-4)

    @given(arrays(shape=(2, 5)), st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_softmax_shift_invariance(self, data, shift):
        a = softmax(Tensor(data)).numpy()
        b = softmax(Tensor(data + np.float32(shift))).numpy()
        np.testing.assert_allclose(a, b, atol=1e-5)

    @given(
        arrays(shape=(4, 6)),
        hnp.arrays(dtype=np.int64, shape=(4,), elements=st.integers(0, 5)),
    )
    @settings(max_examples=40, deadline=None)
    def test_cross_entropy_nonnegative_and_consistent(self, logits, targets):
        loss = cross_entropy(Tensor(logits), targets).item()
        assert loss >= -1e-6
        logp = log_softmax_ref(logits)
        expected = -logp[np.arange(4), targets].mean()
        assert abs(loss - expected) < 1e-4

    @given(arrays(shape=(3, 4)), arrays(shape=(4, 2)))
    @settings(max_examples=30, deadline=None)
    def test_matmul_grad_shapes(self, a_data, b_data):
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == a_data.shape
        assert b.grad.shape == b_data.shape

    @given(arrays(shape=(3, 1)), arrays(shape=(1, 4)))
    @settings(max_examples=30, deadline=None)
    def test_broadcast_grad_shapes_preserved(self, a_data, b_data):
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (3, 1)
        assert b.grad.shape == (1, 4)
        # Broadcast sum-reduction: d sum(a*b)/d a[i,0] = sum_j b[0,j].
        np.testing.assert_allclose(a.grad, np.full((3, 1), b_data.sum()), atol=1e-3)
        np.testing.assert_allclose(b.grad, np.full((1, 4), a_data.sum()), atol=1e-3)
