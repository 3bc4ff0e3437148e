"""Numerical gradient checks for every Tensor op."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import GradientError, ShapeError
from repro.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.tensor import _is_basic_index

from conftest import numeric_grad


def check_unary(op, shape=(3, 4), seed=0, positive=False, atol=2e-2):
    rng = np.random.default_rng(seed)
    data = rng.normal(0.5, 0.4, size=shape).astype(np.float32)
    if positive:
        data = np.abs(data) + 0.5
    x = Tensor(data.copy(), requires_grad=True)
    out = op(x)
    out.sum().backward()

    def f():
        return float(op(Tensor(x.data)).numpy().sum())

    expected = numeric_grad(f, x.data)
    np.testing.assert_allclose(x.grad, expected, atol=atol, rtol=1e-2)


class TestUnaryGradients:
    def test_exp(self):
        check_unary(lambda t: t.exp())

    def test_log(self):
        check_unary(lambda t: t.log(), positive=True)

    def test_sqrt(self):
        check_unary(lambda t: t.sqrt(), positive=True)

    def test_tanh(self):
        check_unary(lambda t: t.tanh())

    def test_sigmoid(self):
        check_unary(lambda t: t.sigmoid())

    def test_relu(self):
        check_unary(lambda t: t.relu())

    def test_silu(self):
        check_unary(lambda t: t.silu())

    def test_gelu(self):
        check_unary(lambda t: t.gelu())

    def test_neg(self):
        check_unary(lambda t: -t)

    def test_pow(self):
        check_unary(lambda t: t**3)

    def test_pow_negative_exponent(self):
        check_unary(lambda t: t**-0.5, positive=True)


class TestBinaryGradients:
    def _check(self, op, a_shape, b_shape, atol=2e-2):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(1.0, 0.3, a_shape).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(1.5, 0.3, b_shape).astype(np.float32), requires_grad=True)
        op(a, b).sum().backward()

        def fa():
            return float(op(Tensor(a.data), Tensor(b.data)).numpy().sum())

        np.testing.assert_allclose(a.grad, numeric_grad(fa, a.data), atol=atol, rtol=1e-2)
        np.testing.assert_allclose(b.grad, numeric_grad(fa, b.data), atol=atol, rtol=1e-2)

    def test_add(self):
        self._check(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        self._check(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        self._check(lambda a, b: a - b, (2, 3), (2, 3))

    def test_mul(self):
        self._check(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_broadcast_scalar_shape(self):
        self._check(lambda a, b: a * b, (3, 4), (1, 4))

    def test_div(self):
        self._check(lambda a, b: a / b, (3, 4), (3, 4))

    def test_matmul_2d(self):
        self._check(lambda a, b: a @ b, (3, 4), (4, 5))

    def test_matmul_batched(self):
        self._check(lambda a, b: a @ b, (2, 3, 4), (2, 4, 5))

    def test_matmul_broadcast_batch(self):
        self._check(lambda a, b: a @ b, (2, 3, 4), (4, 5))


class TestReductions:
    def _check(self, op, shape=(3, 4)):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(0, 1, shape).astype(np.float32), requires_grad=True)
        op(x).sum().backward()

        def f():
            return float(op(Tensor(x.data)).numpy().sum())

        np.testing.assert_allclose(x.grad, numeric_grad(f, x.data), atol=2e-2, rtol=1e-2)

    def test_sum_all(self):
        self._check(lambda t: t.sum())

    def test_sum_axis(self):
        self._check(lambda t: t.sum(axis=1))

    def test_sum_keepdims(self):
        self._check(lambda t: t.sum(axis=0, keepdims=True))

    def test_mean(self):
        self._check(lambda t: t.mean())

    def test_mean_axis(self):
        self._check(lambda t: t.mean(axis=-1, keepdims=True))

    def test_var(self):
        self._check(lambda t: t.var(axis=-1, keepdims=True))

    def test_max_axis(self):
        rng = np.random.default_rng(3)
        # Distinct values so the max subgradient is unambiguous.
        data = rng.permutation(12).reshape(3, 4).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        x.max(axis=1).sum().backward()
        expected = np.zeros_like(data)
        expected[np.arange(3), data.argmax(axis=1)] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestShapeOps:
    def test_reshape_grad(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        (x.reshape(3, 2) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 2.0))

    def test_transpose_grad(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        y = x.transpose((2, 0, 1))
        assert y.shape == (4, 2, 3)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3, 4)))

    def test_swapaxes_grad(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        x.swapaxes(0, 1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_getitem_slice_grad(self):
        x = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        idx = np.array([1, 1, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 2.0, 1.0, 0.0])


class TestGetitemBackward:
    """Basic indices add into the selected view; fancy ones keep ``np.add.at``."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_basic_index_matches_add_at(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5))
        index = data.draw(hnp.basic_indices(shape, min_dims=0))
        assert _is_basic_index(index)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        out = x[index]
        seed = rng.normal(size=out.shape).astype(np.float32)
        out.backward(seed)
        expected = np.zeros(shape, dtype=np.float32)
        np.add.at(expected, index, seed)
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize(
        "index",
        [np.array([1, 1, 2]), (np.array([0, 0, 1]), slice(1, 3)), (np.array([2, 2]), np.array([1, 1]))],
    )
    def test_repeated_fancy_indices_accumulate(self, index):
        assert not _is_basic_index(index)
        x = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        x[index].sum().backward()
        expected = np.zeros((3, 4), dtype=np.float32)
        np.add.at(expected, index, 1.0)
        assert expected.max() == 2.0
        assert np.array_equal(x.grad, expected)

    def test_bool_scalars_are_not_basic(self):
        assert not _is_basic_index(True)
        assert not _is_basic_index((0, np.bool_(False)))
        assert _is_basic_index((np.int64(1), Ellipsis, slice(None)))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2).backward()

    def test_backward_with_seed_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 3).backward(np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, np.full((2, 2), 3.0))

    def test_backward_seed_shape_mismatch(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (x * 3).backward(np.ones(3))

    def test_backward_on_no_grad_tensor(self):
        x = Tensor(np.ones(2))
        with pytest.raises(GradientError):
            x.backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_reused_node_accumulates(self):
        x = Tensor(np.full(3, 2.0), requires_grad=True)
        y = x * x  # x used twice
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
        z = Tensor(np.ones(3), requires_grad=True)
        (y * z).sum().backward()
        assert x.grad is None

    def test_no_grad_context(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert is_grad_enabled()
        assert not y.requires_grad
        assert y._parents == ()

    def test_zero_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(2))

    def test_float32_everywhere(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).exp()
        assert x.data.dtype == np.float32
        assert y.data.dtype == np.float32
        y.sum().backward()
        assert x.grad.dtype == np.float32

    def test_repr_mentions_shape_and_grad(self):
        assert "shape=(2,)" in repr(Tensor(np.zeros(2)))
        assert "requires_grad=True" in repr(Tensor(np.zeros(2), requires_grad=True))


class TestAbsClip:
    def test_abs_values_and_grad(self):
        x = Tensor(np.array([-2.0, 0.5, -0.1], dtype=np.float32), requires_grad=True)
        x.abs().sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, 1.0, -1.0])

    def test_clip_values(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0], dtype=np.float32))
        np.testing.assert_allclose(x.clip(-1.0, 1.0).numpy(), [-1.0, 0.5, 1.0])

    def test_clip_grad_masked_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0], dtype=np.float32), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_abs_numeric_gradcheck(self):
        check_unary(lambda t: t.abs(), seed=11)
