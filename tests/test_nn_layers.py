"""Layer tests: Linear, Embedding, RMSNorm, dropout, RoPE, SwiGLU."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.nn import Dropout, Embedding, Linear, RMSNorm, RotaryEmbedding, SwiGLU
from repro.nn.rope import rotate
from repro.tensor import Tensor


class TestLinear:
    def test_matches_numpy(self):
        layer = Linear(4, 3, rng=0)
        x = np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32)
        out = layer(Tensor(x)).numpy()
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=0)
        assert layer.bias is None
        out = layer(Tensor(np.ones((1, 4), dtype=np.float32)))
        assert out.shape == (1, 3)

    def test_batched_3d_input(self):
        layer = Linear(4, 3, rng=0)
        out = layer(Tensor(np.ones((2, 5, 4), dtype=np.float32)))
        assert out.shape == (2, 5, 3)

    def test_deterministic_init(self):
        a = Linear(4, 3, rng=7)
        b = Linear(4, 3, rng=7)
        np.testing.assert_allclose(a.weight.data, b.weight.data)


class TestEmbedding:
    def test_shape(self):
        emb = Embedding(10, 4, rng=0)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_gradient_flows_to_used_rows_only(self):
        emb = Embedding(10, 4, rng=0)
        emb(np.array([1, 3])).sum().backward()
        grad = emb.weight.grad
        assert np.abs(grad[[1, 3]]).sum() > 0
        np.testing.assert_allclose(grad[[0, 2, 4]], 0.0)

    def test_init_is_float32(self):
        emb = Embedding(10, 4, rng=0)
        assert emb.weight.data.dtype == np.float32

    def test_chunked_init_matches_single_draw_stream(self):
        """Chunked table fill consumes the exact RNG stream a single
        ``rng.normal(size=(n, dim))`` call would — seeded inits (and every
        downstream golden test) are unchanged by the float64-scratch fix."""
        ref = (
            np.random.default_rng(42)
            .normal(0.0, 0.02, size=(50, 16))
            .astype(np.float32)
        )
        emb = Embedding(50, 16, rng=np.random.default_rng(42))
        np.testing.assert_array_equal(emb.weight.data, ref)

        # Large enough that the fill spans multiple chunks (rows_per_chunk
        # bounds the float64 scratch to ~1 MiB).
        big_ref = (
            np.random.default_rng(7)
            .normal(0.0, 0.02, size=(300, 512))
            .astype(np.float32)
        )
        big = Embedding(300, 512, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(big.weight.data, big_ref)


class TestNorms:
    def test_rmsnorm_unit_rms(self):
        norm = RMSNorm(8)
        x = np.random.default_rng(0).normal(0, 5, size=(3, 8)).astype(np.float32)
        out = norm(Tensor(x)).numpy()
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, np.ones(3), rtol=1e-3)

    def test_rmsnorm_scale_applied(self):
        norm = RMSNorm(4)
        norm.weight.data = np.full(4, 2.0, dtype=np.float32)
        x = np.ones((1, 4), dtype=np.float32)
        out = norm(Tensor(x)).numpy()
        np.testing.assert_allclose(out, np.full((1, 4), 2.0), rtol=1e-3)

    def test_norm_gradcheck(self):
        from conftest import numeric_grad

        norm = RMSNorm(6)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 6)).astype(np.float32), requires_grad=True)
        norm(x).sum().backward()

        def f():
            return float(norm(Tensor(x.data)).numpy().sum())

        np.testing.assert_allclose(x.grad, numeric_grad(f, x.data), atol=2e-2, rtol=1e-2)


class TestDropout:
    def test_eval_mode_identity(self):
        drop = Dropout(0.5, rng=0)
        drop.eval()
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        np.testing.assert_allclose(drop(x).numpy(), x.numpy())

    def test_zero_p_identity_in_train(self):
        drop = Dropout(0.0)
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        assert drop(x) is x

    def test_train_mode_zeroes_and_scales(self):
        drop = Dropout(0.5, rng=0)
        x = Tensor(np.ones((100, 100), dtype=np.float32))
        out = drop(x).numpy()
        zero_fraction = (out == 0).mean()
        assert 0.4 < zero_fraction < 0.6
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted dropout scaling

    def test_invalid_p_raises(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)
        with pytest.raises(ConfigError):
            Dropout(-0.1)


class TestRotaryEmbedding:
    def test_norm_preserved(self):
        rope = RotaryEmbedding(head_dim=8, max_seq_len=16)
        x = np.random.default_rng(0).normal(size=(1, 2, 5, 8)).astype(np.float32)
        out = rotate(x, rope.tables(np.arange(5)))
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-4
        )

    def test_position_zero_identity(self):
        rope = RotaryEmbedding(head_dim=4, max_seq_len=8)
        x = np.random.default_rng(1).normal(size=(1, 1, 1, 4)).astype(np.float32)
        out = rotate(x, rope.tables(np.array([0])))
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_relative_property(self):
        # Dot product of rotated q/k depends only on relative offset.
        rope = RotaryEmbedding(head_dim=8, max_seq_len=32)
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 1, 1, 8)).astype(np.float32)
        k = rng.normal(size=(1, 1, 1, 8)).astype(np.float32)

        def dot_at(pq, pk):
            rq = rotate(q, rope.tables(np.array([pq])))
            rk = rotate(k, rope.tables(np.array([pk])))
            return float((rq * rk).sum())

        assert dot_at(3, 1) == pytest.approx(dot_at(10, 8), abs=1e-4)
        assert dot_at(5, 5) == pytest.approx(dot_at(12, 12), abs=1e-4)

    def test_odd_head_dim_raises(self):
        with pytest.raises(ShapeError):
            RotaryEmbedding(head_dim=5, max_seq_len=8)

    def test_position_out_of_table_raises(self):
        rope = RotaryEmbedding(head_dim=4, max_seq_len=4)
        x = np.zeros((1, 1, 1, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            rotate(x, rope.tables(np.array([4])))


class TestFeedForward:
    def test_swiglu_shapes(self):
        ffn = SwiGLU(8, 16, rng=0)
        out = ffn(Tensor(np.ones((2, 3, 8), dtype=np.float32)))
        assert out.shape == (2, 3, 8)

    def test_swiglu_gradient_flows(self):
        ffn = SwiGLU(4, 8, rng=0)
        ffn(Tensor(np.ones((1, 4), dtype=np.float32))).sum().backward()
        assert all(p.grad is not None for p in ffn.parameters())
