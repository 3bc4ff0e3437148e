"""Attention tests: masking, causality, sliding window, GQA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import MultiHeadAttention, rect_attention_mask
from repro.tensor import Tensor


class TestSlidingWindowMask:
    def test_pure_causal(self):
        mask = rect_attention_mask(4, 4, None)
        allowed = mask == 0
        expected = np.tril(np.ones((4, 4), dtype=bool))
        np.testing.assert_array_equal(allowed, expected)

    def test_window_limits_lookback(self):
        mask = rect_attention_mask(5, 5, 2)
        allowed = mask == 0
        # Token i attends to j in {i-1, i}.
        for i in range(5):
            for j in range(5):
                assert allowed[i, j] == (0 <= i - j < 2)

    def test_window_one_is_diagonal(self):
        mask = rect_attention_mask(4, 4, 1)
        np.testing.assert_array_equal(mask == 0, np.eye(4, dtype=bool))

    def test_cached_instances_shared(self):
        assert rect_attention_mask(8, 8, 4) is rect_attention_mask(8, 8, 4)


class TestMultiHeadAttention:
    def _attn(self, window=None, n_kv=2):
        return MultiHeadAttention(
            d_model=16, n_heads=4, n_kv_heads=n_kv, max_seq_len=16, sliding_window=window, rng=0
        )

    def test_output_shape(self):
        attn = self._attn()
        out = attn(Tensor(np.random.default_rng(0).normal(size=(2, 8, 16)).astype(np.float32)))
        assert out.shape == (2, 8, 16)

    def test_causality(self):
        """Changing a future token must not change past outputs."""
        attn = self._attn()
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 8, 16)).astype(np.float32)
        out1 = attn(Tensor(x)).numpy().copy()
        x2 = x.copy()
        x2[0, 6] += 10.0  # perturb a late position
        out2 = attn(Tensor(x2)).numpy()
        np.testing.assert_allclose(out1[0, :6], out2[0, :6], atol=1e-5)
        assert np.abs(out1[0, 6:] - out2[0, 6:]).max() > 1e-4

    def test_sliding_window_forgets_distant_past(self):
        """With window w, perturbing token j must not affect i >= j + w."""
        attn = self._attn(window=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 8, 16)).astype(np.float32)
        out1 = attn(Tensor(x)).numpy().copy()
        x2 = x.copy()
        x2[0, 1] += 10.0
        out2 = attn(Tensor(x2)).numpy()
        np.testing.assert_allclose(out1[0, 3:], out2[0, 3:], atol=1e-5)

    def test_gqa_matches_full_heads_when_equal(self):
        """n_kv_heads == n_heads must be equivalent to no grouping."""
        attn = MultiHeadAttention(d_model=16, n_heads=4, n_kv_heads=4, max_seq_len=8, rng=3)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 4, 16)).astype(np.float32))
        out = attn(x)
        assert out.shape == (1, 4, 16)

    def test_gqa_grouping_runs_and_backprops(self):
        attn = self._attn(n_kv=1)
        x = Tensor(
            np.random.default_rng(4).normal(size=(1, 4, 16)).astype(np.float32),
            requires_grad=True,
        )
        attn(x).sum().backward()
        assert x.grad is not None
        assert attn.wk.weight.grad is not None

    def test_invalid_head_config_raises(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(d_model=15, n_heads=4)
        with pytest.raises(ConfigError):
            MultiHeadAttention(d_model=16, n_heads=4, n_kv_heads=3)

    def test_first_token_attends_only_itself(self):
        """Output at position 0 is a value projection of token 0 alone."""
        attn = self._attn()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 6, 16)).astype(np.float32)
        out_full = attn(Tensor(x)).numpy()
        out_single = attn(Tensor(x[:, :1])).numpy()
        np.testing.assert_allclose(out_full[0, 0], out_single[0, 0], atol=1e-5)
