"""The raw forwards work in place, in arrays they allocated themselves.

``linear_np``, ``rms_norm_np``, ``swiglu_np`` and ``fused_attention`` are
what the graph's layer nodes and the fused inference kernel both run.
Each does its elementwise work inside temporaries it allocated in the
same call.  Over hypothesis-drawn shapes every output is checked
``np.array_equal`` to the out-of-place expression it replaced (kept below
as the reference), every input is byte-identical after the call, and no
output shares memory with an input.  A mask that is not float32 is
refused rather than cast.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import test_config as make_test_config
from repro.errors import ConfigError
from repro.nn import MistralTiny, rect_attention_mask
from repro.nn.attention import fused_attention
from repro.nn.layers import linear_np, rms_norm_np
from repro.nn.mlp import swiglu_np
from repro.nn.quant import _table_rows
from repro.tensor import no_grad

CASES = settings(max_examples=60, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


# ----------------------------------------------------------------------
# The out-of-place expressions the forwards replaced (the reference)
# ----------------------------------------------------------------------


def ref_linear(x, weight, bias=None, lora=None):
    out = x @ weight.swapaxes(-1, -2)
    if bias is not None:
        out += bias
    if lora is None:
        return out, None
    lora_a, lora_b, scaling = lora
    h = x @ lora_a.swapaxes(-1, -2)
    return out + h @ lora_b.swapaxes(-1, -2) * scaling, h


def ref_rms_norm(x, weight, eps):
    ms = (x * x).sum(axis=-1, keepdims=True)
    ms /= x.shape[-1]
    inv = (ms + eps) ** -0.5
    return x * inv * weight, inv


def ref_swiglu(gate, up):
    sig = 1.0 / (1.0 + np.exp(-gate))
    out = gate * sig
    out *= up
    return out, sig


def ref_attention(q, k, v, n_kv_heads, mask=None):
    batch, n_heads, q_len, head_dim = q.shape
    group = n_heads // n_kv_heads
    kv_len = k.shape[2]
    q5 = q * np.float32(1.0 / np.sqrt(head_dim))
    q5 = q5.reshape(batch, n_kv_heads, group * q_len, head_dim)
    scores = np.matmul(q5, k.swapaxes(-1, -2))
    if mask is not None:
        scores = scores.reshape(batch, n_kv_heads, group, q_len, kv_len)
        if mask.ndim <= 2:
            scores = scores + mask
        elif mask.shape[1] == 1:
            scores = scores + mask[:, :, None]
        else:
            scores = scores + mask.reshape(batch, n_kv_heads, group, *mask.shape[2:])
        scores = scores.reshape(batch, n_kv_heads, group * q_len, kv_len)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out = np.matmul(scores, v).reshape(batch, n_kv_heads, group, q_len, head_dim)
    return out.transpose(0, 3, 1, 2, 4).reshape(batch, q_len, n_heads * head_dim), scores


def ref_table_rows(table, readout):
    batch = readout.shape[0]
    table = np.broadcast_to(table, (batch, 1, *table.shape[-2:]))
    return table[np.arange(batch), :, readout][:, :, None]


# ----------------------------------------------------------------------
# The contract, checked on every call
# ----------------------------------------------------------------------


def _normal(rng, shape, scale=1.0):
    return (rng.standard_normal(shape) * scale).astype(np.float32)


def check_in_place(forward, reference, *args):
    """``forward(*args)`` equals ``reference(*args)``, writes no argument
    and hands back no argument's memory."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    arrays += [a for part in args if isinstance(part, tuple) for a in part if isinstance(a, np.ndarray)]
    before = [(a.copy(), a.flags.writeable) for a in arrays]
    got = forward(*args)
    for (copy, writeable), array in zip(before, arrays):
        assert array.tobytes() == copy.tobytes()
        assert array.flags.writeable == writeable
    want = reference(*args)
    for got_out, want_out in zip(got, want):
        if want_out is None:
            assert got_out is None
            continue
        assert got_out.dtype == want_out.dtype == np.float32
        assert np.array_equal(got_out, want_out)
        for array in arrays:
            assert not np.shares_memory(got_out, array)
    return got


class TestLinear:
    @CASES
    @given(
        seed=SEEDS,
        batch=st.integers(1, 3),
        seq=st.integers(1, 6),
        dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4)),
        per_row=st.booleans(),
        bias=st.booleans(),
        lora=st.booleans(),
        scaling=st.sampled_from([2.0, 0.75, 1.0 / 3.0, 16.0 / 6.0]),
    )
    def test_matches_the_out_of_place_formula(
        self, seed, batch, seq, dims, per_row, bias, lora, scaling
    ):
        rng = np.random.default_rng(seed)
        d_in, d_out, rank = dims
        lead = (batch,) if per_row else ()
        x = _normal(rng, (batch, seq, d_in))
        weight = _normal(rng, lead + (d_out, d_in), 0.3)
        b = _normal(rng, (batch, 1, d_out) if per_row else (d_out,)) if bias else None
        adapter = None
        if lora:
            adapter = (
                _normal(rng, lead + (rank, d_in), 0.3),
                _normal(rng, lead + (d_out, rank), 0.3),
                scaling,
            )
        check_in_place(linear_np, ref_linear, x, weight, b, adapter)

    def test_read_only_per_row_views(self):
        """The per-row copies gradient tracing builds are read-only
        broadcast views: the forward only reads them."""
        rng = np.random.default_rng(0)
        x = _normal(rng, (3, 4, 6))
        weight = np.broadcast_to(_normal(rng, (5, 6)), (3, 5, 6))
        bias = np.broadcast_to(_normal(rng, (5,)), (3, 1, 5))
        adapter = (
            np.broadcast_to(_normal(rng, (2, 6)), (3, 2, 6)),
            np.broadcast_to(_normal(rng, (5, 2)), (3, 5, 2)),
            0.75,
        )
        check_in_place(linear_np, ref_linear, x, weight, bias, adapter)


class TestRmsNorm:
    @CASES
    @given(
        seed=SEEDS,
        shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 16)),
        per_row=st.booleans(),
        eps=st.sampled_from([1e-5, 1e-6, 0.1]),
    )
    def test_matches_the_out_of_place_formula(self, seed, shape, per_row, eps):
        rng = np.random.default_rng(seed)
        x = _normal(rng, shape, 3.0)
        weight = _normal(rng, (shape[0], 1, shape[2]) if per_row else (shape[2],))
        check_in_place(rms_norm_np, ref_rms_norm, x, weight, eps)


class TestSwiGLU:
    @CASES
    @given(seed=SEEDS, shape=st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 16)))
    def test_matches_the_out_of_place_formula(self, seed, shape):
        rng = np.random.default_rng(seed)
        gate = _normal(rng, shape, 8.0)
        check_in_place(swiglu_np, ref_swiglu, gate, _normal(rng, shape))


MASKS = ("none", "causal", "rows", "full", "cached")


class TestFusedAttention:
    @CASES
    @given(
        seed=SEEDS,
        batch=st.integers(1, 3),
        heads=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2), (6, 2)]),
        q_len=st.integers(1, 5),
        extra=st.integers(0, 4),
        head_dim=st.sampled_from([2, 4, 8]),
        mask=st.sampled_from(MASKS),
    )
    def test_matches_the_out_of_place_formula(
        self, seed, batch, heads, q_len, extra, head_dim, mask
    ):
        rng = np.random.default_rng(seed)
        n_heads, n_kv = heads
        kv_len = q_len + extra
        q = _normal(rng, (batch, n_heads, q_len, head_dim))
        k = _normal(rng, (batch, n_kv, kv_len, head_dim))
        v = _normal(rng, (batch, n_kv, kv_len, head_dim))
        if mask == "cached":
            m = rect_attention_mask(q_len, kv_len, 3, q_offset=extra)
        elif mask == "none":
            m = None
        else:
            shape = {
                "causal": (q_len, kv_len),
                "rows": (batch, 1, 1, kv_len),
                "full": (batch, n_heads, q_len, kv_len),
            }[mask]
            m = np.where(rng.random(shape) < 0.3, np.float32(-1e9), _normal(rng, shape))
            m = m.astype(np.float32)
            m[..., -1] = 0.0  # every query sees at least one key
        snapshot = None if m is None else m.copy()
        check_in_place(fused_attention, ref_attention, q, k, v, n_kv, m)
        if mask == "cached":
            assert not m.flags.writeable
            assert np.array_equal(m, snapshot)
            assert rect_attention_mask(q_len, kv_len, 3, q_offset=extra) is m


class TestTableRows:
    @pytest.mark.parametrize("per_row", [False, True], ids=["shared", "per-row"])
    def test_gathers_what_the_broadcast_formula_did(self, per_row):
        rng = np.random.default_rng(0)
        batch, seq, head_dim = 4, 7, 6
        table = _normal(rng, (batch, 1, seq, head_dim) if per_row else (seq, head_dim))
        readout = np.array([6, 0, 3, 3])
        got = _table_rows(table, readout)
        assert got.shape == (batch, 1, 1, head_dim)
        assert np.array_equal(got, ref_table_rows(table, readout))


class TestMaskDtype:
    """A mask that is not float32 is refused, not cast.

    Before, a float64 mask turned the scores and every later activation
    into float64; added in place into the float32 score buffer, it would
    be cast down silently.
    """

    @pytest.fixture()
    def model(self):
        return MistralTiny(make_test_config().model, rng=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int64])
    def test_forward_refuses_a_mask_that_is_not_float32(self, model, dtype):
        ids = np.arange(10).reshape(2, 5)
        mask = np.zeros((5, 5), dtype=dtype)
        with no_grad(), pytest.raises(ConfigError, match=np.dtype(dtype).name):
            model.forward(ids, attn_mask=mask)

    def test_a_float32_mask_runs(self, model):
        ids = np.arange(10).reshape(2, 5)
        mask = np.array(rect_attention_mask(5, 5, None))
        with no_grad():
            masked = model.forward(ids, attn_mask=mask).data
            plain = model.forward(ids).data
        assert masked.dtype == np.float32
        assert np.array_equal(masked, plain)
