"""Gradient tests for the layer nodes of the autograd graph.

Each transformer layer is one graph node whose forward is the fused
inference kernel's and whose backward is written by hand: ``rms_norm``,
``linear`` (plain, biased, unmerged LoRA, the tied head), ``attention``
and the SwiGLU gate ``swiglu``.  Over hypothesis-drawn shapes every node
is checked two ways:

* central differences for every input;
* the composite formulas the nodes replaced, kept below as the
  reference, to a few float32 ulp in outputs and gradients.

Also pinned: per-row ``(B, *shape)`` weights give row ``b`` exactly the
one-row result, and the size of a ``bench_config`` loss graph, so
composite layer code cannot creep back.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import bench_config
from repro.errors import ShapeError
from repro.lora import apply_lora
from repro.nn import MistralTiny, MultiHeadAttention, RotaryEmbedding, rect_attention_mask
from repro.nn.attention import attention
from repro.nn.layers import linear, rms_norm
from repro.nn.mlp import swiglu
from repro.nn.rope import rotate
from repro.tensor import Tensor, concat, softmax

from conftest import numeric_grad

EPS32 = float(np.finfo(np.float32).eps)
CASES = settings(max_examples=25, deadline=None)


# ----------------------------------------------------------------------
# The composite layer bodies the nodes replaced (the reference)
# ----------------------------------------------------------------------


def ref_linear(x, weight, bias=None, lora=None):
    out = x @ weight.swapaxes(-1, -2)
    if bias is not None:
        out = out + bias
    if lora is None:
        return out
    lora_a, lora_b, scaling = lora
    update = (x @ lora_a.swapaxes(-1, -2)) @ lora_b.swapaxes(-1, -2)
    return out + update * scaling


def ref_rms_norm(x, weight, eps):
    ms = (x * x).mean(axis=-1, keepdims=True)
    inv = (ms + eps) ** -0.5
    return x * inv * weight


def ref_rope(rope, x, positions=None, inverse=False):
    """The split-half rotation ``[x1 cos - x2 sin, x1 sin + x2 cos]``.

    ``cos`` and ``sin`` are the halves of the table that hold them
    (``[cos, cos]`` and ``[-sin, sin]``); ``inverse`` negates ``sin``.
    """
    if positions is None:
        positions = np.arange(x.shape[-2])
    cos_table, sin_table = rope.tables(positions)
    half = rope.head_dim // 2
    sin_table = sin_table[..., half:]
    cos, sin = Tensor(cos_table[..., :half]), Tensor(-sin_table if inverse else sin_table)
    x1, x2 = x[..., :half], x[..., half:]
    return concat([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def ref_attention(attn, q, k, v):
    batch, seq, _ = q.shape

    def split(x, n_heads):
        return x.reshape(batch, seq, n_heads, attn.head_dim).transpose((0, 2, 1, 3))

    q = ref_rope(attn.rope, split(q, attn.n_heads))
    k = ref_rope(attn.rope, split(k, attn.n_kv_heads))
    v = split(v, attn.n_kv_heads)
    if attn.n_kv_heads != attn.n_heads:
        idx = np.repeat(np.arange(attn.n_kv_heads), attn.n_heads // attn.n_kv_heads)
        k = k[:, idx]
        v = v[:, idx]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(attn.head_dim))
    scores = scores + Tensor(rect_attention_mask(seq, seq, attn.sliding_window))
    out = softmax(scores, axis=-1) @ v
    return out.transpose((0, 2, 1, 3)).reshape(batch, seq, attn.n_heads * attn.head_dim)


def ref_swiglu(gate, up):
    return gate.silu() * up


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def run(fn, arrays, seed_grad):
    """``fn`` on fresh leaves of ``arrays``, backpropagated from ``seed_grad``."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    out.backward(seed_grad)
    return out.data, [leaf.grad for leaf in leaves]


def assert_ulp_close(actual, expected, ulps=8):
    """Within ``ulps`` float32 ulp of the reference's largest magnitude.

    Inputs are O(1), so a magnitude below 1 counts as 1: a gradient that
    cancels to near zero is compared at the scale of its terms.
    """
    scale = max(float(np.abs(expected).max(initial=0.0)), 1.0)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=ulps * EPS32 * scale)


def check_node(node, reference, arrays, rng):
    """Node vs composite reference (outputs and every gradient) and vs
    central differences, for one random output gradient."""
    seed_grad = rng.normal(size=node(*[Tensor(a) for a in arrays]).shape).astype(np.float32)
    out, grads = run(node, arrays, seed_grad)
    ref_out, ref_grads = run(reference, arrays, seed_grad)
    assert_ulp_close(out, ref_out)
    for grad, ref_grad in zip(grads, ref_grads):
        assert_ulp_close(grad, ref_grad)
    probe = [a.copy() for a in arrays]

    def objective():
        value = node(*[Tensor(a) for a in probe]).data.astype(np.float64)
        return float((value * seed_grad).sum())

    for leaf, grad in zip(probe, grads):
        np.testing.assert_allclose(grad, numeric_grad(objective, leaf), atol=2e-2, rtol=1e-2)


def normal(rng, *shape, scale=0.5):
    return rng.normal(0.0, scale, size=shape).astype(np.float32)


# ----------------------------------------------------------------------
# linear
# ----------------------------------------------------------------------


@st.composite
def linear_cases(draw):
    return {
        "batch": draw(st.integers(1, 3)),
        "seq": draw(st.integers(1, 4)),
        "d_in": draw(st.integers(1, 5)),
        "d_out": draw(st.integers(1, 5)),
        "bias": draw(st.booleans()),
        "rank": draw(st.sampled_from([0, 1, 3])),
        "per_row": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def linear_arrays(case, rng):
    batch, d_in, d_out, rank = case["batch"], case["d_in"], case["d_out"], case["rank"]
    lead = (batch,) if case["per_row"] else ()
    arrays = [normal(rng, batch, case["seq"], d_in), normal(rng, *lead, d_out, d_in)]
    if case["bias"]:
        arrays.append(normal(rng, *lead, 1, d_out) if case["per_row"] else normal(rng, d_out))
    if rank:
        arrays += [normal(rng, *lead, rank, d_in), normal(rng, *lead, d_out, rank)]
    return arrays


def linear_fns(case):
    """``(node, reference)`` over the arrays of :func:`linear_arrays`."""

    def unpack(args):
        x, weight, *rest = args
        bias = rest.pop(0) if case["bias"] else None
        lora = (rest[0], rest[1], 2.0 / case["rank"]) if case["rank"] else None
        return x, weight, bias, lora

    return (
        lambda *args: linear(*unpack(args)),
        lambda *args: ref_linear(*unpack(args)),
    )


class TestLinearNode:
    @CASES
    @given(linear_cases())
    def test_matches_reference_and_central_differences(self, case):
        rng = np.random.default_rng(case["seed"])
        node, reference = linear_fns(case)
        check_node(node, reference, linear_arrays(case, rng), rng)

    @CASES
    @given(linear_cases())
    def test_per_row_weights_give_each_row_its_one_row_result(self, case):
        case = {**case, "per_row": True}
        rng = np.random.default_rng(case["seed"])
        node, _ = linear_fns(case)
        arrays = linear_arrays(case, rng)
        seed_grad = normal(rng, case["batch"], case["seq"], case["d_out"], scale=1.0)
        out, grads = run(node, arrays, seed_grad)
        shared_case = {**case, "per_row": False}
        shared_node, _ = linear_fns(shared_case)
        for b in range(case["batch"]):
            row = [arrays[0][b : b + 1]] + [a[b] for a in arrays[1:]]
            if case["bias"]:
                row[2] = row[2][0]  # (1, out) -> the shared (out,) bias
            row_out, row_grads = run(shared_node, row, seed_grad[b : b + 1])
            np.testing.assert_array_equal(out[b : b + 1], row_out)
            np.testing.assert_array_equal(grads[0][b : b + 1], row_grads[0])
            for grad, row_grad in zip(grads[1:], row_grads[1:]):
                np.testing.assert_array_equal(grad[b].reshape(row_grad.shape), row_grad)


# ----------------------------------------------------------------------
# rms_norm
# ----------------------------------------------------------------------


class TestRMSNormNode:
    @CASES
    @given(
        batch=st.integers(1, 3),
        seq=st.integers(1, 4),
        dim=st.integers(1, 6),
        per_row=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_and_central_differences(self, batch, seq, dim, per_row, seed):
        rng = np.random.default_rng(seed)
        weight = normal(rng, batch, 1, dim) if per_row else normal(rng, dim)
        x = normal(rng, batch, seq, dim, scale=1.0)
        # Row RMS in [0.5, 2]: a near-zero row scales the backward's
        # cancelling terms by 1/rms, past any fixed ulp budget.
        rms = np.sqrt((x * x).mean(axis=-1, keepdims=True))
        x *= (rng.uniform(0.5, 2.0, size=rms.shape) / rms).astype(np.float32)
        arrays = [x, 1.0 + weight]

        def norm(x, w):
            return rms_norm(x, w, 1e-5)

        check_node(norm, lambda x, w: ref_rms_norm(x, w, 1e-5), arrays, rng)
        if per_row:  # row b of a per-row pass is the one-row pass, bit for bit
            seed_grad = normal(rng, batch, seq, dim, scale=1.0)
            out, grads = run(norm, arrays, seed_grad)
            for b in range(batch):
                row_out, row_grads = run(
                    norm, [arrays[0][b : b + 1], arrays[1][b, 0]], seed_grad[b : b + 1]
                )
                np.testing.assert_array_equal(out[b : b + 1], row_out)
                np.testing.assert_array_equal(grads[0][b : b + 1], row_grads[0])
                np.testing.assert_array_equal(grads[1][b, 0], row_grads[1])


# ----------------------------------------------------------------------
# attention and RoPE
# ----------------------------------------------------------------------


@st.composite
def attention_cases(draw):
    n_kv = draw(st.sampled_from([1, 2]))
    group = draw(st.sampled_from([1, 2, 4]))
    return {
        "n_kv": n_kv,
        "n_heads": n_kv * group,
        "head_dim": draw(st.sampled_from([2, 4])),
        "batch": draw(st.integers(1, 2)),
        "seq": draw(st.integers(1, 6)),
        "window": draw(st.sampled_from([None, 1, 2, 3])),
        "seed": draw(st.integers(0, 2**16)),
    }


def attention_module(case) -> MultiHeadAttention:
    return MultiHeadAttention(
        d_model=case["n_heads"] * case["head_dim"],
        n_heads=case["n_heads"],
        n_kv_heads=case["n_kv"],
        max_seq_len=8,
        sliding_window=case["window"],
        rng=0,
    )


class TestAttentionNode:
    @CASES
    @given(attention_cases())
    def test_matches_reference_and_central_differences(self, case):
        rng = np.random.default_rng(case["seed"])
        attn = attention_module(case)
        batch, seq, hd = case["batch"], case["seq"], case["head_dim"]
        arrays = [
            normal(rng, batch, seq, case["n_heads"] * hd, scale=1.0),
            normal(rng, batch, seq, case["n_kv"] * hd, scale=1.0),
            normal(rng, batch, seq, case["n_kv"] * hd, scale=1.0),
        ]
        check_node(
            lambda q, k, v: attention(attn, q, k, v),
            lambda q, k, v: ref_attention(attn, q, k, v),
            arrays,
            rng,
        )


class TestRopeNode:
    @CASES
    @given(
        batch=st.integers(1, 3),
        heads=st.integers(1, 3),
        seq=st.integers(1, 6),
        head_dim=st.sampled_from([2, 4, 8, 16]),
        per_row=st.booleans(),
        inverse=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_split_half_formula(
        self, batch, heads, seq, head_dim, per_row, inverse, seed
    ):
        """The rotate-half tables change no bit of the rotation."""
        rng = np.random.default_rng(seed)
        rope = RotaryEmbedding(head_dim, max_seq_len=24)
        # A head view of a projection, as split_heads hands it to RoPE.
        x = normal(rng, batch, seq, heads * head_dim, scale=3.0)
        x = x.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
        assert not x.flags.c_contiguous or heads == 1 or seq == 1
        if per_row:
            positions = rng.integers(0, 24, size=(batch, seq))
        else:
            positions = np.arange(seq) + rng.integers(0, 24 - seq + 1)
        expected = ref_rope(rope, Tensor(x), positions, inverse).data
        np.testing.assert_array_equal(rotate(x, rope.tables(positions), inverse), expected)

    def test_position_beyond_table_raises(self):
        rope = RotaryEmbedding(4, max_seq_len=8)
        x = np.zeros((2, 1, 1, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            rotate(x, rope.tables(np.array([8])))
        with pytest.raises(ShapeError):
            rotate(x, rope.tables(np.array([[0], [8]])), inverse=True)


# ----------------------------------------------------------------------
# SwiGLU gate
# ----------------------------------------------------------------------


class TestSwiGLUNode:
    @CASES
    @given(
        batch=st.integers(1, 3),
        seq=st.integers(1, 4),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_reference_and_central_differences(self, batch, seq, dim, seed):
        rng = np.random.default_rng(seed)
        arrays = [normal(rng, batch, seq, dim, scale=2.0), normal(rng, batch, seq, dim)]
        check_node(swiglu, ref_swiglu, arrays, rng)


# ----------------------------------------------------------------------
# Graph size
# ----------------------------------------------------------------------


def graph_nodes(root: Tensor) -> int:
    """Distinct tensors reachable from ``root`` through parent links."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("lora", [False, True])
def test_bench_config_loss_graph_stays_small(lora):
    """13 nodes per block plus embedding, final norm, head, slice and loss
    (51 plain, 63 with LoRA); per-op layer code would need over 190."""
    config = bench_config()
    model = MistralTiny(config.model, rng=0)
    if lora:
        apply_lora(model, config.lora, rng=1)
    ids = np.random.default_rng(0).integers(5, config.model.vocab_size, size=(8, 20))
    assert graph_nodes(model.loss(ids)) <= 70
