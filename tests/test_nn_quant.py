"""Int8 quantization: layer parity, the compile pass, and the fused kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ragged_prompts, uncached_reference
from repro.errors import QuantizationError
from repro.nn import (
    Embedding,
    Linear,
    MistralTiny,
    ModelConfig,
    QuantizedEmbedding,
    QuantizedLinear,
    is_quantized,
    quantize_model,
    quantize_weight,
    weight_bytes,
)
from repro.nn.cache import PrefixCache
from repro.nn.generation import GenerationConfig, generate, generate_batch
from repro.nn.module import Module
from repro.nn.quant import _iter_modules
from repro.tensor import Tensor, no_grad


class TestQuantizeWeight:
    def test_roundtrip_error_bounded_by_half_scale(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 16)).astype(np.float32)
        w_q, scale = quantize_weight(w)
        assert w_q.dtype == np.int8
        assert scale.dtype == np.float32
        err = np.abs(w_q.astype(np.float32) * scale[:, None] - w)
        assert np.all(err <= scale[:, None] / 2 + 1e-7)

    def test_zero_rows_get_unit_scale(self):
        w = np.zeros((3, 4), dtype=np.float32)
        w[1] = 1.0
        w_q, scale = quantize_weight(w)
        assert scale[0] == 1.0 and scale[2] == 1.0
        assert np.all(w_q[0] == 0)

    def test_extremes_map_to_qmax(self):
        w = np.array([[-2.0, 2.0]], dtype=np.float32)
        w_q, scale = quantize_weight(w)
        assert set(w_q[0].tolist()) == {-127, 127}

    def test_non_2d_raises(self):
        with pytest.raises(QuantizationError):
            quantize_weight(np.zeros(4, dtype=np.float32))


class TestQuantizedLinear:
    @settings(max_examples=40, deadline=None)
    @given(
        in_features=st.integers(1, 24),
        out_features=st.integers(1, 24),
        lead=st.lists(st.integers(1, 4), min_size=0, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_parity_with_float_linear(self, in_features, out_features, lead, seed):
        """Quantized output stays within the analytic rounding bound of float."""
        rng = np.random.default_rng(seed)
        linear = Linear(in_features, out_features, bias=bool(seed % 2), rng=rng)
        q = QuantizedLinear.from_linear(linear)
        x = rng.normal(size=(*lead, in_features)).astype(np.float32)
        with no_grad():
            expected = linear(Tensor(x)).data
            got = q(Tensor(x)).data
        assert got.shape == expected.shape
        # Per-element weight error is <= scale/2, so the output error is
        # bounded by (scale/2) * sum|x| plus accumulation noise.
        bound = 0.5 * q.scale.data.max() * np.abs(x).sum(axis=-1).max() + 1e-4
        assert np.max(np.abs(got - expected)) <= bound

    def test_matches_dequantized_reference(self):
        rng = np.random.default_rng(1)
        linear = Linear(12, 7, rng=rng)
        q = QuantizedLinear.from_linear(linear)
        x = rng.normal(size=(3, 5, 12)).astype(np.float32)
        w_deq = q.weight_q.data.astype(np.float32) * q.scale.data[:, None]
        np.testing.assert_allclose(
            q.matmul_np(x), x @ w_deq.T, rtol=1e-5, atol=1e-5
        )

    def test_grad_guard(self):
        q = QuantizedLinear.from_linear(Linear(4, 4, rng=np.random.default_rng(0)))
        x = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
        with pytest.raises(QuantizationError):
            q(x)
        with no_grad():
            assert q(x).shape == (2, 4)

    def test_state_dict_roundtrip_preserves_int8(self):
        rng = np.random.default_rng(2)
        q = QuantizedLinear.from_linear(Linear(6, 5, rng=rng))
        fresh = QuantizedLinear(6, 5, bias=True)
        fresh.load_state_dict(q.state_dict())
        assert fresh.weight_q.data.dtype == np.int8
        np.testing.assert_array_equal(fresh.weight_q.data, q.weight_q.data)
        np.testing.assert_array_equal(fresh.scale.data, q.scale.data)

    def test_embedding_lookup_and_project(self):
        rng = np.random.default_rng(3)
        emb = Embedding(10, 8, rng=rng)
        q = QuantizedEmbedding.from_embedding(emb)
        idx = np.array([[0, 3], [9, 1]])
        looked = q(idx).data
        assert looked.shape == (2, 2, 8)
        w_deq = q.weight_q.data.astype(np.float32) * q.scale.data[:, None]
        np.testing.assert_allclose(looked, w_deq[idx], rtol=1e-6, atol=1e-6)
        x = rng.normal(size=(2, 8)).astype(np.float32)
        with no_grad():
            np.testing.assert_allclose(
                q.project(Tensor(x)).data, x @ w_deq.T, rtol=1e-5, atol=1e-5
            )


class TestStoredLayout:
    """Int8 weights are kept in the layout their matmul reads.

    ``weight_q`` is ``(out, in)`` in Fortran order, so ``weight_q.T`` is
    a C-contiguous ``(in, out)`` operand.  The result is exactly the
    float32 cast of that operand through one GEMM, scaled (and biased).
    """

    shapes = dict(
        in_features=st.integers(1, 24),
        out_features=st.integers(1, 24),
        rows=st.integers(1, 64),
        lead=st.lists(st.integers(1, 3), min_size=0, max_size=2),
        seed=st.integers(0, 2**16),
    )

    @staticmethod
    def _reference(x, layer, bias=None):
        x2d = x.reshape(-1, x.shape[-1])
        out = (x2d @ layer.weight_q.data.T.astype(np.float32)) * layer.scale.data
        if bias is not None:
            out = out + bias
        return out.reshape(*x.shape[:-1], -1)

    @settings(max_examples=40, deadline=None)
    @given(bias=st.booleans(), **shapes)
    def test_linear_matmul_is_the_cast_gemm(
        self, in_features, out_features, rows, lead, seed, bias
    ):
        rng = np.random.default_rng(seed)
        q = QuantizedLinear.from_linear(Linear(in_features, out_features, bias=bias, rng=rng))
        if bias:
            q.bias.data = rng.normal(size=out_features).astype(np.float32)
        assert q.weight_q.data.shape == (out_features, in_features)
        assert q.weight_q.data.T.flags.c_contiguous
        x = rng.normal(size=(*lead, rows, in_features)).astype(np.float32)
        expected = self._reference(x, q, q.bias.data if bias else None)
        np.testing.assert_array_equal(q.matmul_np(x), expected)

    @settings(max_examples=40, deadline=None)
    @given(**shapes)
    def test_embedding_project_is_the_cast_gemm(
        self, in_features, out_features, rows, lead, seed
    ):
        rng = np.random.default_rng(seed)
        q = QuantizedEmbedding.from_embedding(Embedding(out_features, in_features, rng=rng))
        assert q.weight_q.data.T.flags.c_contiguous
        x = rng.normal(size=(*lead, rows, in_features)).astype(np.float32)
        np.testing.assert_array_equal(q.project_np(x), self._reference(x, q))

    def test_fresh_layers_start_in_the_layout(self):
        assert QuantizedLinear(5, 3).weight_q.data.T.flags.c_contiguous
        assert QuantizedEmbedding(7, 4).weight_q.data.T.flags.c_contiguous

    def test_deploy_payload_keeps_layout_and_format(self, fitted_zigong):
        from repro.lora import apply_lora, merge_lora
        from repro.serving import zigong_quantized_state

        zigong = fitted_zigong
        payload = zigong_quantized_state(zigong)
        float_state = MistralTiny(zigong.config.model, rng=0).state_dict()
        replica = MistralTiny(zigong.config.model, rng=zigong.config.seed + 1)
        if getattr(zigong, "_lora_applied", False):
            apply_lora(replica, zigong.config.lora, rng=zigong.config.seed)
        merge_lora(replica)
        quantize_model(replica)
        before = weight_bytes(replica)
        replica.load_state_dict(payload)

        # The payload format: the float model's keys with each quantized
        # weight swapped for an (out, in) int8 ``weight_q`` plus a float32
        # ``scale``.  The int8 copies keep the stored layout, so loading
        # them needs no transpose.
        state = replica.state_dict()
        assert set(state) == set(payload)
        for key, value in payload.items():
            assert state[key].shape == value.shape and state[key].dtype == value.dtype
            if key.endswith(".weight_q"):
                assert value.dtype == np.int8
                assert value.shape == float_state[key[: -len("_q")]].shape
                assert value.T.flags.c_contiguous and state[key].T.flags.c_contiguous
            elif key.endswith(".scale"):
                assert value.dtype == np.float32
                assert value.shape == payload[key[: -len("scale")] + "weight_q"].shape[:1]
            else:
                assert key in float_state and value.dtype == np.float32
        np.testing.assert_array_equal(
            replica.tok_embed.weight_q.data, payload["tok_embed.weight_q"]
        )

        # A C-order payload (as an older checkpoint holds) loads into the
        # same layout, with no copy kept.
        replica.load_state_dict({k: np.ascontiguousarray(v) for k, v in payload.items()})
        quantized = (QuantizedLinear, QuantizedEmbedding)
        layers = [m for m in _iter_modules(replica) if isinstance(m, quantized)]
        assert len(layers) == 7 * zigong.config.model.n_layers + 1
        for layer in layers:
            assert layer.weight_q.data.T.flags.c_contiguous
            assert layer.weight_q.data.base is None
        assert weight_bytes(replica) == before == sum(v.nbytes for v in payload.values())


class _HeadOnly(Module):
    def __init__(self):
        super().__init__()
        self.head = Linear(4, 2, rng=np.random.default_rng(0))


class TestQuantizeModel:
    def test_swaps_targets_and_embeddings(self, tiny_model):
        quantize_model(tiny_model)
        attn = tiny_model.blocks[0].attn
        assert isinstance(attn.wq, QuantizedLinear)
        assert isinstance(attn.wo, QuantizedLinear)
        assert isinstance(tiny_model.blocks[0].ffn.w2, QuantizedLinear)
        assert isinstance(tiny_model.tok_embed, QuantizedEmbedding)
        assert is_quantized(tiny_model)

    def test_float_model_not_quantized(self, tiny_model, token_batch):
        assert not is_quantized(tiny_model)
        # Float models run the same fused kernel; it matches their graph.
        graph = tiny_model(token_batch).data
        with no_grad():
            fused = tiny_model(token_batch).data
        np.testing.assert_array_equal(fused, graph)

    def test_weight_memory_reduction(self, tiny_config):
        float_model = MistralTiny(tiny_config, rng=0)
        before = weight_bytes(float_model)
        quantize_model(float_model)
        after = weight_bytes(float_model)
        assert before / after >= 3.0

    def test_logits_close_to_float(self, tiny_config, token_batch):
        float_model = MistralTiny(tiny_config, rng=0)
        qmodel = quantize_model(MistralTiny(tiny_config, rng=0))
        with no_grad():
            ref = float_model(token_batch).data
            got = qmodel(token_batch).data
        scale = np.abs(ref).mean()
        assert np.max(np.abs(got - ref)) <= 0.05 * max(scale, 1.0) + 0.05

    def test_bumps_weight_version_once(self, tiny_model):
        before = tiny_model.weight_version
        quantize_model(tiny_model)
        assert tiny_model.weight_version == before + 1

    def test_invalid_dtype_raises(self, tiny_model):
        with pytest.raises(QuantizationError):
            quantize_model(tiny_model, dtype="int4")

    def test_no_eligible_layers_raises(self, tiny_model):
        with pytest.raises(QuantizationError):
            quantize_model(tiny_model, targets={"nope"}, quantize_embeddings=False)

    def test_head_opt_in(self):
        model = _HeadOnly()
        with pytest.raises(QuantizationError):  # not targeted by default
            quantize_model(model, quantize_embeddings=False)
        quantize_model(model, quantize_head=True, quantize_embeddings=False)
        assert isinstance(model.head, QuantizedLinear)

    def test_refuses_unmerged_lora(self, tiny_config):
        from repro.lora import LoRAConfig, apply_lora, merge_lora

        model = MistralTiny(tiny_config, rng=0)
        apply_lora(model, LoRAConfig(rank=2), rng=0)
        with pytest.raises(QuantizationError):
            quantize_model(model)
        merge_lora(model)
        quantize_model(model)
        assert is_quantized(model)

    def test_merged_lora_quantizes_to_merged_weights(self, tiny_config, token_batch):
        """Post-merge quantization sees base+delta, not the pre-LoRA base."""
        from repro.lora import LoRAConfig, apply_lora, merge_lora

        base_model = MistralTiny(tiny_config, rng=0)
        with no_grad():
            base_ref = base_model(token_batch).data

        model = MistralTiny(tiny_config, rng=0)
        adapters = apply_lora(model, LoRAConfig(rank=2, alpha=16.0), rng=1)
        for adapter in adapters:  # make the delta visible
            adapter.lora_b.data[:] = 0.1
        merge_lora(model)
        with no_grad():
            merged_ref = model(token_batch).data
        quantize_model(model)
        with no_grad():
            got = model(token_batch).data
        err_merged = np.max(np.abs(got - merged_ref))
        err_base = np.max(np.abs(got - base_ref))
        assert err_merged < err_base  # tracks base+delta, not the pre-LoRA base
        # Loose absolute bound: the forced delta inflates per-row absmax
        # (and so the int8 scales); the tracking assert above is the point.
        assert err_merged <= 0.25 * np.abs(merged_ref).max() + 0.05

    def test_state_dict_roundtrip_bit_exact(self, tiny_config, token_batch):
        source = quantize_model(MistralTiny(tiny_config, rng=0))
        clone = quantize_model(MistralTiny(tiny_config, rng=7))
        clone.load_state_dict(source.state_dict())
        assert clone.blocks[0].attn.wq.weight_q.data.dtype == np.int8
        with no_grad():
            np.testing.assert_array_equal(
                clone(token_batch).data, source(token_batch).data
            )


class TestFusedKernelParity:
    """Every generation entry point on int8 weights equals the uncached reference."""

    CONFIG = GenerationConfig(max_new_tokens=8, stop_tokens=())

    @pytest.mark.parametrize(
        "config",
        [
            CONFIG,
            GenerationConfig(max_new_tokens=6, stop_tokens=(51,)),  # stops 3 of 6 rows at 4
        ],
        ids=["greedy", "stop"],
    )
    def test_generate_entry_points_bit_identical(self, tiny_config, config):
        from repro.nn import generate_continuous

        model = quantize_model(MistralTiny(tiny_config, rng=0))
        # A left-truncated long prompt and an exact repeat (prefix-cache hit).
        rows = ragged_prompts(tiny_config.vocab_size, lengths=(5, 9, 3, 40, 7))
        rows.append(rows[1].copy())
        expected = uncached_reference(model, rows, config)
        cache = PrefixCache(capacity=16)
        assert [generate(model, r, config, prefix_cache=cache) for r in rows] == expected
        assert generate_batch(model, rows, config, prefix_cache=cache) == expected
        assert generate_continuous(model, rows, config, arrivals=[0, 0, 1, 2, 2, 3]) == expected
        assert cache.stats.hits > 0

    def test_kernel_matches_tensor_path_on_quantized_weights(
        self, tiny_config, token_batch
    ):
        """The fused kernel vs the Tensor graph over the same int8 weights.

        Int8 layers refuse to record gradients, so the graph's layers
        (``hidden_states`` and the tied head) are run under ``no_grad``.
        """
        model = quantize_model(MistralTiny(tiny_config, rng=0))
        with no_grad():
            fused = model(token_batch).data
            graph = model.tok_embed.project(model.hidden_states(token_batch)).data
        np.testing.assert_allclose(fused, graph, rtol=1e-4, atol=1e-5)

    def test_gradients_on_run_the_graph(self, tiny_config, token_batch):
        """With gradients on the forward is the graph, whose int8 layers refuse to record."""
        model = quantize_model(MistralTiny(tiny_config, rng=0))
        with pytest.raises(QuantizationError):
            model(token_batch)

    def test_quantize_flushes_prefix_cache(self, tiny_config):
        """No KV/logit entry computed under float weights survives the pass."""
        model = MistralTiny(tiny_config, rng=0)
        cache = PrefixCache(capacity=16)
        rows = ragged_prompts(tiny_config.vocab_size)
        generate_batch(model, rows, self.CONFIG, prefix_cache=cache)
        assert cache.stats.misses > 0

        quantize_model(model)
        warm = [
            list(r)
            for r in generate_batch(model, rows, self.CONFIG, prefix_cache=cache)
        ]
        assert cache.stats.invalidations == 1
        # Stale float entries were flushed, not served.
        assert warm == uncached_reference(model, rows, self.CONFIG)


def _strided_matmul(self, x):
    """``QuantizedLinear.matmul_np`` reading a C-order weight through ``.T``."""
    lead = x.shape[:-1]
    out = np.matmul(x.reshape(-1, x.shape[-1]), np.ascontiguousarray(self.weight_q.data).T)
    out *= self.scale.data
    if self.bias is not None:
        out += self.bias.data
    return out.reshape(*lead, self.out_features)


def _strided_project(self, x):
    """``QuantizedEmbedding.project_np`` reading a C-order weight through ``.T``."""
    lead = x.shape[:-1]
    out = np.matmul(x.reshape(-1, x.shape[-1]), np.ascontiguousarray(self.weight_q.data).T)
    out *= self.scale.data
    return out.reshape(*lead, self.num_embeddings)


def _split_half_rotate(x, tables, inverse=False):
    """RoPE as ``[x1 cos - x2 sin, x1 sin + x2 cos]`` over half-width tables."""
    half = x.shape[-1] // 2
    cos, sin = tables[0][..., :half], tables[1][..., half:]
    if inverse:
        sin = -sin
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


class TestKernelMatchesSplitFormulas:
    """The int8 kernel on its stored layout and rotate-half RoPE tables
    equals, bit for bit, the same forward with a strided ``x @ W_q.T``
    and the split-half rotation — on whatever BLAS runs the suite."""

    @staticmethod
    def _logits(model, rows, patches=()):
        """Tokens and every kernel forward's logits of a continuous run."""
        import repro.nn.transformer as transformer
        from repro.nn import generate_continuous

        logged = []
        kernel = transformer.infer_logits_np

        def recorded(*args, **kwargs):
            out = kernel(*args, **kwargs)
            logged.append(out.copy())
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transformer, "infer_logits_np", recorded)
            for target, name, value in patches:
                patch.setattr(target, name, value)
            tokens = generate_continuous(
                model,
                rows,
                GenerationConfig(max_new_tokens=10, stop_tokens=()),
                arrivals=[0, 0, 0, 2, 4, 4, 7],
                prefix_cache=PrefixCache(capacity=16),
            )
        return tokens, logged

    def test_prefill_and_ragged_decode(self):
        import repro.nn.attention as attention
        from repro.config import bench_config

        config = bench_config().model
        model = quantize_model(MistralTiny(config, rng=0))
        rows = ragged_prompts(config.vocab_size, lengths=(11, 4, 23, 9, 17, 6))
        rows.append(np.concatenate([rows[2], rows[1]]))  # extends a cached prompt: a full prefill
        tokens, logits = self._logits(model, rows)
        ref_tokens, ref_logits = self._logits(
            model,
            rows,
            [
                (QuantizedLinear, "matmul_np", _strided_matmul),
                (QuantizedEmbedding, "project_np", _strided_project),
                (attention, "rotate", _split_half_rotate),
            ],
        )
        assert tokens == ref_tokens
        shapes = {a.shape[:2] for a in logits}
        assert (1, 1) in shapes and any(b > 1 for b, _ in shapes)  # readouts and decode
        assert len(logits) == len(ref_logits) > 10
        for got, expected in zip(logits, ref_logits):
            np.testing.assert_array_equal(got, expected)


class TestGoldenDecisionParity:
    def test_quantized_behavior_decisions_match_float(self, fitted_zigong, german_examples):
        """100% decision parity on the seed eval set, scores and generations."""
        from repro.baselines.lm import LMClassifier
        from repro.lora import apply_lora, merge_lora

        zigong = fitted_zigong
        model = MistralTiny(zigong.config.model, rng=zigong.config.seed)
        if getattr(zigong, "_lora_applied", False):
            apply_lora(model, zigong.config.lora, rng=zigong.config.seed)
        model.load_state_dict(
            {k: v.copy() for k, v in zigong.model.state_dict().items()}
        )
        merge_lora(model)
        quantize_model(model)

        float_clf = LMClassifier(zigong.model, zigong.tokenizer, prefix_cache_size=0)
        quant_clf = LMClassifier(model, zigong.tokenizer, prefix_cache_size=0)
        prompts = [e.prompt for e in german_examples[:24]]

        float_scores = float_clf.score_batch(prompts, "good", "bad")
        quant_scores = quant_clf.score_batch(prompts, "good", "bad")
        assert [s >= 0.5 for s in float_scores] == [s >= 0.5 for s in quant_scores]
        assert float_clf.generate_answer_batch(prompts) == quant_clf.generate_answer_batch(prompts)
