"""MistralTiny model tests: config validation, forward, loss masking, kernel vs graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ShapeError
from repro.nn import MistralTiny, ModelConfig
from repro.tensor import no_grad


class TestModelConfig:
    def test_defaults_valid(self):
        ModelConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vocab_size": 0},
            {"d_model": 30, "n_heads": 4},
            {"n_heads": 4, "n_kv_heads": 3},
            {"d_model": 36, "n_heads": 6},  # head dim 6 even — valid; see below
        ],
    )
    def test_invalid_configs(self, kwargs):
        if kwargs == {"d_model": 36, "n_heads": 6}:
            ModelConfig(**kwargs)  # even head_dim: fine
            return
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=12, n_heads=4, n_kv_heads=4)  # head_dim 3

    def test_roundtrip_dict(self):
        config = ModelConfig(vocab_size=100, d_model=32, n_heads=4, n_kv_heads=2, d_ff=64)
        assert ModelConfig.from_dict(config.to_dict()) == config


class TestForward:
    def test_logit_shape(self, tiny_model, tiny_config, token_batch):
        logits = tiny_model(token_batch)
        assert logits.shape == (2, 12, tiny_config.vocab_size)

    def test_1d_input_promoted(self, tiny_model, tiny_config):
        logits = tiny_model(np.arange(5))
        assert logits.shape == (1, 5, tiny_config.vocab_size)

    def test_3d_input_rejected(self, tiny_model):
        with pytest.raises(ShapeError):
            tiny_model(np.zeros((1, 2, 3), dtype=np.int64))

    def test_too_long_sequence_rejected(self, tiny_model, tiny_config):
        with pytest.raises(ShapeError):
            tiny_model(np.zeros((1, tiny_config.max_seq_len + 1), dtype=np.int64))

    def test_deterministic(self, tiny_config, token_batch):
        a = MistralTiny(tiny_config, rng=5)
        b = MistralTiny(tiny_config, rng=5)
        np.testing.assert_allclose(a(token_batch).numpy(), b(token_batch).numpy())

    def test_untied_head(self, tiny_config, token_batch):
        from dataclasses import replace

        model = MistralTiny(replace(tiny_config, tie_embeddings=False), rng=0)
        assert model.lm_head is not None
        logits = model(token_batch)
        assert logits.shape == (2, 12, tiny_config.vocab_size)

    def test_tied_head_shares_embedding(self, tiny_model):
        assert tiny_model.lm_head is None
        names = {name for name, _ in tiny_model.named_parameters()}
        assert not any("lm_head" in n for n in names)


class TestLoss:
    def test_initial_loss_near_uniform(self, tiny_model, tiny_config, token_batch):
        loss = tiny_model.loss(token_batch).item()
        assert abs(loss - np.log(tiny_config.vocab_size)) < 1.0

    def test_label_shift(self, tiny_model):
        """Loss must supervise next-token prediction, not identity."""
        # Sequence where every next token is 7: model can't know from ids alone,
        # but the loss must be computed against shifted labels — verify the
        # mechanism by masking all but one position and checking which logit
        # receives gradient.
        ids = np.array([[3, 5, 9, 2]])
        labels = np.array([[-100, -100, 7, -100]])
        # Supervised pair: logits at position 1 predict label at position 2.
        logits = tiny_model(ids)
        loss = tiny_model.loss(ids, labels)
        assert np.isfinite(loss.item())

    def test_all_masked_raises(self, tiny_model):
        ids = np.array([[1, 2, 3]])
        labels = np.full((1, 3), -100)
        with pytest.raises(ShapeError):
            tiny_model.loss(ids, labels)

    def test_label_shape_mismatch(self, tiny_model):
        with pytest.raises(ShapeError):
            tiny_model.loss(np.zeros((1, 4), dtype=np.int64), np.zeros((1, 5), dtype=np.int64))

    def test_masked_positions_do_not_affect_loss(self, tiny_model):
        ids = np.array([[3, 5, 9, 2, 8]])
        labels = np.array([[-100, 5, 9, -100, -100]])
        loss1 = tiny_model.loss(ids, labels).item()
        # Change a masked label position's token id downstream of supervision.
        ids2 = ids.copy()
        ids2[0, 4] = 60
        loss2 = tiny_model.loss(ids2, labels).item()
        assert loss1 == pytest.approx(loss2, rel=1e-5)

    def test_gradients_reach_all_trainable_params(self, tiny_model, token_batch):
        tiny_model.loss(token_batch).backward()
        missing = [n for n, p in tiny_model.named_parameters() if p.grad is None]
        assert missing == []


def _lora_model(config, merged: bool) -> MistralTiny:
    from repro.lora import LoRAConfig, apply_lora, merge_lora

    model = MistralTiny(config, rng=0)
    for adapter in apply_lora(model, LoRAConfig(rank=2, alpha=16.0), rng=1):
        adapter.lora_b.data[:] = 0.05  # make the low-rank delta visible
    if merged:
        merge_lora(model)
    return model


@pytest.fixture(params=["plain", "lora", "lora_merged"])
def float_model(request, tiny_config) -> MistralTiny:
    if request.param == "plain":
        model = MistralTiny(tiny_config, rng=0)
    else:
        model = _lora_model(tiny_config, merged=request.param == "lora_merged")
    return model


class TestKernelMatchesGraph:
    """The fused kernel (no_grad) against the autograd graph (grad on)."""

    def _graph(self, model, ids):
        logits = model(ids)
        assert logits.requires_grad  # grad on: the autograd graph ran
        return logits.data

    def test_prefill(self, float_model, token_batch):
        graph = self._graph(float_model, token_batch)
        with no_grad():
            fused = float_model(token_batch)
        assert not fused.requires_grad
        np.testing.assert_array_equal(fused.data, graph)

    @settings(max_examples=20, deadline=None)
    @given(
        n_kv_heads=st.sampled_from([1, 2]),
        group=st.sampled_from([1, 2, 4]),
        tied=st.booleans(),
        lora=st.sampled_from(["none", "unmerged", "merged"]),
        batch=st.integers(1, 3),
        seq=st.integers(2, 12),
        window=st.sampled_from([None, 3, 8]),
        seed=st.integers(0, 2**16),
    )
    def test_prefill_property(self, n_kv_heads, group, tied, lora, batch, seq, window, seed):
        """Random float configs: the graph's logits equal the kernel's bit for bit."""
        config = ModelConfig(
            vocab_size=40, d_model=8 * n_kv_heads * group, n_layers=2,
            n_heads=n_kv_heads * group, n_kv_heads=n_kv_heads, d_ff=24,
            max_seq_len=16, sliding_window=window, tie_embeddings=tied,
        )
        if lora == "none":
            model = MistralTiny(config, rng=seed)
        else:
            model = _lora_model(config, merged=lora == "merged")
        ids = np.random.default_rng(seed).integers(0, config.vocab_size, size=(batch, seq))
        graph = self._graph(model, ids)
        with no_grad():
            fused = model(ids).data
        np.testing.assert_array_equal(fused, graph)

    def test_cached_decode_token_by_token(self, float_model, tiny_config):
        # Longer than the sliding window, so the decode masks drop old keys.
        ids = np.random.default_rng(1).integers(5, tiny_config.vocab_size, size=24)
        graph = self._graph(float_model, ids[None, :])[0]
        cache = float_model.make_cache()
        with no_grad():
            fused = np.concatenate(
                [float_model(ids[None, :4], cache=cache).data[0]]
                + [float_model(ids[None, t : t + 1], cache=cache).data[0] for t in range(4, 24)]
            )
        np.testing.assert_allclose(fused, graph, atol=1e-6)
        np.testing.assert_array_equal(fused.argmax(-1), graph.argmax(-1))

    def test_gradient_mode_alone_picks_the_path(self, tiny_model, token_batch, monkeypatch):
        import repro.nn.transformer as transformer

        calls = []
        kernel = transformer.infer_logits_np
        monkeypatch.setattr(
            transformer, "infer_logits_np", lambda *args: calls.append(1) or kernel(*args)
        )
        with no_grad():
            assert not tiny_model(token_batch).requires_grad
        assert len(calls) == 1  # no_grad: the kernel
        assert tiny_model(token_batch).requires_grad
        assert len(calls) == 1  # gradients on: the graph

    def test_cached_forward_with_grad_raises(self, tiny_model, token_batch):
        with pytest.raises(ConfigError, match="no_grad"):
            tiny_model(token_batch, cache=tiny_model.make_cache())
        with pytest.raises(ConfigError, match="no_grad"):
            tiny_model(token_batch, positions=np.arange(token_batch.shape[1]))
