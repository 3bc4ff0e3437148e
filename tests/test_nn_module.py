"""Module / Parameter system tests."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.nn import Linear, MistralTiny, ModelConfig, Module, ModuleList, Parameter
from repro.nn.module import Buffer
from repro.nn.quant import _iter_modules


class Toy(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(4, 3, rng=0)
        self.blocks = ModuleList([Linear(3, 3, rng=1), Linear(3, 2, rng=2)])
        self.scale = Parameter(np.ones(2, dtype=np.float32))

    def forward(self, x):
        x = self.fc(x)
        for block in self.blocks:
            x = block(x)
        return x * self.scale


class TestTraversal:
    def test_named_parameters_paths(self):
        names = {name for name, _ in Toy().named_parameters()}
        assert "fc.weight" in names
        assert "fc.bias" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert "scale" in names

    def test_parameter_count(self):
        toy = Toy()
        expected = (3 * 4 + 3) + (3 * 3 + 3) + (2 * 3 + 2) + 2
        assert toy.num_parameters() == expected

    def test_trainable_only_count(self):
        toy = Toy()
        toy.fc.weight.requires_grad = False
        assert toy.num_parameters(trainable_only=True) == toy.num_parameters() - 12

    def test_modulelist_len_and_getitem(self):
        toy = Toy()
        assert len(toy.blocks) == 2
        assert isinstance(toy.blocks[0], Linear)


class TestModes:
    def test_zero_grad_clears_all(self):
        toy = Toy()
        x = np.random.default_rng(0).normal(size=(2, 4)).astype(np.float32)
        from repro.tensor import Tensor

        toy(Tensor(x)).sum().backward()
        assert any(p.grad is not None for p in toy.parameters())
        toy.zero_grad()
        assert all(p.grad is None for p in toy.parameters())


class TestWeightVersion:
    def test_load_state_dict_bumps(self):
        toy = Toy()
        v0 = toy.weight_version
        toy.load_state_dict(toy.state_dict())
        assert toy.weight_version == v0 + 1

    def test_manual_bump(self):
        toy = Toy()
        toy.bump_weight_version()
        toy.bump_weight_version()
        assert toy.weight_version == 2


class TestStateDict:
    def test_roundtrip(self):
        a, b = Toy(), Toy()
        b.fc.weight.data += 1.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b.fc.weight.data, a.fc.weight.data)

    def test_state_dict_is_a_copy(self):
        toy = Toy()
        state = toy.state_dict()
        state["fc.weight"] += 100.0
        assert toy.fc.weight.data.max() < 50.0

    def test_strict_missing_key_raises(self):
        toy = Toy()
        state = toy.state_dict()
        del state["scale"]
        with pytest.raises(CheckpointError):
            toy.load_state_dict(state)

    def test_strict_unexpected_key_raises(self):
        toy = Toy()
        state = toy.state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(CheckpointError):
            toy.load_state_dict(state)

    def test_non_strict_partial_load(self):
        toy = Toy()
        original_scale = toy.scale.data.copy()
        toy.load_state_dict({"fc.bias": np.full(3, 9.0, dtype=np.float32)}, strict=False)
        np.testing.assert_allclose(toy.fc.bias.data, np.full(3, 9.0))
        np.testing.assert_allclose(toy.scale.data, original_scale)

    def test_shape_mismatch_raises(self):
        toy = Toy()
        state = toy.state_dict()
        state["scale"] = np.zeros(5)
        with pytest.raises(CheckpointError):
            toy.load_state_dict(state)

    def test_mistral_state_dict_covers_all_blocks(self, tiny_config):
        model = MistralTiny(tiny_config, rng=0)
        keys = set(model.state_dict())
        assert any(k.startswith("blocks.0.attn") for k in keys)
        assert any(k.startswith("blocks.1.ffn") for k in keys)
        assert "tok_embed.weight" in keys


class _Codes(Module):
    """A float parameter beside an int8 buffer held in Fortran order."""

    def __init__(self):
        super().__init__()
        self.gain = Parameter(np.ones(3, dtype=np.float32))
        self.codes = Buffer(np.asfortranarray(np.arange(6, dtype=np.int8).reshape(2, 3)))


def _one_layer_lora_model():
    from repro.lora import LoRAConfig, apply_lora

    config = ModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2, n_kv_heads=1, max_seq_len=8)
    model = MistralTiny(config, rng=0)
    apply_lora(model, LoRAConfig(rank=2, alpha=4.0), rng=0)
    return model


class TestLoadSemantics:
    """Every value is copied into a fresh array of its holder's dtype and layout."""

    def test_a_float_into_an_int8_buffer_is_refused_by_key(self):
        module = _Codes()
        before = module.codes.data.copy()
        version = module.weight_version
        state = module.state_dict()
        state["codes"] = np.full((2, 3), 300.7)  # would wrap to 44 under an unsafe cast
        with pytest.raises(CheckpointError, match="codes"):
            module.load_state_dict(state)
        np.testing.assert_array_equal(module.codes.data, before)
        assert module.weight_version == version

    def test_a_complex_value_into_a_float_parameter_is_refused_by_key(self):
        toy = Toy()
        state = toy.state_dict()
        state["fc.weight"] = state["fc.weight"] + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(CheckpointError, match="fc.weight"):
                toy.load_state_dict(state)

    def test_a_refused_load_loads_nothing(self):
        toy = Toy()
        before = toy.state_dict()
        state = {k: v + 1.0 for k, v in before.items()}
        state["scale"] = state["scale"].astype(np.complex64)
        with pytest.raises(CheckpointError, match="scale"):
            toy.load_state_dict(state)
        for key, value in toy.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_same_kind_casts_load(self):
        module = _Codes()
        module.load_state_dict(
            {"gain": np.full(3, 0.5, dtype=np.float64), "codes": np.ones((2, 3), dtype=np.int64)}
        )
        assert module.gain.data.dtype == np.float32
        np.testing.assert_array_equal(module.gain.data, np.full(3, 0.5, dtype=np.float32))
        assert module.codes.data.dtype == np.int8
        assert module.codes.data.flags.f_contiguous and not module.codes.data.flags.c_contiguous

    def test_int8_buffers_keep_fortran_order_and_parameters_stay_float32(self):
        module = _Codes()
        state = {
            "gain": np.arange(3, dtype=np.float64),
            "codes": np.ascontiguousarray(np.full((2, 3), -5, dtype=np.int8)),
        }
        module.load_state_dict(state)
        assert module.gain.data.dtype == np.float32 and module.gain.data.flags.c_contiguous
        assert module.codes.data.dtype == np.int8
        assert module.codes.data.T.flags.c_contiguous
        np.testing.assert_array_equal(module.codes.data, state["codes"])

    def test_a_loaded_model_shares_no_array_with_the_state(self):
        # A cluster stages one dict for every replica: each load must copy.
        state = _Codes().state_dict()
        first, second = _Codes(), _Codes()
        first.load_state_dict(state)
        second.load_state_dict(state)
        for module in (first, second):
            for name, held in [*module.named_parameters(), *module.named_buffers()]:
                assert not np.shares_memory(held.data, state[name]), name
        assert not np.shares_memory(first.codes.data, second.codes.data)
        assert not np.shares_memory(first.gain.data, second.gain.data)

    def test_named_parameters_order_on_a_lora_model(self):
        # Optimizer moments, the clip norm's sum and gradient-row columns follow it.
        expected = [
            "tok_embed.weight",
            "blocks.0.attn_norm.weight",
            "blocks.0.attn.wq.lora_a",
            "blocks.0.attn.wq.lora_b",
            "blocks.0.attn.wq.base.weight",
            "blocks.0.attn.wk.lora_a",
            "blocks.0.attn.wk.lora_b",
            "blocks.0.attn.wk.base.weight",
            "blocks.0.attn.wv.lora_a",
            "blocks.0.attn.wv.lora_b",
            "blocks.0.attn.wv.base.weight",
            "blocks.0.attn.wo.weight",
            "blocks.0.ffn_norm.weight",
            "blocks.0.ffn.w1.weight",
            "blocks.0.ffn.w3.weight",
            "blocks.0.ffn.w2.weight",
            "final_norm.weight",
        ]
        model = _one_layer_lora_model()
        assert [name for name, _ in model.named_parameters()] == expected
        assert list(model.state_dict()) == expected
        assert [id(p) for p in model.parameters()] == [id(p) for _, p in model.named_parameters()]

    def test_state_dict_calls_walk_each_module_once(self, monkeypatch):
        model = _one_layer_lora_model()
        visits: list[int] = []
        walk = Module._walk

        def counting(self, prefix, params, buffers):
            visits.append(id(self))
            return walk(self, prefix, params, buffers)

        monkeypatch.setattr(Module, "_walk", counting)
        state = model.state_dict()
        per_call = len(visits)
        assert per_call == len(set(visits)) == len(list(_iter_modules(model)))  # each module once
        visits.clear()
        model.load_state_dict(state)
        assert len(visits) == per_call == len(set(visits))
