"""FLOPs and parameter-count estimator tests."""

from __future__ import annotations

import pytest

from repro.nn import MistralTiny, ModelConfig, count_parameters, estimate_flops


class TestFlops:
    @pytest.mark.parametrize(
        "config",
        [
            ModelConfig(),
            ModelConfig(vocab_size=100, d_model=32, n_layers=3, n_heads=4, n_kv_heads=4, d_ff=64),
            ModelConfig(tie_embeddings=False),
        ],
    )
    def test_parameter_count_exact(self, config):
        model = MistralTiny(config, rng=0)
        assert count_parameters(config) == model.num_parameters()

    def test_flops_components_sum(self):
        estimate = estimate_flops(ModelConfig(), seq_len=64)
        assert estimate.flops_per_token == (
            estimate.attention_flops + estimate.ffn_flops + estimate.head_flops
        )

    def test_sliding_window_caps_attention(self):
        wide = estimate_flops(ModelConfig(sliding_window=None, max_seq_len=128), seq_len=128)
        narrow = estimate_flops(ModelConfig(sliding_window=16, max_seq_len=128), seq_len=128)
        assert narrow.attention_flops < wide.attention_flops
        assert narrow.ffn_flops == wide.ffn_flops

    def test_flops_grow_with_layers(self):
        small = estimate_flops(ModelConfig(n_layers=2))
        big = estimate_flops(ModelConfig(n_layers=4))
        assert big.flops_per_token > small.flops_per_token

    def test_quantized_splits_macs_without_changing_totals(self):
        config = ModelConfig()
        float_est = estimate_flops(config, seq_len=64)
        quant_est = estimate_flops(config, seq_len=64, quantized=True)
        # Quantization moves bytes, not arithmetic: totals are identical,
        # only the int8/float MAC split changes.
        assert quant_est.flops_per_token == float_est.flops_per_token
        assert float_est.int8_macs == 0
        assert quant_est.int8_macs > 0

    def test_quantized_int8_macs_are_the_weight_matmuls(self):
        config = ModelConfig()
        est = estimate_flops(config, seq_len=64, quantized=True)
        # What stays float is exactly the activation-by-activation work:
        # QK^T and AV, scaling with the attended length.
        attended = min(64, config.sliding_window or 64)
        score_macs = config.n_layers * 2 * config.d_model * attended
        assert est.flops_per_token // 2 - est.int8_macs == score_macs

    def test_decode_flops_cheaper_than_full_forward(self):
        from repro.nn import estimate_decode_flops

        config = ModelConfig(max_seq_len=128)
        full = estimate_flops(config, seq_len=128)
        step = estimate_decode_flops(config, kv_len=127)
        assert step.flops_per_token <= full.flops_per_token

    def test_decode_flops_window_caps_attended_span(self):
        from repro.nn import estimate_decode_flops

        config = ModelConfig(sliding_window=16, max_seq_len=128)
        at_window = estimate_decode_flops(config, kv_len=16)
        deep = estimate_decode_flops(config, kv_len=100)
        assert deep.flops_per_token == at_window.flops_per_token  # capped
        growing = estimate_decode_flops(config, kv_len=4)
        assert growing.attention_flops < at_window.attention_flops

    def test_decode_flops_negative_kv_len_raises(self):
        from repro.nn import estimate_decode_flops

        with pytest.raises(ValueError):
            estimate_decode_flops(ModelConfig(), kv_len=-1)

    def test_decode_flops_quantized_split(self):
        from repro.nn import estimate_decode_flops

        est = estimate_decode_flops(ModelConfig(), kv_len=32, quantized=True)
        assert est.int8_macs > 0
