"""The fused kernel's last-position readout.

``infer_logits_np(..., readout=idx)`` runs the last block's query,
attention output, MLP, final norm and head only at one position per
row.  It must agree with the full forward's rows (to BLAS rounding),
leave the KV cache exactly as a full forward leaves it, not let a row's
logits depend on the other rows at a fixed pad width, and be the
identity on one-position forwards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ShapeError
from repro.nn import MistralTiny, ModelConfig
from repro.nn.cache import KVCache
from repro.nn.quant import infer_logits_np, quantize_model
from repro.tensor import no_grad

VOCAB = 40
MAX_SEQ = 24

models = st.fixed_dictionaries(
    {
        "n_kv_heads": st.sampled_from([1, 2]),
        "group": st.sampled_from([1, 2, 4]),
        "tied": st.booleans(),
        "lora": st.sampled_from(["none", "unmerged", "merged"]),
        "int8": st.booleans(),
        "window": st.sampled_from([None, 3, 8]),
        "seed": st.integers(0, 2**16),
    }
)


def _model(n_kv_heads, group, tied, lora, int8, window, seed) -> MistralTiny:
    from repro.lora import LoRAConfig, apply_lora, merge_lora

    assume(not (int8 and lora == "unmerged"))  # int8 needs merged adapters
    config = ModelConfig(
        vocab_size=VOCAB, d_model=8 * n_kv_heads * group, n_layers=2,
        n_heads=n_kv_heads * group, n_kv_heads=n_kv_heads, d_ff=24,
        max_seq_len=MAX_SEQ, sliding_window=window, tie_embeddings=tied,
    )
    model = MistralTiny(config, rng=seed)
    if lora != "none":
        for adapter in apply_lora(model, LoRAConfig(rank=2, alpha=16.0), rng=seed + 1):
            adapter.lora_b.data[:] = 0.05  # make the low-rank delta visible
        if lora == "merged":
            merge_lora(model)
    if int8:
        quantize_model(model)
    model.eval()
    return model


def _indices(batch: int, seq: int):
    return st.lists(st.integers(0, seq - 1), min_size=batch, max_size=batch)


def _kv(cache: KVCache):
    return [tuple(np.array(a) for a in layer.views()) for layer in cache.layers]


def _forward(model, ids, prefix, readout=None):
    """Logits (and the cache after) for ``ids``, after ``prefix`` if given."""
    cache = None
    if prefix is not None:
        cache = KVCache(model.config.n_layers)
        if len(prefix):
            infer_logits_np(model, np.repeat(prefix[None, :], ids.shape[0], axis=0), cache)
    logits = infer_logits_np(model, ids, cache, readout=readout)
    return logits, None if cache is None else _kv(cache)


class TestReadout:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=models,
        batch=st.integers(1, 4),
        seq=st.integers(2, 14),
        prefix_len=st.sampled_from([None, 0, 5]),
        data=st.data(),
    )
    def test_matches_full_rows_and_leaves_cache_alone(self, spec, batch, seq, prefix_len, data):
        model = _model(**spec)
        rng = np.random.default_rng(spec["seed"])
        ids = rng.integers(0, VOCAB, size=(batch, seq))
        prefix = None if prefix_len is None else rng.integers(0, VOCAB, size=prefix_len)
        readout = np.array(data.draw(_indices(batch, seq)))
        full, full_kv = _forward(model, ids, prefix)
        read, read_kv = _forward(model, ids, prefix, readout)
        assert read.shape == (batch, 1, VOCAB)
        np.testing.assert_allclose(read[:, 0], full[np.arange(batch), readout], atol=1e-6)
        if prefix is not None:
            for (k_full, v_full), (k_read, v_read) in zip(full_kv, read_kv):
                np.testing.assert_array_equal(k_read, k_full)
                np.testing.assert_array_equal(v_read, v_full)

    @settings(max_examples=30, deadline=None)
    @given(spec=models, batch=st.integers(2, 4), seq=st.integers(2, 14), data=st.data())
    def test_row_does_not_depend_on_other_rows(self, spec, batch, seq, data):
        """At a fixed pad width, a row's logits ignore what shares its batch."""
        model = _model(**spec)
        row = data.draw(st.integers(0, batch - 1))
        at = data.draw(st.integers(0, seq - 1))
        rng = np.random.default_rng(spec["seed"])
        mine = rng.integers(0, VOCAB, size=seq)
        outputs = []
        for _ in range(2):
            ids = rng.integers(0, VOCAB, size=(batch, seq))
            ids[row] = mine
            readout = np.array(data.draw(_indices(batch, seq)))
            readout[row] = at
            outputs.append(infer_logits_np(model, ids, readout=readout)[row])
        np.testing.assert_array_equal(outputs[0], outputs[1])

    @settings(max_examples=20, deadline=None)
    @given(spec=models, batch=st.integers(1, 3), prefix_len=st.sampled_from([None, 1, 9]))
    def test_one_position_forward_ignores_readout(self, spec, batch, prefix_len):
        """``T == 1`` (a decode step, a one-token suffix) is bit for bit unchanged."""
        model = _model(**spec)
        rng = np.random.default_rng(spec["seed"])
        ids = rng.integers(0, VOCAB, size=(batch, 1))
        prefix = None if prefix_len is None else rng.integers(0, VOCAB, size=prefix_len)
        plain, plain_kv = _forward(model, ids, prefix)
        read, read_kv = _forward(model, ids, prefix, np.zeros(batch, dtype=np.int64))
        np.testing.assert_array_equal(read, plain)
        if prefix is not None:
            for a, b in zip(plain_kv, read_kv):
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])

    def test_with_attn_mask_raises(self, tiny_model):
        ids = np.arange(6)[None, :]
        mask = np.zeros((6, 6), dtype=np.float32)
        with no_grad(), pytest.raises(ConfigError, match="attn_mask"):
            tiny_model(ids, attn_mask=mask, readout=[5])

    def test_needs_one_index_per_row(self, tiny_model):
        with no_grad(), pytest.raises(ShapeError, match="one index per row"):
            tiny_model(np.zeros((2, 6), dtype=np.int64), readout=[5])

    def test_is_inference_only(self, tiny_model):
        with pytest.raises(ConfigError, match="no_grad"):
            tiny_model(np.arange(6)[None, :], readout=[5])


WORDS = ["income", "is", "high", "debt", "no", "job", "good", "bad", "savings", "late"]


class TestOneScoringPath:
    @pytest.fixture(scope="class")
    def classifier(self):
        from repro.baselines.lm import LMClassifier
        from repro.tokenizer.whitespace import WordTokenizer

        tokenizer = WordTokenizer.train([" ".join(WORDS)])
        model = MistralTiny(ModelConfig(vocab_size=tokenizer.vocab_size), rng=0)
        return LMClassifier(model, tokenizer, prefix_cache_size=0)

    @settings(max_examples=25, deadline=None)
    @given(words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=12))
    def test_score_is_a_one_row_score_batch(self, classifier, words):
        prompt = " ".join(words)
        assert classifier.score(prompt, "good", "bad") == classifier.score_batch(
            [prompt], "good", "bad"
        )[0]
