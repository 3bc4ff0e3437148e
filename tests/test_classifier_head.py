"""SequenceClassifier (classification head) tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.nn import MistralTiny, ModelConfig, SequenceClassifier
from repro.baselines import HeadClassifierModel

HEAD_CONFIG = ModelConfig(
    vocab_size=48, d_model=32, n_layers=1, n_heads=4, n_kv_heads=2, d_ff=64, max_seq_len=16
)


def toy_task(n=32, seed=0):
    """Sequences whose label depends on the first token's magnitude."""
    rng = np.random.default_rng(seed)
    seqs = [list(rng.integers(5, 47, size=8)) for _ in range(n)]
    labels = [int(s[0] > 25) for s in seqs]
    return seqs, labels


class TestSequenceClassifier:
    def test_forward_shape(self):
        clf = SequenceClassifier(HEAD_CONFIG, rng=0)
        logits = clf(np.ones((3, 6), dtype=np.int64))
        assert logits.shape == (3,)

    def test_loss_at_init_near_log2(self):
        clf = SequenceClassifier(HEAD_CONFIG, rng=0)
        seqs, labels = toy_task(8)
        batch = np.array([s for s in seqs])
        loss = clf.loss(batch, labels).item()
        assert abs(loss - np.log(2)) < 0.3

    def test_fit_reduces_loss_and_separates(self):
        clf = SequenceClassifier(HEAD_CONFIG, rng=0)
        seqs, labels = toy_task(32)
        history = clf.fit(seqs, labels, epochs=10, lr=3e-3)
        assert history[-1] < history[0]
        proba = clf.predict_proba(np.array(seqs))
        acc = ((proba >= 0.5).astype(int) == np.array(labels)).mean()
        assert acc > 0.8

    def test_padding_ignored_in_pooling(self):
        clf = SequenceClassifier(HEAD_CONFIG, rng=0)
        clf.pad_id = 0
        short = np.array([[5, 9, 12, 0, 0, 0]])
        unpadded = np.array([[5, 9, 12]])
        np.testing.assert_allclose(
            clf.predict_proba(short), clf.predict_proba(unpadded), atol=1e-5
        )

    def test_label_batch_mismatch(self):
        clf = SequenceClassifier(HEAD_CONFIG, rng=0)
        with pytest.raises(ShapeError):
            clf.loss(np.ones((2, 4), dtype=np.int64), np.array([1.0]))

    def test_fit_validation(self):
        clf = SequenceClassifier(HEAD_CONFIG, rng=0)
        with pytest.raises(ConfigError):
            clf.fit([], [])
        with pytest.raises(ConfigError):
            clf.fit([[1, 2]], [1, 0])

    def test_gradients_reach_backbone(self):
        clf = SequenceClassifier(HEAD_CONFIG, rng=0)
        clf.loss(np.ones((2, 4), dtype=np.int64), np.array([1.0, 0.0])).backward()
        assert clf.backbone.tok_embed.weight.grad is not None
        assert clf.head.weight.grad is not None

    def test_hidden_states_shape(self):
        model = MistralTiny(HEAD_CONFIG, rng=0)
        hidden = model.hidden_states(np.ones((2, 5), dtype=np.int64))
        assert hidden.shape == (2, 5, HEAD_CONFIG.d_model)


class TestHeadClassifierModel:
    def test_fit_and_predict_on_german(self, german_small, german_examples):
        from repro.data import corpus_texts
        from repro.eval import evaluate, make_eval_samples
        from repro.tokenizer import WordTokenizer

        train, test = german_small.split(test_fraction=0.3, seed=0)
        from repro.data import build_classification_examples

        train_ex = build_classification_examples(train)
        tokenizer = WordTokenizer.train(corpus_texts(train_ex))
        config = ModelConfig(
            vocab_size=tokenizer.vocab_size, d_model=32, n_layers=1, n_heads=4,
            n_kv_heads=2, d_ff=64, max_seq_len=48,
        )
        model = HeadClassifierModel.fit(train_ex, tokenizer, config, epochs=6, lr=3e-3)
        result = evaluate(model, make_eval_samples(test), "german")
        assert result.miss == 0.0  # a head never misses
        assert result.accuracy >= 0.5
        assert result.ks is not None
