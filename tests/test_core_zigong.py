"""ZiGong model API tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError
from repro.config import bench_config
from repro.config import test_config as make_test_config
from repro.core import ZiGong
from repro.lora import LoRALinear, merge_lora


class TestConstruction:
    def test_from_examples_sizes_vocab(self, german_examples):
        zigong = ZiGong.from_examples(german_examples)
        assert zigong.config.model.vocab_size == zigong.tokenizer.vocab_size

    def test_empty_examples_raise(self):
        with pytest.raises(ConfigError):
            ZiGong.from_examples([])

    def test_vocab_too_small_raises(self, german_examples):
        from repro.tokenizer import WordTokenizer
        from repro.data import corpus_texts

        tok = WordTokenizer.train(corpus_texts(german_examples))
        config = make_test_config()  # vocab 256 < tokenizer? ensure smaller
        small = dataclasses.replace(config, model=dataclasses.replace(config.model, vocab_size=3))
        with pytest.raises(ConfigError):
            ZiGong(small, tok)

    def test_tokenize_respects_context(self, fitted_zigong, german_examples):
        encoded = fitted_zigong.tokenize(german_examples[:4])
        max_len = fitted_zigong.config.model.max_seq_len
        assert all(len(ids) <= max_len for ids, _ in encoded)


class TestFinetune:
    def test_loss_decreases(self, german_examples):
        zigong = ZiGong.from_examples(german_examples[:48])
        history = zigong.finetune(german_examples[:48])
        assert history.losses[-1] < history.losses[0]

    def test_lora_applied_once(self, make_zigong):
        zigong = make_zigong()
        zigong.apply_lora()
        zigong.apply_lora()  # idempotent
        adapters = zigong.lora_modules
        assert len(adapters) == zigong.config.model.n_layers * 3
        assert all(isinstance(a, LoRALinear) for a in adapters)

    def test_full_finetune_without_lora(self, make_zigong, german_examples):
        zigong = make_zigong()
        history = zigong.finetune(german_examples[:32], use_lora=False)
        assert not zigong.lora_modules
        assert history.losses

    def test_checkpoints_written(self, make_zigong, german_examples, tmp_path):
        zigong = make_zigong()
        zigong.finetune(german_examples[:32], checkpoint_dir=tmp_path)
        from repro.training import CheckpointManager

        records = CheckpointManager(tmp_path).checkpoints()
        assert len(records) >= 2  # step 0 + periodic

    def test_answers_become_valid_after_training(self, fitted_zigong, german_examples):
        hits = 0
        for example in german_examples[:20]:
            text = fitted_zigong.generate_answer(example.prompt)
            if any(tok in ("good", "bad") for tok in text.split()):
                hits += 1
        assert hits >= 16  # trained model answers in-vocabulary


class TestClassifier:
    def test_scores_in_unit_interval(self, fitted_zigong, german_examples):
        clf = fitted_zigong.classifier()
        score = clf.score(german_examples[0].prompt, "good", "bad")
        assert 0.0 <= score <= 1.0

    def test_predict_returns_prediction(self, fitted_zigong, german_examples):
        from repro.eval import EvalSample

        clf = fitted_zigong.classifier(name="zg")
        assert clf.name == "zg"
        sample = EvalSample(german_examples[0].prompt, 1, "good", "bad")
        pred = clf.predict(sample)
        assert pred.score is not None

    def test_memoized_classifier_fresh_after_finetune(self, make_zigong, german_examples):
        # Regression for the measure_forgetting staleness bug: the
        # memoized classifier's prefix cache must flush when a finetune
        # changes the weights, not replay pre-finetune KV/logits.
        from repro.baselines.lm import LMClassifier

        zigong = make_zigong()
        prompt = german_examples[0].prompt
        zigong.generate_answer(prompt)  # warm the memoized prefix cache
        zigong.finetune(german_examples[:32])
        uncached = LMClassifier(zigong.model, zigong.tokenizer, prefix_cache_size=0)
        assert zigong.generate_answer(prompt) == uncached.generate_answer(prompt)
        assert zigong.classifier().prefix_cache.stats.invalidations == 1

    def test_merge_adapters_preserves_scores(self, make_zigong, german_examples):
        zigong = make_zigong()
        zigong.finetune(german_examples[:32])
        prompt = german_examples[0].prompt
        before = zigong.classifier().score(prompt, "good", "bad")
        count = merge_lora(zigong.model)
        assert count > 0
        after = zigong.classifier().score(prompt, "good", "bad")
        assert before == pytest.approx(after, abs=1e-3)


class TestPersistence:
    def test_save_load_roundtrip(self, fitted_zigong, german_examples, tmp_path):
        fitted_zigong.save(tmp_path / "model")
        loaded = ZiGong.load(tmp_path / "model")
        assert loaded.config == fitted_zigong.config
        prompt = german_examples[0].prompt
        original = fitted_zigong.classifier().score(prompt, "good", "bad")
        restored = loaded.classifier().score(prompt, "good", "bad")
        assert original == restored

        # The Table-3 preset (LoRA rank 8) reloads as itself too.
        bench = ZiGong.from_examples(german_examples, config=bench_config(seed=3))
        bench.apply_lora()
        bench.save(tmp_path / "bench")
        loaded = ZiGong.load(tmp_path / "bench")
        assert loaded.config == bench.config
        saved = bench.model.state_dict()
        for name, value in loaded.model.state_dict().items():
            np.testing.assert_array_equal(value, saved[name])

    def test_swapped_weights_are_refused_by_fingerprint(self, make_zigong, tmp_path):
        make_zigong().save(tmp_path / "model")
        path = tmp_path / "model" / "zigong.npz"
        other = make_zigong()
        other.model.load_state_dict(
            {k: v + 1.0 for k, v in other.model.state_dict().items()}
        )
        other.save(tmp_path / "other")
        with np.load(path) as data:
            manifest = data["__manifest__"]
        with np.load(tmp_path / "other" / "zigong.npz") as data:
            swapped = data["__data__"]
        # The other model's blob under this model's manifest: every
        # entry still fits, only the fingerprint tells them apart.
        np.savez(path, __data__=swapped, __manifest__=manifest)
        with pytest.raises(CheckpointError, match="fingerprint"):
            ZiGong.load(tmp_path / "model")

    def test_a_merged_model_is_refused(self, make_zigong, tmp_path):
        """Merged adapters' deltas are in the base weights; a load would add them again."""
        zigong = make_zigong()
        zigong.apply_lora()
        for adapter in zigong.lora_modules:
            adapter.lora_b.data[...] = 0.05
        merge_lora(zigong.model)
        with pytest.raises(CheckpointError, match="merged"):
            zigong.save(tmp_path / "model")
        assert not (tmp_path / "model").exists()

    def test_interrupted_save_keeps_the_previous_artifact(
        self, make_zigong, tmp_path, monkeypatch
    ):
        import os

        first = make_zigong()
        first.save(tmp_path / "model")
        second = make_zigong()
        second.model.load_state_dict(
            {k: v + 1.0 for k, v in second.model.state_dict().items()}
        )

        def killed(*args, **kwargs):
            raise OSError("killed before the rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", killed)
            with pytest.raises(OSError, match="killed"):
                second.save(tmp_path / "model")
        assert [p.name for p in (tmp_path / "model").iterdir()] == ["zigong.npz"]
        saved = first.model.state_dict()
        for name, value in ZiGong.load(tmp_path / "model").model.state_dict().items():
            np.testing.assert_array_equal(value, saved[name])

    def test_load_preserves_tokenizer(self, fitted_zigong, tmp_path):
        fitted_zigong.save(tmp_path / "model")
        loaded = ZiGong.load(tmp_path / "model")
        assert loaded.tokenizer.vocab.tokens() == fitted_zigong.tokenizer.vocab.tokens()

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            ZiGong.load(tmp_path / "missing")

    def test_generation_deterministic_after_reload(self, fitted_zigong, german_examples, tmp_path):
        fitted_zigong.save(tmp_path / "model")
        loaded = ZiGong.load(tmp_path / "model")
        prompt = german_examples[1].prompt
        assert fitted_zigong.generate_answer(prompt) == loaded.generate_answer(prompt)


# A zigong.json as written before ``ModelConfig`` lost its dropout field.
OLD_FORMAT_META = """{"model_config": {"vocab_size": 16, "d_model": 16, "n_layers": 1, "n_heads": 2,
"n_kv_heads": 1, "d_ff": 32, "max_seq_len": 24, "sliding_window": 8, "rope_theta": 10000.0,
"dropout": 0.0, "tie_embeddings": true},
"tokens": ["<pad>", "<unk>", "<s>", "</s>", "<sep>", "good", "bad", "loan"],
"lora_applied": false, "lora": {"rank": 8, "alpha": 16.0, "target_modules": ["wq", "wk", "wv"]}}"""


class TestLoadOlderFormat:
    def write(self, directory, meta: str):
        from repro.nn import MistralTiny, ModelConfig

        directory.mkdir()
        (directory / "zigong.json").write_text(meta)
        config = ModelConfig(
            vocab_size=16, d_model=16, n_layers=1, n_heads=2, n_kv_heads=1, d_ff=32,
            max_seq_len=24, sliding_window=8,
        )
        state = MistralTiny(config, rng=3).state_dict()
        np.savez(directory / "weights.npz", **state)
        return config, state

    def test_a_zero_dropout_key_is_dropped(self, tmp_path):
        config, state = self.write(tmp_path / "model", OLD_FORMAT_META)
        loaded = ZiGong.load(tmp_path / "model")
        assert loaded.config.model == config
        assert loaded.tokenizer.vocab.tokens() == ["<pad>", "<unk>", "<s>", "</s>", "<sep>", "good", "bad", "loan"]
        for name, value in loaded.model.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

    def test_the_lora_block_sets_the_adapter_shape(self, tmp_path):
        from repro.lora import LoRAConfig, apply_lora
        from repro.nn import MistralTiny

        config, _ = self.write(tmp_path / "model", OLD_FORMAT_META.replace(
            '"lora_applied": false', '"lora_applied": true'
        ))
        model = MistralTiny(config, rng=3)
        apply_lora(model, LoRAConfig(rank=8, alpha=16.0), rng=4)
        state = model.state_dict()
        np.savez(tmp_path / "model" / "weights.npz", **state)
        loaded = ZiGong.load(tmp_path / "model")
        assert loaded.config.lora == LoRAConfig(rank=8, alpha=16.0)
        for name, value in loaded.model.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

    def test_reordered_special_tokens_are_refused(self, tmp_path):
        from repro.errors import TokenizerError

        self.write(tmp_path / "model", OLD_FORMAT_META.replace(
            '"<pad>", "<unk>", "<s>", "</s>", "<sep>"', '"<sep>", "<pad>", "<unk>", "<s>", "</s>"'
        ))
        with pytest.raises(TokenizerError):
            ZiGong.load(tmp_path / "model")

    def test_a_live_dropout_key_is_refused(self, tmp_path):
        self.write(tmp_path / "model", OLD_FORMAT_META.replace('"dropout": 0.0', '"dropout": 0.1'))
        with pytest.raises(ConfigError, match="'dropout' is 0.1"):
            ZiGong.load(tmp_path / "model")
