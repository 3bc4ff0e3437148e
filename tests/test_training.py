"""Training loop tests: batching, checkpoints, trainer behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError, DataError
from repro.nn import MistralTiny
from repro.optim import AdamW, ConstantLR
from repro.training import (
    CheckpointManager,
    Trainer,
    TrainingConfig,
    collate,
    iter_batches,
)


def random_examples(n=16, length=10, vocab=60, seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        ids = list(rng.integers(5, vocab, size=length))
        examples.append((ids, ids))
    return examples


class TestCollate:
    def test_right_padding(self):
        batch = collate([([1, 2, 3], [1, 2, 3]), ([4, 5], [4, 5])], pad_id=0)
        np.testing.assert_array_equal(batch.input_ids, [[1, 2, 3], [4, 5, 0]])
        np.testing.assert_array_equal(batch.labels, [[1, 2, 3], [4, 5, -100]])

    def test_truncation(self):
        batch = collate([([1, 2, 3, 4], [1, 2, 3, 4])], max_len=2)
        assert batch.input_ids.shape == (1, 2)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(DataError):
            collate([([1, 2], [1])])

    def test_empty_raises(self):
        with pytest.raises(DataError):
            collate([])

    def test_iter_batches_covers_all(self):
        examples = random_examples(n=10)
        batches = list(iter_batches(examples, batch_size=3, shuffle=False))
        assert sum(len(b) for b in batches) == 10

    def test_iter_batches_drop_last(self):
        examples = random_examples(n=10)
        batches = list(iter_batches(examples, batch_size=3, shuffle=False, drop_last=True))
        assert all(len(b) == 3 for b in batches)
        assert len(batches) == 3

    def test_iter_batches_shuffle_seeded(self):
        examples = random_examples(n=12)
        a = [b.input_ids.tolist() for b in iter_batches(examples, 4, rng=1)]
        b = [b.input_ids.tolist() for b in iter_batches(examples, 4, rng=1)]
        assert a == b

    def test_invalid_batch_size(self):
        with pytest.raises(DataError):
            list(iter_batches(random_examples(4), batch_size=0))


class TestCheckpointManager:
    def test_save_and_list(self, tiny_model, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(tiny_model, step=5, lr=0.01)
        manager.save(tiny_model, step=10, lr=0.005)
        records = manager.checkpoints()
        assert [r.step for r in records] == [5, 10]
        assert records[0].lr == 0.01

    def test_restore_roundtrip(self, tiny_config, tmp_path):
        manager = CheckpointManager(tmp_path)
        a = MistralTiny(tiny_config, rng=0)
        record = manager.save(a, step=1, lr=0.1)
        b = MistralTiny(tiny_config, rng=99)
        CheckpointManager.restore(b, record)
        for (_, pa), (_, pb) in zip(sorted(a.named_parameters()), sorted(b.named_parameters())):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_keep_prunes_oldest(self, tiny_model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for step in (1, 2, 3):
            manager.save(tiny_model, step=step, lr=0.1)
        assert [r.step for r in manager.checkpoints()] == [2, 3]

    def test_latest(self, tiny_model, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert manager.latest() is None
        manager.save(tiny_model, step=3, lr=0.1)
        assert manager.latest().step == 3

    def test_orphan_npz_skipped_with_warning(self, tiny_model, tmp_path):
        """A .npz without its sidecar must not fail the whole listing."""
        manager = CheckpointManager(tmp_path)
        record = manager.save(tiny_model, step=1, lr=0.1)
        manager.save(tiny_model, step=2, lr=0.05)
        record.meta_path.unlink()
        with pytest.warns(RuntimeWarning, match="orphan checkpoint"):
            records = manager.checkpoints()
        assert [r.step for r in records] == [2]

    def test_atomic_save_leaves_no_temp_files(self, tiny_model, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(tiny_model, step=1, lr=0.1)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["step-000001.json", "step-000001.npz"]

    def test_invalid_keep(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, keep=0)

    def test_extra_metadata_persisted(self, tiny_model, tmp_path):
        import json

        manager = CheckpointManager(tmp_path)
        record = manager.save(tiny_model, step=1, lr=0.1, extra={"epoch": 3})
        assert json.loads(record.meta_path.read_text())["epoch"] == 3

    def test_extra_metadata_round_trips_through_listing(self, tiny_model, tmp_path):
        """Regression: checkpoints() used to drop everything but step/lr."""
        manager = CheckpointManager(tmp_path)
        manager.save(tiny_model, step=1, lr=0.1, extra={"epoch": 3, "tag": "mid"})
        for record in (manager.checkpoints()[0], manager.latest()):
            assert record.extra["epoch"] == 3
            assert record.extra["tag"] == "mid"
        fresh = CheckpointManager(tmp_path).latest()
        assert dict(fresh.extra) == {"epoch": 3, "tag": "mid"}
        with pytest.raises(TypeError):
            fresh.extra["epoch"] = 4  # read-only view


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"grad_accum_steps": 0},
            {"batch_size": 8, "grad_accum_steps": 3},
            {"checkpoint_every": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainingConfig(**kwargs)


class TestTrainer:
    def _trainer(self, model, tmp_path=None, **kwargs):
        opt = AdamW(model.parameters(), lr=3e-3)
        config = TrainingConfig(**{"epochs": 3, "batch_size": 4, **kwargs})
        manager = CheckpointManager(tmp_path) if tmp_path else None
        return Trainer(model, opt, config=config, checkpoint_manager=manager)

    def test_loss_decreases(self, tiny_model):
        trainer = self._trainer(tiny_model, epochs=8)
        history = trainer.train(random_examples(n=12, vocab=60))
        assert history.losses[-1] < history.losses[0]

    def test_empty_examples_raise(self, tiny_model):
        with pytest.raises(ConfigError):
            self._trainer(tiny_model).train([])

    def test_checkpoints_written_with_lr(self, tiny_model, tmp_path):
        trainer = self._trainer(tiny_model, tmp_path=tmp_path, epochs=2, checkpoint_every=2)
        trainer.train(random_examples(n=8))
        records = trainer.checkpoints.checkpoints()
        assert records[0].step == 0  # initial state checkpoint
        assert len(records) >= 2
        assert all(r.lr > 0 for r in records)

    def test_max_steps_stops(self, tiny_model):
        trainer = self._trainer(tiny_model, epochs=50, max_steps=3)
        trainer.train(random_examples(n=16))
        assert trainer.global_step == 3

    def test_grad_accumulation_counts_steps(self, tiny_model):
        trainer = self._trainer(tiny_model, epochs=1, batch_size=8, grad_accum_steps=2)
        trainer.train(random_examples(n=16))
        # 16 examples / 8 effective = 2 optimizer steps.
        assert trainer.global_step == 2

    def test_history_records_lr_and_grad_norm(self, tiny_model):
        trainer = self._trainer(tiny_model, epochs=1)
        history = trainer.train(random_examples(n=8))
        assert all(s.lr > 0 for s in history.steps)
        assert all(np.isfinite(s.grad_norm) for s in history.steps)

    def test_schedule_drives_lr(self, tiny_model):
        opt = AdamW(tiny_model.parameters(), lr=1.0)
        trainer = Trainer(
            tiny_model,
            opt,
            config=TrainingConfig(epochs=1, batch_size=4),
            schedule=ConstantLR(1e-4),
        )
        history = trainer.train(random_examples(n=8))
        assert all(s.lr == pytest.approx(1e-4) for s in history.steps)

    def test_grad_accum_equivalence(self, tiny_config):
        """One step over a batch == accumulated micro-batches (same grads)."""
        examples = random_examples(n=8, seed=3)
        losses = {}
        states = {}
        for accum in (1, 2):
            model = MistralTiny(tiny_config, rng=0)
            opt = AdamW(model.parameters(), lr=1e-3)
            trainer = Trainer(
                model,
                opt,
                config=TrainingConfig(
                    epochs=1, batch_size=8, grad_accum_steps=accum, shuffle=False, clip_norm=None
                ),
            )
            history = trainer.train(examples)
            losses[accum] = history.losses
            states[accum] = model.state_dict()
        assert losses[1][0] == pytest.approx(losses[2][0], rel=1e-4)
        for key in states[1]:
            np.testing.assert_allclose(states[1][key], states[2][key], atol=1e-5)


class TestResume:
    def test_resume_restores_step_and_weights(self, tiny_config, tmp_path):
        model = MistralTiny(tiny_config, rng=0)
        opt = AdamW(model.parameters(), lr=3e-3)
        manager = CheckpointManager(tmp_path)
        trainer = Trainer(
            model, opt,
            config=TrainingConfig(epochs=2, batch_size=4, checkpoint_every=2),
            checkpoint_manager=manager,
        )
        trainer.train(random_examples(n=8))
        last = manager.latest()
        assert last is not None

        fresh_model = MistralTiny(tiny_config, rng=99)
        fresh = Trainer(
            fresh_model, AdamW(fresh_model.parameters(), lr=3e-3),
            config=TrainingConfig(epochs=1, batch_size=4),
            checkpoint_manager=manager,
        )
        step = fresh.resume()
        assert step == last.step
        assert fresh.global_step == last.step
        state = CheckpointManager.load_state(last)
        for name, param in fresh_model.named_parameters():
            np.testing.assert_allclose(param.data, state[name])

    def test_resume_without_manager_raises(self, tiny_model):
        trainer = Trainer(tiny_model, AdamW(tiny_model.parameters(), lr=1e-3))
        with pytest.raises(ConfigError):
            trainer.resume()

    def test_resume_empty_dir_returns_zero(self, tiny_model, tmp_path):
        trainer = Trainer(
            tiny_model, AdamW(tiny_model.parameters(), lr=1e-3),
            checkpoint_manager=CheckpointManager(tmp_path),
        )
        assert trainer.resume() == 0


class TestValidationLossAndBatchScore:
    def test_score_batch_matches_single(self, fitted_zigong, german_examples):
        clf = fitted_zigong.classifier()
        prompts = [e.prompt for e in german_examples[:6]]
        batched = clf.score_batch(prompts, "good", "bad")
        singles = np.array([clf.score(p, "good", "bad") for p in prompts])
        np.testing.assert_allclose(batched, singles, atol=1e-4)

    def test_score_batch_leaves_training_mode_alone(self, monkeypatch):
        """Scores equal the eval-mode readout forward's, and no module's mode flips."""
        from repro.baselines.lm import LMClassifier
        from repro.nn import Module, ModelConfig
        from repro.nn.classifier import pad_sequences
        from repro.tensor import no_grad
        from repro.tokenizer.whitespace import WordTokenizer

        prompts = ["income is high", "the applicant has debt and no job", "good or bad"]
        tokenizer = WordTokenizer.train(prompts)
        config = ModelConfig(vocab_size=tokenizer.vocab_size, dropout=0.5)
        model = MistralTiny(config, rng=0)  # training mode, live dropout
        clf = LMClassifier(model, tokenizer, prefix_cache_size=0)

        def flip(self):
            raise AssertionError("train()/eval() must not be called")

        monkeypatch.setattr(Module, "train", flip)
        monkeypatch.setattr(Module, "eval", flip)
        scores = clf.score_batch(prompts, "good", "bad")
        monkeypatch.undo()
        assert model.training and all(m.training for _, m in model.named_children())

        rows = [clf._prompt_ids(p) for p in prompts]
        lengths = np.array([len(r) for r in rows])
        model.eval()
        with no_grad():
            logits = model(pad_sequences(rows, pad_id=tokenizer.pad_id), readout=lengths - 1).data
        last = logits[:, 0]
        pos, neg = tokenizer.encode("good")[0], tokenizer.encode("bad")[0]
        pair = np.stack([last[:, pos], last[:, neg]], axis=1).astype(np.float64)
        pair -= pair.max(axis=1, keepdims=True)
        expected = np.exp(pair)[:, 0] / np.exp(pair).sum(axis=1)
        np.testing.assert_array_equal(scores, expected)

    def test_score_batch_empty_raises(self, fitted_zigong):
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            fitted_zigong.classifier().score_batch([], "good", "bad")
