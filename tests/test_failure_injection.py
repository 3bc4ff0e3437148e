"""Failure injection: the library must fail loudly, not corrupt silently."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CheckpointError, GradientError
from repro.nn import MistralTiny
from repro.optim import AdamW
from repro.training import CheckpointManager, Trainer, TrainingConfig
from repro.training.checkpoint import load_artifact


def examples(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return [(list(rng.integers(5, 60, size=8)),) * 2 for _ in range(n)]


class TestAnomalyDetection:
    def test_nan_weights_raise_immediately(self, tiny_model):
        tiny_model.tok_embed.weight.data[0, 0] = np.nan
        trainer = Trainer(
            tiny_model,
            AdamW(tiny_model.parameters(), lr=1e-3),
            config=TrainingConfig(epochs=1, batch_size=4),
        )
        with pytest.raises(GradientError, match="non-finite loss"):
            trainer.train(examples())

    def test_inf_weights_raise(self, tiny_model):
        tiny_model.blocks[0].ffn.w1.weight.data[:] = np.inf
        trainer = Trainer(
            tiny_model,
            AdamW(tiny_model.parameters(), lr=1e-3),
            config=TrainingConfig(epochs=1, batch_size=4),
        )
        # Inf propagates through matmuls with a RuntimeWarning before the
        # guard fires; both are expected here.
        with pytest.warns(RuntimeWarning):
            with pytest.raises(GradientError):
                trainer.train(examples())

    def test_healthy_training_unaffected(self, tiny_model):
        trainer = Trainer(
            tiny_model,
            AdamW(tiny_model.parameters(), lr=1e-3),
            config=TrainingConfig(epochs=1, batch_size=4),
        )
        history = trainer.train(examples())
        assert all(np.isfinite(s.loss) for s in history.steps)


class TestCorruptedArtifacts:
    def test_truncated_checkpoint_raises(self, tiny_model, tmp_path):
        manager = CheckpointManager(tmp_path)
        record = manager.save(tiny_model, step=1, lr=0.1)
        record.path.write_bytes(record.path.read_bytes()[:40])  # corrupt
        with pytest.raises(CheckpointError, match=str(record.path)):
            load_artifact(record.path)

    def test_missing_checkpoint_file_raises(self, tiny_model, tmp_path):
        manager = CheckpointManager(tmp_path)
        record = manager.save(tiny_model, step=1, lr=0.1)
        record.path.unlink()
        with pytest.raises(CheckpointError):
            load_artifact(record.path)

    def test_wrong_architecture_checkpoint_rejected(self, tiny_model, tmp_path):
        from dataclasses import replace

        manager = CheckpointManager(tmp_path)
        record = manager.save(tiny_model, step=1, lr=0.1)
        other = MistralTiny(replace(tiny_model.config, d_model=64, d_ff=128), rng=0)
        with pytest.raises(CheckpointError):
            CheckpointManager.restore(other, record)
