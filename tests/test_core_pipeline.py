"""End-to-end pipeline tests (small but real)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.config import test_config as make_test_config
from repro.core import PipelineConfig, PrunerConfig, ZiGongPipeline


@pytest.fixture(scope="module")
def pipeline_result(german_examples, tmp_path_factory):
    base = make_test_config()
    config = PipelineConfig(
        zigong=dataclasses.replace(
            base, training=dataclasses.replace(base.training, epochs=3)
        ),
        pruner=PrunerConfig(projection_dim=64),
        warmup_epochs=2,
    )
    pipeline = ZiGongPipeline(config)
    return pipeline.run(
        german_examples[:48],
        german_examples[48:56],
        checkpoint_dir=tmp_path_factory.mktemp("pipe-ckpt"),
    )


class TestPipeline:
    def test_result_fields(self, pipeline_result):
        assert pipeline_result.scores.shape == (48,)
        assert len(pipeline_result.mixed_examples) == 48
        assert pipeline_result.warmup_history.losses
        assert pipeline_result.finetune_history.losses

    def test_mix_contains_top_scored(self, pipeline_result, german_examples):
        scores = pipeline_result.scores
        top_idx = set(np.argsort(-scores)[: int(0.3 * 48)])
        mixed = pipeline_result.mixed_examples
        top_examples = [german_examples[:48][i] for i in top_idx]
        assert all(e in mixed for e in top_examples)

    def test_final_model_fine_tuned(self, pipeline_result):
        history = pipeline_result.finetune_history
        assert history.losses[-1] < history.losses[0]

    def test_final_model_answers(self, pipeline_result, german_examples):
        answer = pipeline_result.zigong.generate_answer(german_examples[0].prompt)
        assert isinstance(answer, str)

    def test_empty_train_raises(self):
        with pytest.raises(ConfigError):
            ZiGongPipeline().run([], [])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(pruned_fraction=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(warmup_epochs=0)


class TestPrunerReuse:
    def test_runs_share_one_sketch(self, german_examples, tmp_path, projector_inits):
        """The pipeline's pruner, built once, keeps its sketch across runs."""
        base = make_test_config()
        config = PipelineConfig(
            zigong=dataclasses.replace(
                base, training=dataclasses.replace(base.training, epochs=1)
            ),
            pruner=PrunerConfig(projection_dim=64),
            warmup_epochs=1,
        )
        pipeline = ZiGongPipeline(config)
        train, val = german_examples[:16], german_examples[48:52]
        first = pipeline.run(train, val, checkpoint_dir=tmp_path / "first")
        second = pipeline.run(train, val, checkpoint_dir=tmp_path / "second")
        assert len(projector_inits) == 1
        # The first run drew the sketch fresh; the second reuses it.
        assert np.array_equal(first.scores, second.scores)


class TestTemporaryCheckpoints:
    def test_run_without_checkpoint_dir_leaves_no_temp_dir(
        self, german_examples, tmp_path, monkeypatch
    ):
        """The warmup checkpoints' temporary directory is gone once the run returns."""
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        base = make_test_config()
        config = PipelineConfig(
            zigong=dataclasses.replace(
                base, training=dataclasses.replace(base.training, epochs=1)
            ),
            pruner=PrunerConfig(projection_dim=64),
            warmup_epochs=1,
        )
        result = ZiGongPipeline(config).run(german_examples[:16], german_examples[48:52])
        assert len(result.scores) == 16
        assert list(tmp_path.glob("zigong-ckpt-*")) == []
