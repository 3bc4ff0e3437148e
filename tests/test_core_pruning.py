"""Data pruning orchestration tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.core import DataPruner, PrunerConfig, ZiGong
from repro.training import CheckpointManager


@pytest.fixture(scope="module")
def warm(german_examples, tmp_path_factory):
    """A warmed-up ZiGong with checkpoints, shared across pruning tests."""
    ckpt_dir = tmp_path_factory.mktemp("ckpts")
    zigong = ZiGong.from_examples(german_examples)
    zigong.finetune(german_examples[:64], checkpoint_dir=ckpt_dir)
    checkpoints = CheckpointManager(ckpt_dir).checkpoints()
    return zigong, checkpoints


class TestPrunerConfig:
    def test_defaults(self):
        config = PrunerConfig()
        assert config.strategy == "tracseq"
        assert config.gamma == 0.9

    def test_unknown_strategy(self):
        with pytest.raises(InfluenceError):
            PrunerConfig(strategy="magic")

    def test_invalid_gamma(self):
        with pytest.raises(InfluenceError):
            PrunerConfig(gamma=0.0)


class TestScoring:
    @pytest.mark.parametrize("strategy", ["tracseq", "tracin", "datainf"])
    def test_influence_strategy_scores(self, warm, german_examples, strategy):
        zigong, checkpoints = warm
        train, val = german_examples[:16], german_examples[64:72]
        scores = DataPruner(PrunerConfig(strategy=strategy, projection_dim=64)).score(
            zigong, train, val, checkpoints
        )
        assert scores.shape == (16,)
        assert np.isfinite(scores).all()

    def test_agent_strategy_no_checkpoints_needed(self, warm, german_examples):
        zigong, _ = warm
        scores = DataPruner(PrunerConfig(strategy="agent")).score(
            zigong, german_examples[:32], [], ()
        )
        assert scores.shape == (32,)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_combined_strategy(self, warm, german_examples):
        zigong, checkpoints = warm
        scores = DataPruner(PrunerConfig(strategy="combined", projection_dim=64)).score(
            zigong, german_examples[:8], german_examples[64:68], checkpoints
        )
        assert scores.shape == (8,)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_random_strategy_seeded(self, warm, german_examples):
        zigong, _ = warm
        a = DataPruner(PrunerConfig(strategy="random", seed=5)).score(zigong, german_examples[:10], [], ())
        b = DataPruner(PrunerConfig(strategy="random", seed=5)).score(zigong, german_examples[:10], [], ())
        np.testing.assert_allclose(a, b)

    def test_influence_requires_checkpoints(self, warm, german_examples):
        zigong, _ = warm
        with pytest.raises(InfluenceError):
            DataPruner().score(zigong, german_examples[:4], german_examples[4:8], ())

    def test_influence_requires_val(self, warm, german_examples):
        zigong, checkpoints = warm
        with pytest.raises(InfluenceError):
            DataPruner().score(zigong, german_examples[:4], [], checkpoints)

    def test_empty_train_raises(self, warm, german_examples):
        zigong, checkpoints = warm
        with pytest.raises(InfluenceError):
            DataPruner().score(zigong, [], german_examples[:4], checkpoints)


class TestSelection:
    def test_select_returns_top_k(self, warm, german_examples):
        pruner = DataPruner()
        scores = np.arange(10, dtype=np.float64)
        selected = pruner.select(german_examples[:10], scores, k=3)
        assert selected == [german_examples[9], german_examples[8], german_examples[7]]

    def test_select_indices(self):
        pruner = DataPruner()
        np.testing.assert_array_equal(pruner.select_indices(np.array([0.2, 0.9, 0.5]), 2), [1, 2])
