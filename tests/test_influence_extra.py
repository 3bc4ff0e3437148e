"""Tests for PPL scoring and cosine-normalized influence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.influence import (
    TracInCP,
    TracSeq,
    perplexities,
    ppl_quality_scores,
    sample_losses,
)
from repro.optim import AdamW
from repro.training import CheckpointManager, Trainer, TrainingConfig


def make_example(ids):
    return (list(ids), list(ids))


@pytest.fixture
def checkpoints(tiny_model, tmp_path):
    rng = np.random.default_rng(0)
    examples = [make_example(rng.integers(5, 60, size=8)) for _ in range(12)]
    manager = CheckpointManager(tmp_path)
    trainer = Trainer(
        tiny_model,
        AdamW(tiny_model.parameters(), lr=3e-3),
        config=TrainingConfig(epochs=2, batch_size=4, checkpoint_every=2),
        checkpoint_manager=manager,
    )
    trainer.train(examples)
    return manager.checkpoints()


class TestPPLScoring:
    def test_losses_finite_and_positive(self, tiny_model):
        examples = [make_example([1, 2, 3, 4]), make_example([5, 6, 7, 8])]
        losses = sample_losses(tiny_model, examples)
        assert losses.shape == (2,)
        assert (losses > 0).all()

    def test_perplexity_is_exp_loss(self, tiny_model):
        examples = [make_example([1, 2, 3, 4])]
        np.testing.assert_allclose(
            perplexities(tiny_model, examples),
            np.exp(sample_losses(tiny_model, examples)),
        )

    def test_quality_is_negated_loss(self, tiny_model):
        examples = [make_example([1, 2, 3]), make_example([4, 5, 6])]
        np.testing.assert_allclose(
            ppl_quality_scores(tiny_model, examples),
            -sample_losses(tiny_model, examples),
        )

    def test_memorized_sample_scores_higher(self, tiny_model):
        """After overfitting one sequence, its PPL quality must exceed a
        random one's."""
        target = make_example([7, 8, 9, 10, 11, 12])
        other = make_example([40, 31, 22, 53, 14, 45])
        opt = AdamW(tiny_model.parameters(), lr=5e-3)
        trainer = Trainer(tiny_model, opt, config=TrainingConfig(epochs=30, batch_size=1))
        trainer.train([target])
        scores = ppl_quality_scores(tiny_model, [target, other])
        assert scores[0] > scores[1]

    def test_empty_raises(self, tiny_model):
        with pytest.raises(InfluenceError):
            sample_losses(tiny_model, [])

    def test_no_gradients_left_behind(self, tiny_model):
        sample_losses(tiny_model, [make_example([1, 2, 3])])
        assert all(p.grad is None for p in tiny_model.parameters())


class TestNormalizedInfluence:
    def test_normalized_scores_bounded_per_checkpoint(self, tiny_model, checkpoints):
        """With unit gradients, |influence| <= sum of checkpoint weights."""
        rng = np.random.default_rng(1)
        train = [make_example(rng.integers(5, 60, size=8)) for _ in range(4)]
        test = [make_example(rng.integers(5, 60, size=8))]
        tracer = TracInCP(tiny_model, checkpoints, normalize=True)
        matrix = tracer.influence(train, test)
        bound = sum(r.lr for r in tracer.checkpoints) + 1e-9
        assert (np.abs(matrix) <= bound).all()

    def test_normalized_self_influence_constant(self, tiny_model, checkpoints):
        """Unit-normalized self dot products are exactly 1 per checkpoint."""
        train = [make_example([1, 2, 3, 4]), make_example([9, 8, 7, 6])]
        tracer = TracInCP(tiny_model, checkpoints, normalize=True)
        self_inf = tracer.self_influence(train)
        expected = sum(r.lr for r in tracer.checkpoints)
        np.testing.assert_allclose(self_inf, expected, rtol=1e-5)

    def test_normalization_changes_ranking_possible(self, tiny_model, checkpoints):
        rng = np.random.default_rng(2)
        train = [make_example(rng.integers(5, 60, size=8)) for _ in range(6)]
        test = [make_example(rng.integers(5, 60, size=8))]
        raw = TracInCP(tiny_model, checkpoints).influence(train, test).sum(axis=1)
        cos = TracInCP(tiny_model, checkpoints, normalize=True).influence(train, test).sum(axis=1)
        # Signs must broadly agree even if magnitudes differ.
        assert ((raw > 0) == (cos > 0)).mean() >= 0.5

    def test_tracseq_accepts_normalize(self, tiny_model, checkpoints):
        tracer = TracSeq(tiny_model, checkpoints, gamma=0.8, normalize=True)
        scores = tracer.influence(
            [make_example([1, 2, 3])], [make_example([4, 5, 6])]
        ).sum(axis=1)
        assert scores.shape == (1,)


class TestPrunerPPLStrategy:
    def test_ppl_strategy_runs(self, fitted_zigong, german_examples, tmp_path):
        from repro.core import DataPruner, PrunerConfig

        fitted_zigong.finetune(german_examples[:32], checkpoint_dir=tmp_path)
        checkpoints = CheckpointManager(tmp_path).checkpoints()
        scores = DataPruner(PrunerConfig(strategy="ppl")).score(
            fitted_zigong, german_examples[:16], [], checkpoints
        )
        assert scores.shape == (16,)
        assert np.isfinite(scores).all()

    def test_ppl_requires_checkpoints(self, fitted_zigong, german_examples):
        from repro.core import DataPruner, PrunerConfig

        with pytest.raises(InfluenceError):
            DataPruner(PrunerConfig(strategy="ppl")).score(
                fitted_zigong, german_examples[:4], [], ()
            )

    def test_normalize_gradients_config(self, fitted_zigong, german_examples, tmp_path):
        from repro.core import DataPruner, PrunerConfig

        fitted_zigong.finetune(german_examples[:32], checkpoint_dir=tmp_path)
        checkpoints = CheckpointManager(tmp_path).checkpoints()
        scores = DataPruner(
            PrunerConfig(strategy="tracseq", normalize_gradients=True, projection_dim=64)
        ).score(fitted_zigong, german_examples[:8], german_examples[32:36], checkpoints)
        assert scores.shape == (8,)
