"""Influence estimation tests: gradients, TracInCP, TracSeq, selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.influence import (
    GradientProjector,
    GradientStore,
    TracInCP,
    TracSeq,
    bottom_k_indices,
    flatten_grads,
    normalize_scores,
    per_sample_gradient,
    select_top_k,
    top_k_indices,
    trainable_parameters,
)
from repro.influence.gradients import TracePlan, gradient_matrix
from repro.nn import MistralTiny
from repro.optim import AdamW
from repro.training import CheckpointManager, Trainer, TrainingConfig


def make_example(ids):
    return (list(ids), list(ids))


@pytest.fixture
def checkpoints(tiny_model, tmp_path):
    """Train briefly, saving checkpoints for influence replay."""
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


class TestGradients:
    def test_per_sample_gradient_shape(self, tiny_model):
        dim = sum(p.size for p in trainable_parameters(tiny_model))
        grad = per_sample_gradient(tiny_model, make_example([1, 2, 3, 4]))
        assert grad.shape == (dim,)
        assert np.isfinite(grad).all()

    def test_per_sample_grads_sum_to_batch_grad(self, tiny_model):
        """Mean of per-sample grads equals the batch gradient (same lengths)."""
        examples = [make_example([3, 7, 9, 11]), make_example([5, 6, 8, 10])]
        per = np.stack([per_sample_gradient(tiny_model, e) for e in examples]).mean(axis=0)

        tiny_model.zero_grad()
        ids = np.array([e[0] for e in examples])
        tiny_model.loss(ids, ids).backward()
        batch = flatten_grads(trainable_parameters(tiny_model))
        tiny_model.zero_grad()
        np.testing.assert_allclose(per, batch, atol=1e-5)

    def test_gradient_matrix_stacks(self, tiny_model):
        examples = [make_example([1, 2, 3]), make_example([4, 5, 6])]
        matrix = gradient_matrix(TracePlan(tiny_model), examples)
        assert matrix.shape[0] == 2

    def test_gradient_matrix_empty_raises(self, tiny_model):
        with pytest.raises(InfluenceError):
            gradient_matrix(TracePlan(tiny_model), [])

    def test_projector_preserves_dot_products_approximately(self):
        rng = np.random.default_rng(0)
        dim, k = 2000, 512
        projector = GradientProjector(dim, k=k, seed=0)
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        exact = a @ b
        approx = projector.project(a) @ projector.project(b)
        assert abs(approx - exact) < 0.35 * dim  # JL tolerance at this k

    def test_projector_deterministic(self):
        a = GradientProjector(100, k=10, seed=3)
        b = GradientProjector(100, k=10, seed=3)
        v = np.ones(100)
        np.testing.assert_allclose(a.project(v), b.project(v))

    def test_projector_dim_mismatch(self):
        projector = GradientProjector(10, k=4)
        with pytest.raises(InfluenceError):
            projector.project(np.ones(11))

    def test_projector_k_capped_at_dim_warns(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            projector = GradientProjector(5, k=100)
        assert projector.k == 5
        assert projector.requested_k == 100

    def test_no_trainable_params_raises(self, tiny_model):
        for p in tiny_model.parameters():
            p.requires_grad = False
        with pytest.raises(InfluenceError):
            trainable_parameters(tiny_model)


class TestTracInCP:
    def test_self_similarity_dominates(self, tiny_model, checkpoints):
        """A test example identical to a train example gets max influence."""
        rng = np.random.default_rng(1)
        train = [make_example(rng.integers(5, 60, size=8)) for _ in range(6)]
        test = [train[2]]
        tracer = TracInCP(tiny_model, checkpoints)
        scores = tracer.influence(train, test).sum(axis=1)
        assert scores.argmax() == 2

    def test_restores_model_state(self, tiny_model, checkpoints):
        before = tiny_model.state_dict()
        tracer = TracInCP(tiny_model, checkpoints)
        tracer.influence([make_example([1, 2, 3])], [make_example([4, 5, 6])])
        after = tiny_model.state_dict()
        for key in before:
            np.testing.assert_allclose(before[key], after[key])

    def test_influence_matrix_shape(self, tiny_model, checkpoints):
        train = [make_example([1, 2, 3]), make_example([4, 5, 6])]
        test = [make_example([7, 8, 9])]
        matrix = TracInCP(tiny_model, checkpoints).influence(train, test)
        assert matrix.shape == (2, 1)

    def test_self_influence_positive(self, tiny_model, checkpoints):
        train = [make_example([1, 2, 3]), make_example([4, 5, 6])]
        self_inf = TracInCP(tiny_model, checkpoints).self_influence(train)
        assert (self_inf > 0).all()

    def test_empty_sets_raise(self, tiny_model, checkpoints):
        tracer = TracInCP(tiny_model, checkpoints)
        with pytest.raises(InfluenceError):
            tracer.influence([], [make_example([1, 2])])
        with pytest.raises(InfluenceError):
            tracer.influence([make_example([1, 2])], [])

    def test_no_checkpoints_raises(self, tiny_model):
        with pytest.raises(InfluenceError):
            TracInCP(tiny_model, [])

    def test_projected_ranking_close_to_exact(self, tiny_model, checkpoints):
        rng = np.random.default_rng(2)
        train = [make_example(rng.integers(5, 60, size=8)) for _ in range(8)]
        test = [make_example(rng.integers(5, 60, size=8)) for _ in range(2)]
        exact = TracInCP(tiny_model, checkpoints).influence(train, test).sum(axis=1)
        dim = sum(p.size for p in trainable_parameters(tiny_model))
        projector = GradientProjector(dim, k=4096, seed=0)
        approx = TracInCP(tiny_model, checkpoints, projector=projector).influence(train, test)
        approx = approx.sum(axis=1)
        corr = np.corrcoef(exact, approx)[0, 1]
        assert corr > 0.7


class TestTracSeq:
    def test_gamma_one_equals_tracin(self, tiny_model, checkpoints):
        rng = np.random.default_rng(3)
        train = [make_example(rng.integers(5, 60, size=8)) for _ in range(5)]
        test = [make_example(rng.integers(5, 60, size=8))]
        plain = TracInCP(tiny_model, checkpoints).influence(train, test).sum(axis=1)
        seq = TracSeq(tiny_model, checkpoints, gamma=1.0).influence(train, test).sum(axis=1)
        np.testing.assert_allclose(plain, seq, rtol=1e-6)

    def test_gamma_downweights_early_checkpoints(self, tiny_model, checkpoints):
        tracer = TracSeq(tiny_model, checkpoints, gamma=0.5)
        weights = [
            tracer._checkpoint_weight(i, record) / record.lr
            for i, record in enumerate(tracer.checkpoints)
        ]
        assert all(a < b for a, b in zip(weights, weights[1:]))
        assert weights[-1] == pytest.approx(1.0)

    def test_invalid_gamma(self, tiny_model, checkpoints):
        for gamma in (0.0, -0.5, 1.5):
            with pytest.raises(InfluenceError):
                TracSeq(tiny_model, checkpoints, gamma=gamma)

    def test_sample_time_decay_downweights_old(self, tiny_model, checkpoints):
        rng = np.random.default_rng(4)
        train = [make_example(rng.integers(5, 60, size=8)) for _ in range(4)]
        test = [make_example(rng.integers(5, 60, size=8))]
        tracer = TracSeq(tiny_model, checkpoints, gamma=0.5)
        base = tracer.influence(train, test).sum(axis=1)
        decayed = base * tracer.sample_decay([0, 1, 2, 3], test_time=3)
        expected = base * 0.5 ** np.array([3, 2, 1, 0])
        np.testing.assert_allclose(decayed, expected, rtol=1e-6)

    def test_future_sample_times_rejected(self, tiny_model, checkpoints):
        tracer = TracSeq(tiny_model, checkpoints)
        with pytest.raises(InfluenceError):
            tracer.sample_decay([5], test_time=3)

    def test_custom_checkpoint_times(self, tiny_model, checkpoints):
        times = [10.0 * i for i in range(len(checkpoints))]
        tracer = TracSeq(tiny_model, checkpoints, gamma=0.9, checkpoint_times=times)
        assert tracer.horizon == times[-1]

    def test_checkpoint_times_follow_their_checkpoints(self, tiny_model, checkpoints):
        """Each time stays paired with its checkpoint whatever the input order."""
        rng = np.random.default_rng(5)
        train = [make_example(rng.integers(5, 60, size=8)) for _ in range(3)]
        test = [make_example(rng.integers(5, 60, size=8))]
        times = [float(i) for i in range(len(checkpoints))]
        store = GradientStore()
        forward = TracSeq(
            tiny_model, checkpoints, gamma=0.5, checkpoint_times=times, store=store
        )
        reverse = TracSeq(
            tiny_model, checkpoints[::-1], gamma=0.5, checkpoint_times=times[::-1],
            store=store,
        )
        np.testing.assert_allclose(
            reverse.influence(train, test), forward.influence(train, test), rtol=1e-12
        )

    def test_checkpoint_times_length_mismatch(self, tiny_model, checkpoints):
        with pytest.raises(InfluenceError):
            TracSeq(tiny_model, checkpoints, checkpoint_times=[1.0])


class TestSelection:
    def test_top_k_order(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [1, 3])

    def test_bottom_k_order(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        np.testing.assert_array_equal(bottom_k_indices(scores, 2), [0, 2])

    def test_select_top_k_items(self):
        items = ["a", "b", "c"]
        assert select_top_k(items, np.array([1.0, 3.0, 2.0]), 2) == ["b", "c"]

    def test_k_out_of_range(self):
        with pytest.raises(InfluenceError):
            top_k_indices(np.array([1.0]), 2)
        with pytest.raises(InfluenceError):
            top_k_indices(np.array([1.0]), 0)

    def test_item_score_mismatch(self):
        with pytest.raises(InfluenceError):
            select_top_k(["a"], np.array([1.0, 2.0]), 1)

    def test_normalize_scores_range(self):
        out = normalize_scores(np.array([2.0, 4.0, 6.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_normalize_constant_array(self):
        np.testing.assert_allclose(normalize_scores(np.full(3, 7.0)), [0.5, 0.5, 0.5])

    def test_stable_tie_break(self):
        scores = np.array([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [0, 1])


class TestStratifiedTopK:
    def test_preserves_class_balance(self):
        from repro.influence import stratified_top_k

        rng = np.random.default_rng(0)
        labels = np.array([0] * 80 + [1] * 20)
        scores = rng.random(100)
        idx = stratified_top_k(scores, labels, 50)
        assert len(idx) == 50
        assert labels[idx].sum() == 10  # 20% positives preserved

    def test_picks_best_within_class(self):
        from repro.influence import stratified_top_k

        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.1, 0.2, 0.8])
        idx = stratified_top_k(scores, labels, 2)
        assert set(idx) == {0, 3}

    def test_result_sorted_by_score(self):
        from repro.influence import stratified_top_k

        labels = np.array([0, 1, 0, 1, 0, 1])
        scores = np.array([0.3, 0.9, 0.5, 0.1, 0.7, 0.6])
        idx = stratified_top_k(scores, labels, 4)
        picked = scores[idx]
        assert all(a >= b for a, b in zip(picked, picked[1:]))

    def test_k_equals_n_returns_everything(self):
        from repro.influence import stratified_top_k

        labels = np.array([0, 1, 1])
        idx = stratified_top_k(np.array([0.1, 0.2, 0.3]), labels, 3)
        assert set(idx) == {0, 1, 2}

    def test_tiny_minority_class_never_starves_k(self):
        from repro.influence import stratified_top_k

        labels = np.array([0] * 99 + [1])
        idx = stratified_top_k(np.arange(100, dtype=float), labels, 10)
        assert len(idx) == 10

    def test_validation(self):
        from repro.influence import stratified_top_k

        with pytest.raises(InfluenceError):
            stratified_top_k(np.ones(3), np.zeros(2), 1)
        with pytest.raises(InfluenceError):
            stratified_top_k(np.ones(3), np.zeros(3), 0)
        with pytest.raises(InfluenceError):
            stratified_top_k(np.ones(3), np.zeros(3), 4)
