"""DataInf scores against a pre-adjusted training block.

DataInf's per-layer ``H^{-1}`` is symmetric, so ``g_j . H^{-1} v`` equals
``(H^{-1} g_j) . v``: the estimator adjusts the training rows once per
training set (``A = H^{-1} g_train``, kept resident) and a query is one
product against ``A``.  These tests pin the scores to an explicit
``np.linalg.inv`` construction and to the per-query formulation (adjust
the test rows against the training block on every call), count the
adjustments a warm service makes, and check that the engine's gradient
passes use parameters resolved once, across checkpoint restores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.influence import (
    DataInf,
    GradientStore,
    TracInCP,
    per_token_examples,
    trainable_parameter_slices,
)
from repro.influence.gradients import (
    GradientProjector,
    TracePlan,
    gradient_matrix,
    per_sample_gradient,
    trainable_parameters,
)
from repro.lora.adapter import LoRAConfig
from repro.lora.inject import apply_lora
from repro.nn.module import Module
from repro.obs import Observability
from repro.optim import AdamW
from repro.serving import ExplainService
from repro.training import CheckpointManager, Trainer, TrainingConfig

LAM = 0.05


def make_example(ids):
    return (list(ids), list(ids))


def behavior_text(example) -> str:
    return example.prompt.split(" question:")[0]


@pytest.fixture
def lora_model(tiny_model):
    apply_lora(tiny_model, LoRAConfig(rank=2, train_embeddings=False), rng=0)
    return tiny_model


@pytest.fixture
def checkpoints(lora_model, tmp_path):
    rng = np.random.default_rng(3)
    examples = [make_example(rng.integers(5, 60, size=8)) for _ in range(8)]
    manager = CheckpointManager(tmp_path / "ckpt")
    Trainer(
        lora_model,
        AdamW(lora_model.parameters(), lr=3e-3),
        config=TrainingConfig(epochs=2, batch_size=4, checkpoint_every=2),
        checkpoint_manager=manager,
    ).train(examples)
    return manager.checkpoints()


@pytest.fixture
def sets():
    rng = np.random.default_rng(11)
    train = [make_example(rng.integers(5, 60, size=8)) for _ in range(6)]
    test = [make_example(rng.integers(5, 60, size=8)) for _ in range(3)]
    return train, test


def final_rows(model, checkpoints, examples):
    """Raw gradient rows of ``examples`` at the last checkpoint."""
    saved = model.state_dict()
    try:
        CheckpointManager.restore(model, sorted(checkpoints, key=lambda r: r.step)[-1])
        return gradient_matrix(TracePlan(model), examples)
    finally:
        model.load_state_dict(saved)


def explicit_inverse(g_train, g_test, layers):
    """``g_train H^{-1} g_test^T`` with each layer's ``H^{-1}`` materialized."""
    out = np.zeros((len(g_train), len(g_test)))
    for _, layer in layers:
        g_l, v_l = g_train[:, layer], g_test[:, layer]
        d_l = g_l.shape[1]
        h_inv = sum(np.linalg.inv(LAM * np.eye(d_l) + np.outer(g, g)) for g in g_l)
        out += g_l @ (h_inv / len(g_l)) @ v_l.T
    return out


def per_query(g_train, g_test, layers, lams):
    """The per-query formulation: adjust the test rows, then one product."""
    n = len(g_train)
    adjusted = np.empty_like(g_test)
    for (_, layer), lam in zip(layers, lams):
        g_l, v_l = g_train[:, layer], g_test[:, layer]
        coef = (g_l @ v_l.T) / (lam + (g_l * g_l).sum(axis=1))[:, None]
        adjusted[:, layer] = (v_l - (coef.T @ g_l) / n) / lam
    return g_train @ adjusted.T


def assert_close(actual, expected, rtol):
    """Relative to the matrix's scale: single scores may sit near zero."""
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * np.abs(expected).max())


class TestScores:
    def test_match_explicit_inverse(self, lora_model, checkpoints, sets):
        train, test = sets
        estimator = DataInf(lora_model, checkpoints, lam=LAM)
        variants, positions = per_token_examples(test[0])
        g_train = final_rows(lora_model, checkpoints, train)
        layers = trainable_parameter_slices(lora_model)
        np.testing.assert_allclose(
            estimator.influence(train, test),
            explicit_inverse(g_train, final_rows(lora_model, checkpoints, test), layers),
            rtol=1e-8,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            estimator.token_influence(train, test[0]).scores,
            explicit_inverse(g_train, final_rows(lora_model, checkpoints, variants), layers)
            / len(positions),
            rtol=1e-8,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            estimator.self_influence(train),
            np.diag(explicit_inverse(g_train, g_train, layers)),
            rtol=1e-8,
            atol=1e-10,
        )

    def test_block_narrower_than_train_set_matches_explicit_inverse(
        self, lora_model, checkpoints, sets
    ):
        # A 4-wide sketch under 6 training rows: H^{-1} goes through the
        # (d_l, d_l) association, not the (n, n) one.
        train, test = sets
        dim = sum(p.size for p in trainable_parameters(lora_model))
        estimator = DataInf(
            lora_model, checkpoints, lam=LAM, projector=GradientProjector(dim, k=4, seed=2)
        )
        g_train = estimator.engine.stacked_rows(train)
        g_test = estimator.engine.stacked_rows(test)
        layers = estimator._layer_slices(4)
        assert len(train) > 4 and layers == [("projected", slice(0, 4))]
        np.testing.assert_allclose(
            estimator.influence(train, test),
            explicit_inverse(g_train, g_test, layers),
            rtol=1e-8,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            estimator.self_influence(train),
            np.diag(explicit_inverse(g_train, g_train, layers)),
            rtol=1e-8,
            atol=1e-10,
        )

    @pytest.mark.parametrize("k", [None, 16, 4], ids=["exact", "projected", "narrow"])
    def test_match_per_query_adjustment(self, lora_model, checkpoints, sets, k):
        train, test = sets
        projector = None
        if k is not None:
            dim = sum(p.size for p in trainable_parameters(lora_model))
            projector = GradientProjector(dim, k=k, seed=2)
        estimator = DataInf(lora_model, checkpoints, projector=projector)  # heuristic lam
        variants, positions = per_token_examples(test[0])
        g_train = estimator.engine.stacked_rows(train)
        layers = estimator._layer_slices(g_train.shape[1])
        lams = estimator.layer_lambdas(g_train)

        def reference(rows):
            return per_query(g_train, rows, layers, lams)

        assert_close(
            estimator.influence(train, test), reference(estimator.engine.stacked_rows(test)), 1e-12
        )
        assert_close(
            estimator.token_influence(train, test[0]).scores,
            reference(estimator.engine.stacked_rows(variants)) / len(positions),
            1e-12,
        )
        assert_close(estimator.self_influence(train), np.diag(reference(g_train)), 1e-12)


@pytest.fixture
def adjustments(monkeypatch):
    """Count DataInf._adjust calls."""
    calls = []
    adjust = DataInf._adjust

    def counting(self, g_train):
        calls.append(len(g_train))
        return adjust(self, g_train)

    monkeypatch.setattr(DataInf, "_adjust", counting)
    return calls


class TestWarmService:
    def test_adjusts_once_per_training_set(self, explained_zigong, adjustments):
        zigong, examples, checkpoints = explained_zigong
        service = ExplainService.for_zigong(
            zigong, examples, checkpoints, obs=Observability.create()
        )
        service.explain("first", behavior_text(examples[0]))
        assert adjustments == [len(examples)]
        for index in (1, 2, 3):
            service.explain(f"warm-{index}", behavior_text(examples[index]))
        assert adjustments == [len(examples)]
        test = [service._encode(behavior_text(examples[4]), "yes")]
        service.estimator.influence(service.train_examples[:5], test)
        assert adjustments == [len(examples), 5]
        service.explain("back", behavior_text(examples[5]))
        assert adjustments == [len(examples), 5, len(examples)]

    def test_warm_query_does_not_walk_the_module_tree(self, explained_zigong, monkeypatch):
        zigong, examples, checkpoints = explained_zigong
        obs = Observability.create()
        service = ExplainService.for_zigong(zigong, examples, checkpoints, obs=obs)
        service.explain("warm-up", behavior_text(examples[0]))
        walks = []
        named_children, walk = Module.named_children, Module._walk

        def counting(self):
            walks.append(type(self).__name__)
            return named_children(self)

        def counting_walk(self, prefix, params, buffers):
            walks.append(type(self).__name__)
            return walk(self, prefix, params, buffers)

        # Two ways down the tree: named_children, and the one walk behind
        # named_parameters / named_buffers / state_dict / load_state_dict.
        monkeypatch.setattr(Module, "named_children", counting)
        monkeypatch.setattr(Module, "_walk", counting_walk)
        passes = obs.metrics.counter("influence.gradient_passes")
        before = passes.value
        service.explain("warm", behavior_text(examples[7]))
        assert passes.value > before  # the query made gradient passes
        assert walks == []


class TestTracePlan:
    def test_rows_follow_checkpoint_restores(self, lora_model, checkpoints, sets):
        """The plan resolved at construction holds across restores."""
        train, _ = sets
        assert len(checkpoints) >= 2
        tracer = TracInCP(lora_model, checkpoints, store=GradientStore(max_entries=0))
        engine = tracer.engine
        params = engine._plan.params
        records = [checkpoints[-1], checkpoints[0], checkpoints[-1]]
        replayed = engine._replay(train, records, lambda _, rows: rows, "test.rows")
        current = trainable_parameters(engine._replay_model)
        assert len(current) == len(params) and all(p is q for p, q in zip(params, current))
        reference = lora_model.state_dict()
        try:
            for record, rows in zip(records, replayed):
                CheckpointManager.restore(lora_model, record)
                for example, row in zip(train, rows):
                    assert np.array_equal(row, per_sample_gradient(lora_model, example))
        finally:
            lora_model.load_state_dict(reference)
