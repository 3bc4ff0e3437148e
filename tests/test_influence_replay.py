"""The resident replay model and DataInf's once-per-train-set curvature.

Every influence engine computes gradient rows on one private copy of
the model that keeps the checkpoint it last loaded, so an influence
call never writes the caller's (possibly serving) model, and a
checkpoint is read from disk only when a miss needs a different one.
DataInf keeps its per-layer regularizers and ``lam + |g_i|^2`` terms
for the last train set it saw.  These tests pin that the caller's
weights and ``weight_version`` are untouched, that
``influence.checkpoint_loads`` counts exactly the loads needed, and
that rows and scores stay bit-identical to a from-scratch computation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.influence import (
    DataInf,
    GradientStore,
    TracInCP,
    TracSeq,
    example_content_hash,
    per_sample_gradient,
)
from repro.lora.adapter import LoRAConfig
from repro.lora.inject import apply_lora
from repro.nn import MistralTiny
from repro.obs import Observability
from repro.optim import AdamW
from repro.serving import ExplainService
from repro.training import CheckpointManager, Trainer, TrainingConfig


def make_example(ids):
    return (list(ids), list(ids))


def train_with_checkpoints(model, directory, seed):
    rng = np.random.default_rng(seed)
    examples = [make_example(rng.integers(5, 60, size=8)) for _ in range(12)]
    manager = CheckpointManager(directory)
    Trainer(
        model,
        AdamW(model.parameters(), lr=3e-3),
        config=TrainingConfig(epochs=2, batch_size=4, checkpoint_every=2),
        checkpoint_manager=manager,
    ).train(examples)
    return manager.checkpoints()


@pytest.fixture
def checkpoints(tiny_model, tmp_path):
    return train_with_checkpoints(tiny_model, tmp_path / "ckpt", seed=0)


@pytest.fixture
def lora_model(tiny_config):
    model = MistralTiny(tiny_config, rng=0)
    apply_lora(model, LoRAConfig(rank=2, train_embeddings=False), rng=0)
    return model


@pytest.fixture
def lora_checkpoints(lora_model, tmp_path):
    return train_with_checkpoints(lora_model, tmp_path / "lora-ckpt", seed=3)


@pytest.fixture
def sets():
    rng = np.random.default_rng(11)
    train = [make_example(rng.integers(5, 60, size=8)) for _ in range(6)]
    test = [make_example(rng.integers(5, 60, size=8)) for _ in range(3)]
    return train, test


def loads(obs: Observability) -> int:
    return obs.metrics.snapshot()["counters"].get("influence.checkpoint_loads", 0)


def assert_untouched(model, call) -> None:
    """``call()`` leaves every parameter and the weight version as they were."""
    before = {name: p.data.copy() for name, p in model.named_parameters()}
    version = model.weight_version
    call()
    assert model.weight_version == version
    for name, param in model.named_parameters():
        assert np.array_equal(param.data, before[name]), name


class TestCallerModelUntouched:
    def test_tracin_influence(self, tiny_model, checkpoints, sets):
        train, test = sets
        tracer = TracInCP(tiny_model, checkpoints)
        assert_untouched(tiny_model, lambda: tracer.influence(train, test))

    def test_datainf_token_influence(self, lora_model, lora_checkpoints, sets):
        train, test = sets
        estimator = DataInf(lora_model, lora_checkpoints)
        assert_untouched(lora_model, lambda: estimator.token_influence(train, test[0]))

    def test_explain_service(self, explained_zigong):
        zigong, examples, checkpoints = explained_zigong
        service = ExplainService.for_zigong(
            zigong, examples, checkpoints, obs=Observability.create()
        )
        text = examples[0].prompt.split(" question:")[0]
        assert_untouched(zigong.model, lambda: service.explain("untouched", text))


class TestCheckpointLoads:
    def test_datainf_explain_loads_the_final_checkpoint_once(self, explained_zigong):
        zigong, examples, checkpoints = explained_zigong
        obs = Observability.create()
        service = ExplainService.for_zigong(zigong, examples, checkpoints, obs=obs)
        texts = [e.prompt.split(" question:")[0] for e in examples]
        for index in range(20):
            service.explain(f"user-{index}", texts[index % len(texts)])
        counters = obs.metrics.snapshot()["counters"]
        assert counters["influence.checkpoints_replayed"] > 1  # misses on later queries
        assert loads(obs) == 1

    def test_tracseq_loads_each_checkpoint_with_misses(self, tiny_model, checkpoints, sets):
        train, test = sets
        records = checkpoints[1:]
        assert len(records) == 3
        obs = Observability.create()
        TracSeq(tiny_model, records, gamma=0.9, obs=obs).influence(train, test)
        assert loads(obs) == 3

    def test_replay_served_from_the_store_loads_nothing(self, tiny_model, checkpoints, sets):
        train, test = sets
        store = GradientStore()
        TracInCP(tiny_model, checkpoints, store=store).influence(train, test)
        obs = Observability.create()
        TracInCP(tiny_model, checkpoints, store=store, obs=obs).influence(train, test)
        assert loads(obs) == 0


class TestResidentParity:
    @pytest.fixture
    def reference(self, tiny_config, checkpoints, sets):
        """``per_sample_gradient`` on a fresh model restored to each checkpoint."""
        train, test = sets
        rows = {}
        for record in checkpoints:
            fresh = MistralTiny(tiny_config, rng=7)
            CheckpointManager.restore(fresh, record)
            for example in train + test:
                rows[record.step, example_content_hash(example)] = per_sample_gradient(
                    fresh, example
                )
        return rows

    @staticmethod
    def replay(estimator, record, examples) -> np.ndarray:
        (rows,) = estimator.engine._replay(
            examples, [record], lambda _, rows: rows, "influence.rows"
        )
        return rows

    def assert_rows(self, reference, record, examples, rows) -> None:
        for example, row in zip(examples, rows):
            assert np.array_equal(row, reference[record.step, example_content_hash(example)])

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_rows_match_a_restored_fresh_model(
        self, tiny_model, checkpoints, sets, reference, order
    ):
        train, test = sets
        records = checkpoints if order == "forward" else checkpoints[::-1]
        tracer = TracInCP(tiny_model, checkpoints)
        for record in records:
            self.assert_rows(reference, record, train, self.replay(tracer, record, train))

    def test_rows_match_when_two_estimators_interleave(
        self, tiny_model, checkpoints, sets, reference
    ):
        train, test = sets
        store = GradientStore()
        first = TracInCP(tiny_model, checkpoints, store=store)
        second = TracSeq(tiny_model, checkpoints, gamma=0.9, store=store)
        first_ckpt, middle, last = checkpoints[0], checkpoints[2], checkpoints[-1]
        plan = [
            (first, last, train[:3]),
            (second, first_ckpt, train[:3]),
            (first, middle, train[3:]),
            (second, last, train[3:] + test),
            (first, first_ckpt, test),
            (second, middle, test + train[:3]),
            (first, last, test),
        ]
        for estimator, record, examples in plan:
            self.assert_rows(reference, record, examples, self.replay(estimator, record, examples))


class TestDataInfCurvatureCache:
    def test_train_sets_a_b_a_match_fresh_estimators(self, lora_model, lora_checkpoints, sets):
        """Cached, replaced and recomputed terms all give fresh-estimator scores."""
        train, test = sets
        set_a, set_b = train, train[:4]
        estimator = DataInf(lora_model, lora_checkpoints)

        def fresh():
            return DataInf(lora_model, lora_checkpoints)

        queries = [
            (set_a, test[:1]),
            (set_a, test[1:2]),  # same train set: terms come from the cache
            (set_b, test[:2]),  # another train set replaces them
            (set_a, test[2:]),  # back to A: recomputed
        ]
        for train_set, test_set in queries:
            expected = fresh().influence(train_set, test_set)
            assert np.array_equal(estimator.influence(train_set, test_set), expected)
        tokens = estimator.token_influence(set_a, test[0])
        assert np.array_equal(tokens.scores, fresh().token_influence(set_a, test[0]).scores)
        assert np.array_equal(estimator.self_influence(set_b), fresh().self_influence(set_b))

    def test_permuted_train_set_matches_fresh_estimators(
        self, lora_model, lora_checkpoints, sets
    ):
        """The same train set in another row order gets its own per-row terms.

        ``lam + |g_i|^2`` is a per-row array; reusing it across orders
        divides each row by another row's denominator.
        """
        train, test = sets
        shuffled = [train[i] for i in (3, 0, 5, 1, 4, 2)]
        estimator = DataInf(lora_model, lora_checkpoints)

        def fresh():
            return DataInf(lora_model, lora_checkpoints)

        estimator.influence(train, test[:1])
        assert np.array_equal(
            estimator.influence(shuffled, test[1:2]),
            fresh().influence(shuffled, test[1:2]),
        )
        assert np.array_equal(
            estimator.self_influence(train[::-1]), fresh().self_influence(train[::-1])
        )
        # A test row queried under the shuffled order is adjusted afresh
        # against the original order, never served from the other order.
        assert np.array_equal(
            estimator.influence(train, test[1:2]),
            fresh().influence(train, test[1:2]),
        )
