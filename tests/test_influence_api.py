"""DataInfluence interface tests: DataInf parity, tokens, top-k, store.

Covers the ISSUE-6 acceptance points: the three estimators are
interchangeable behind :class:`DataInfluence`; DataInf's closed-form
Sherman-Morrison scores match an explicit ``np.linalg.inv``
construction of the same per-layer Hessian approximation within a
pinned tolerance; token-wise attributions sum to the sequence-level
score exactly; ``k_most_influential`` orders proponents and opponents
correctly; a shared :class:`GradientStore` serves every estimator
without recomputing raw rows (and DataInf's adjusted rows live under
their own cache keys).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InfluenceError
from repro.influence import (
    DataInf,
    DataInfluence,
    GradientStore,
    TracInCP,
    TracSeq,
    make_estimator,
    per_token_examples,
    row_cache_key,
    trainable_parameter_slices,
    train_set_hash,
)
from repro.influence.gradients import gradient_matrix
from repro.lora.adapter import LoRAConfig
from repro.lora.inject import apply_lora
from repro.obs import Observability
from repro.optim import AdamW
from repro.training import CheckpointManager, Trainer, TrainingConfig

LAM = 0.05


def make_example(ids):
    return (list(ids), list(ids))


@pytest.fixture
def lora_model(tiny_model):
    """The tiny model with LoRA applied — DataInf's natural habitat."""
    apply_lora(tiny_model, LoRAConfig(rank=2, train_embeddings=False), rng=0)
    return tiny_model


@pytest.fixture
def checkpoints(lora_model, tmp_path):
    rng = np.random.default_rng(3)
    examples = [make_example(rng.integers(5, 60, size=8)) for _ in range(8)]
    manager = CheckpointManager(tmp_path / "ckpt")
    trainer = Trainer(
        lora_model,
        AdamW(lora_model.parameters(), lr=3e-3),
        config=TrainingConfig(epochs=2, batch_size=4, checkpoint_every=2),
        checkpoint_manager=manager,
    )
    trainer.train(examples)
    return manager.checkpoints()


@pytest.fixture
def sets():
    rng = np.random.default_rng(11)
    train = [make_example(rng.integers(5, 60, size=8)) for _ in range(6)]
    test = [make_example(rng.integers(5, 60, size=8)) for _ in range(3)]
    return train, test


class TestDataInfGolden:
    def test_matches_explicit_inverse(self, lora_model, checkpoints, sets):
        """Closed-form Sherman-Morrison == explicit np.linalg.inv Hessian.

        The estimator never materializes a d x d matrix; this test does,
        layer by layer, and pins the two paths together.
        """
        train, test = sets
        estimator = DataInf(lora_model, checkpoints, lam=LAM)
        scores = estimator.influence(train, test)

        last = sorted(checkpoints, key=lambda r: r.step)[-1]
        saved = lora_model.state_dict()
        try:
            CheckpointManager.restore(lora_model, last)
            g_train = gradient_matrix(lora_model, train)
            g_test = gradient_matrix(lora_model, test)
        finally:
            lora_model.load_state_dict(saved)
        expected = np.zeros((len(train), len(test)))
        for _, layer in trainable_parameter_slices(lora_model):
            g_l, v_l = g_train[:, layer], g_test[:, layer]
            d_l = g_l.shape[1]
            h_inv = np.zeros((d_l, d_l))
            for g in g_l:
                h_inv += np.linalg.inv(LAM * np.eye(d_l) + np.outer(g, g))
            h_inv /= len(train)
            expected += g_l @ h_inv @ v_l.T
        np.testing.assert_allclose(scores, expected, rtol=1e-8, atol=1e-10)

    def test_heuristic_lambda_is_positive_and_finite(self, lora_model, checkpoints, sets):
        train, test = sets
        estimator = DataInf(lora_model, checkpoints)  # per-layer heuristic
        scores = estimator.influence(train, test)
        assert np.isfinite(scores).all()
        rows = estimator.engine.stacked_rows(train)
        assert all(lam > 0 for lam in estimator.layer_lambdas(rows))

    def test_self_influence_positive(self, lora_model, checkpoints, sets):
        """g^T H^{-1} g with H ~ PSD-plus-ridge must be positive."""
        train, _ = sets
        self_scores = DataInf(lora_model, checkpoints, lam=LAM).self_influence(train)
        assert self_scores.shape == (len(train),)
        assert (self_scores > 0).all()

    def test_validates_inputs(self, lora_model, checkpoints, sets):
        train, test = sets
        with pytest.raises(InfluenceError):
            DataInf(lora_model, checkpoints, lam=-1.0)
        with pytest.raises(InfluenceError):
            DataInf(lora_model, checkpoints, lam_scale=0.0)
        with pytest.raises(InfluenceError):
            DataInf(lora_model, checkpoints).influence([], test)
        with pytest.raises(InfluenceError):
            DataInf(lora_model, checkpoints).influence(train, [])


class TestTokenInfluence:
    @pytest.mark.parametrize("backend", ["tracin", "tracseq", "datainf"])
    def test_token_scores_sum_to_sequence_score(self, lora_model, checkpoints, sets, backend):
        """Per-token attribution decomposes the sequence-level score.

        The identity is exact in exact arithmetic; the pinned tolerance
        covers backward-pass roundoff reassociation only (the single-
        position variants accumulate gradients in a different order
        than the full-sequence pass).
        """
        train, test = sets
        estimator = make_estimator(backend, lora_model, checkpoints, lam=LAM)
        column = estimator.influence(train, [test[0]])[:, 0]
        attribution = estimator.token_influence(train, test[0])
        np.testing.assert_allclose(attribution.totals(), column, rtol=1e-5, atol=1e-7)

    def test_positions_cover_supervised_labels_only(self, lora_model, checkpoints, sets):
        train, _ = sets
        ids = list(range(5, 13))
        labels = [-100, -100, ids[2], -100, ids[4], ids[5], -100, ids[7]]
        attribution = DataInf(lora_model, checkpoints, lam=LAM).token_influence(
            train, (ids, labels)
        )
        assert attribution.positions == (2, 4, 5, 7)
        assert attribution.scores.shape == (len(train), 4)
        assert attribution.position_totals().shape == (4,)

    def test_variants_respect_masking_identity(self):
        ids = [5, 6, 7, 8]
        variants, positions = per_token_examples((ids, [-100, 6, -100, 8]))
        assert positions == (1, 3)
        assert variants[0] == (ids, [-100, 6, -100, -100])
        assert variants[1] == (ids, [-100, -100, -100, 8])
        with pytest.raises(InfluenceError):
            per_token_examples((ids, [-100] * 4))


class TestKMostInfluential:
    @pytest.mark.parametrize("backend", ["tracin", "tracseq", "datainf"])
    def test_proponents_and_opponents_ordering(self, lora_model, checkpoints, sets, backend):
        train, test = sets
        estimator = make_estimator(backend, lora_model, checkpoints, lam=LAM)
        matrix = estimator.influence(train, test)
        top = estimator.k_most_influential(train, test, k=3)
        bottom = estimator.k_most_influential(train, test, k=3, proponents=False)
        for j in range(len(test)):
            column = matrix[:, j]
            # Proponents: descending from the column max.
            np.testing.assert_allclose(top.scores[j], np.sort(column)[::-1][:3])
            np.testing.assert_allclose(column[top.indices[j]], top.scores[j])
            # Opponents: ascending from the column min.
            np.testing.assert_allclose(bottom.scores[j], np.sort(column)[:3])
            np.testing.assert_allclose(column[bottom.indices[j]], bottom.scores[j])

    def test_k_validation(self, lora_model, checkpoints, sets):
        train, test = sets
        estimator = DataInf(lora_model, checkpoints, lam=LAM)
        with pytest.raises(InfluenceError):
            estimator.k_most_influential(train, test, k=0)
        with pytest.raises(InfluenceError):
            estimator.k_most_influential(train, test, k=len(train) + 1)


class TestSharedStore:
    def test_estimator_swap_reuses_raw_rows(self, lora_model, checkpoints, sets):
        """A store warmed by TracInCP serves DataInf with zero new passes."""
        train, test = sets
        obs = Observability.create()
        store = GradientStore(obs=obs)
        TracInCP(lora_model, checkpoints, store=store, obs=obs).influence(train, test)
        passes = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
        DataInf(lora_model, checkpoints, lam=LAM, store=store, obs=obs).influence(train, test)
        assert obs.metrics.snapshot()["counters"]["influence.gradient_passes"] == passes

    def test_adjusted_rows_use_distinct_keys(self, lora_model, checkpoints, sets):
        """DataInf-adjusted rows never collide with raw TracIn rows."""
        train, test = sets
        store = GradientStore()
        estimator = DataInf(lora_model, checkpoints, lam=LAM, store=store)
        estimator.influence(train, test)
        step = estimator.checkpoint.step
        pkey = estimator.engine._pkey
        adjusted_key = row_cache_key(
            pkey, "datainf", estimator._config_key([])
        )
        # The raw key holds raw rows; the adjusted family lives elsewhere.
        raw_keys = {key[2] for key in store._rows}
        assert pkey in raw_keys
        assert any(key.startswith(pkey + "+datainf-") for key in raw_keys)
        assert adjusted_key != pkey
        # Raw rows at the final step match what TracInCP would read back.
        from repro.influence import example_content_hash

        raw = store.get(step, example_content_hash(train[0]), pkey)
        assert raw is not None

    def test_train_set_hash_isolates_hessians(self, lora_model, checkpoints, sets):
        """Adjusting against a different train set is a cache miss."""
        train, test = sets
        store = GradientStore()
        estimator = DataInf(lora_model, checkpoints, lam=LAM, store=store)
        full = estimator.influence(train, test)
        subset = estimator.influence(train[:3], test)
        # Same test rows, different Hessian: the cached adjusted rows
        # must not leak across train sets.
        direct = DataInf(lora_model, checkpoints, lam=LAM).influence(train[:3], test)
        np.testing.assert_allclose(subset, direct, rtol=0, atol=1e-12)
        assert not np.allclose(full[:3], subset)

    def test_row_cache_key_shapes(self):
        assert row_cache_key("p0-k8-d64") == "p0-k8-d64"
        assert row_cache_key("p0-k8-d64", "datainf") == "p0-k8-d64+datainf"
        assert (
            row_cache_key("p0-k8-d64", "datainf", "l0.05-tabc")
            == "p0-k8-d64+datainf-l0.05-tabc"
        )
        assert train_set_hash(["b", "a"]) == train_set_hash(["a", "b"])
        assert train_set_hash(["a"]) != train_set_hash(["a", "b"])


class TestEstimatorInterchangeability:
    def test_all_estimators_implement_the_interface(self, lora_model, checkpoints, sets):
        train, test = sets
        for backend in ("tracin", "tracseq", "datainf"):
            estimator = make_estimator(backend, lora_model, checkpoints, gamma=0.8, lam=LAM)
            assert isinstance(estimator, DataInfluence)
            assert estimator.estimator_name == backend
            assert estimator.influence(train, test).shape == (len(train), len(test))
            assert estimator.self_influence(train).shape == (len(train),)

    def test_unknown_estimator_rejected(self, lora_model, checkpoints):
        with pytest.raises(InfluenceError):
            make_estimator("ghost", lora_model, checkpoints)

    def test_tracin_equals_tracseq_at_gamma_one(self, lora_model, checkpoints, sets):
        train, test = sets
        store = GradientStore()
        tracin = TracInCP(lora_model, checkpoints, store=store)
        tracseq = TracSeq(lora_model, checkpoints, gamma=1.0, store=store)
        np.testing.assert_allclose(
            tracin.influence(train, test), tracseq.influence(train, test),
            rtol=0, atol=1e-12,
        )
