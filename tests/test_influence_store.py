"""Gradient store + parallel influence engine tests.

Covers the ISSUE-3 acceptance points: cached results are numerically
identical to uncached ones, changing the projector seed invalidates the
cache, partially written checkpoints don't poison influence runs, and
the projector is deterministic across processes (the parallel engine
depends on it).
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.errors import CheckpointError, InfluenceError
from repro.influence import (
    DataInf,
    GradientStore,
    GradientProjector,
    TracInCP,
    TracSeq,
    example_content_hash,
    projector_key,
    trainable_parameters,
)
from repro.influence import store as store_module
from repro.influence.gradients import PROJECTION_TILE, TracePlan, gradient_matrix
from repro.obs import Observability
from repro.optim import AdamW
from repro.training import CheckpointManager, Trainer, TrainingConfig


def make_example(ids):
    return (list(ids), list(ids))


@pytest.fixture
def checkpoints(tiny_model, tmp_path):
    rng = np.random.default_rng(0)
    examples = [make_example(rng.integers(5, 60, size=8)) for _ in range(12)]
    manager = CheckpointManager(tmp_path / "ckpt")
    trainer = Trainer(
        tiny_model,
        AdamW(tiny_model.parameters(), lr=3e-3),
        config=TrainingConfig(epochs=2, batch_size=4, checkpoint_every=2),
        checkpoint_manager=manager,
    )
    trainer.train(examples)
    return manager.checkpoints()


@pytest.fixture
def sets():
    rng = np.random.default_rng(7)
    train = [make_example(rng.integers(5, 60, size=8)) for _ in range(6)]
    test = [make_example(rng.integers(5, 60, size=8)) for _ in range(3)]
    return train, test


class TestGradientStore:
    def test_put_get_roundtrip(self):
        store = GradientStore()
        row = np.arange(4.0)
        store.put(1, "abc", "exact", row)
        np.testing.assert_array_equal(store.get(1, "abc", "exact"), row)
        assert store.get(2, "abc", "exact") is None

    def test_key_isolation(self):
        """Same example hash under different steps / projectors is distinct."""
        store = GradientStore()
        store.put(1, "h", "p0-k4-d8", np.zeros(4))
        assert store.get(1, "h", "p1-k4-d8") is None
        assert store.get(2, "h", "p0-k4-d8") is None
        assert store.get(1, "h", "p0-k4-d8") is not None

    def test_lru_eviction_by_entries(self):
        store = GradientStore(max_entries=2)
        for i in range(3):
            store.put(0, f"h{i}", "exact", np.full(4, float(i)))
        assert len(store) == 2
        assert store.get(0, "h0", "exact") is None  # oldest evicted
        assert store.get(0, "h2", "exact") is not None

    def test_lru_eviction_by_bytes(self, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_BYTES", 300)
        row = np.zeros(16)  # 128 bytes
        store = GradientStore()
        for i in range(3):
            store.put(0, f"h{i}", "exact", row)
        assert len(store) == 2

    def test_zero_entries_disables_memory_tier(self):
        store = GradientStore(max_entries=0)
        store.put(0, "h", "exact", np.zeros(4))
        assert len(store) == 0
        assert store.get(0, "h", "exact") is None

    def test_disk_tier_roundtrip(self, tmp_path):
        cache = tmp_path / "grads"
        store = GradientStore(cache_dir=cache)
        store.put(3, "h", "exact", np.arange(5.0))
        assert store.flush() == 1
        shards = list(cache.glob("grads-step000003-exact.npz"))
        assert len(shards) == 1
        fresh = GradientStore(cache_dir=cache)
        np.testing.assert_array_equal(fresh.get(3, "h", "exact"), np.arange(5.0))
        assert fresh.stats()["hits_disk"] == 1

    def test_stats_count_hits_and_misses(self):
        store = GradientStore()
        store.get(0, "h", "exact")
        store.put(0, "h", "exact", np.zeros(2))
        store.get(0, "h", "exact")
        stats = store.stats()
        assert stats["misses"] == 1
        assert stats["hits_memory"] == 1

    def test_invalid_bounds(self):
        with pytest.raises(InfluenceError):
            GradientStore(max_entries=-1)

    def test_example_content_hash_stable_and_content_addressed(self):
        a = example_content_hash(([1, 2, 3], [1, 2, 3]))
        assert a == example_content_hash(([1, 2, 3], [1, 2, 3]))
        assert a != example_content_hash(([1, 2, 4], [1, 2, 3]))
        assert a != example_content_hash(([1, 2, 3], [1, 2, 4]))


class TestCachedParity:
    def test_tracin_cached_matches_uncached(self, tiny_model, checkpoints, sets):
        train, test = sets
        uncached = TracInCP(tiny_model, checkpoints, store=GradientStore(max_entries=0))
        cached = TracInCP(tiny_model, checkpoints)
        np.testing.assert_allclose(
            uncached.influence(train, test).sum(axis=1), cached.influence(train, test).sum(axis=1),
            rtol=0, atol=1e-10,
        )
        # Second call reuses every row: identical output, zero new passes.
        obs = Observability.create()
        tracer = TracInCP(tiny_model, checkpoints, obs=obs)
        first = tracer.influence(train, test).sum(axis=1)
        passes_after_first = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
        second = tracer.influence(train, test).sum(axis=1)
        passes_after_second = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
        np.testing.assert_array_equal(first, second)
        assert passes_after_second == passes_after_first

    def test_tracseq_shared_store_gamma_sweep_parity(self, tiny_model, checkpoints, sets):
        train, test = sets
        dim = sum(p.size for p in trainable_parameters(tiny_model))
        shared = GradientStore()
        obs = Observability.create()
        for gamma in (0.5, 0.9, 1.0):
            projector = GradientProjector(dim, k=64, seed=0)
            fresh = TracSeq(
                tiny_model, checkpoints, gamma=gamma, projector=projector,
                store=GradientStore(max_entries=0),
            )
            reused = TracSeq(
                tiny_model, checkpoints, gamma=gamma, projector=projector,
                store=shared, obs=obs,
            )
            np.testing.assert_allclose(
                fresh.influence(train, test).sum(axis=1), reused.influence(train, test).sum(axis=1),
                rtol=0, atol=1e-10,
            )
        # After the first sweep iteration the shared store served everything.
        n_unique = len(train) + len(test)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["influence.gradient_passes"] == len(checkpoints) * n_unique

    def test_checkpoint_products_recombination_matches_scores(
        self, tiny_model, checkpoints, sets
    ):
        """Gamma sweep via products == direct scores, per the docstring."""
        train, test = sets
        tracer = TracSeq(tiny_model, checkpoints, gamma=0.7)
        products = tracer.checkpoint_products(train, test)
        weights = tracer._weights()
        recombined = weights @ products
        np.testing.assert_allclose(
            recombined, tracer.influence(train, test).sum(axis=1), rtol=1e-10, atol=1e-12
        )

    def test_self_influence_matches_direct_computation(self, tiny_model, checkpoints, sets):
        train, _ = sets
        tracer = TracInCP(tiny_model, checkpoints)
        got = tracer.self_influence(train)
        expected = np.zeros(len(train))
        saved = tiny_model.state_dict()
        try:
            for record in checkpoints:
                CheckpointManager.restore(tiny_model, record)
                g = gradient_matrix(TracePlan(tiny_model), train)
                expected += record.lr * (g * g).sum(axis=1)
        finally:
            tiny_model.load_state_dict(saved)
        np.testing.assert_allclose(got, expected, rtol=1e-10)


class TestCacheInvalidation:
    def test_changed_projector_seed_recomputes(self, tiny_model, checkpoints, sets):
        train, test = sets
        dim = sum(p.size for p in trainable_parameters(tiny_model))
        shared = GradientStore()
        obs = Observability.create()
        a = TracInCP(
            tiny_model, checkpoints,
            projector=GradientProjector(dim, k=32, seed=0), store=shared, obs=obs,
        )
        scores_a = a.influence(train, test).sum(axis=1)
        passes = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
        b = TracInCP(
            tiny_model, checkpoints,
            projector=GradientProjector(dim, k=32, seed=1), store=shared, obs=obs,
        )
        scores_b = b.influence(train, test).sum(axis=1)
        # New seed -> new cache key -> full recompute, and a different sketch.
        assert obs.metrics.snapshot()["counters"]["influence.gradient_passes"] == 2 * passes
        assert not np.allclose(scores_a, scores_b)

    def test_projector_key_covers_seed_k_dim(self):
        assert projector_key(None) == "exact"
        assert projector_key(GradientProjector(10, k=4, seed=0)) != projector_key(
            GradientProjector(10, k=4, seed=1)
        )
        assert projector_key(GradientProjector(10, k=4, seed=0)) != projector_key(
            GradientProjector(10, k=5, seed=0)
        )
        assert projector_key(GradientProjector(10, k=4, seed=0)) != projector_key(
            GradientProjector(11, k=4, seed=0)
        )
        # The tile height is part of the key: rows projected one by one,
        # stored under the unmarked key, differ in their low bits.
        key = projector_key(GradientProjector(10, k=4, seed=0))
        assert key.endswith(f"-t{PROJECTION_TILE}")
        assert key != "p0-k4-d10"

    def test_shards_of_per_row_projection_are_not_read(self, tiny_model, checkpoints, sets, tmp_path):
        train, test = sets
        dim = sum(p.size for p in trainable_parameters(tiny_model))
        cache = tmp_path / "grads"
        per_row = GradientStore(cache_dir=cache)
        for record in checkpoints:
            for example in train + test:
                per_row.put(record.step, example_content_hash(example), f"p0-k32-d{dim}", np.zeros(32))
        per_row.flush()
        obs = Observability.create()
        TracInCP(
            tiny_model, checkpoints, projector=GradientProjector(dim, k=32, seed=0),
            store=GradientStore(cache_dir=cache), obs=obs,
        ).influence(train, test)
        passes = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
        assert passes == len(checkpoints) * len(train + test)


class TestParallelEngine:
    # Store bounds: the default, no memory tier at all, and fewer
    # entries than one replay's rows (checkpoints x 9 unique examples).
    @pytest.mark.parametrize(
        "store_kwargs",
        [{}, {"max_entries": 0}, {"max_entries": 5}],
        ids=["default", "no-memory", "below-one-replay"],
    )
    def test_parallel_matches_serial(self, tiny_model, checkpoints, sets, store_kwargs):
        """workers=2 scores equal workers=0's, and each row is computed once."""
        train, test = sets
        n_unique = len({example_content_hash(ex) for ex in train + test})
        scores, passes = {}, {}
        for workers in (0, 2):
            obs = Observability.create()
            tracer = TracSeq(
                tiny_model, checkpoints, gamma=0.9, workers=workers, obs=obs,
                store=GradientStore(obs=obs, **store_kwargs),
            )
            scores[workers] = tracer.influence(train, test)
            passes[workers] = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
        assert np.array_equal(scores[2], scores[0])
        assert passes == {0: len(checkpoints) * n_unique, 2: len(checkpoints) * n_unique}

    def test_parallel_with_projector_matches_serial(self, tiny_model, checkpoints, sets):
        train, test = sets
        dim = sum(p.size for p in trainable_parameters(tiny_model))
        serial = TracInCP(
            tiny_model, checkpoints, projector=GradientProjector(dim, k=32, seed=3)
        ).influence(train, test).sum(axis=1)
        parallel = TracInCP(
            tiny_model, checkpoints,
            projector=GradientProjector(dim, k=32, seed=3), workers=2,
        ).influence(train, test).sum(axis=1)
        np.testing.assert_allclose(serial, parallel, rtol=0, atol=1e-10)

    def test_parallel_emits_worker_spans(self, tiny_model, checkpoints, sets):
        train, test = sets
        obs = Observability.create()
        TracInCP(tiny_model, checkpoints, workers=2, obs=obs).influence(train, test).sum(axis=1)
        spans = obs.metrics.snapshot()["histograms"]
        assert spans["span.duration_s{name=influence.worker}"]["count"] == len(checkpoints)
        assert "span.duration_s{name=influence.prefetch}" in spans

    def test_single_checkpoint_engine_forks_no_pool(self, tiny_model, checkpoints, sets):
        """One checkpoint is one job: DataInf at workers=2 replays in-process."""
        train, test = sets
        results = {}
        for workers in (0, 2):
            obs = Observability.create()
            estimator = DataInf(tiny_model, checkpoints, workers=workers, obs=obs)
            scores = estimator.influence(train, test)
            rows = estimator.engine.stacked_rows(train + test)
            spans = obs.metrics.snapshot()["histograms"]
            assert "span.duration_s{name=influence.prefetch}" not in spans
            assert "span.duration_s{name=influence.worker}" not in spans
            passes = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
            results[workers] = (scores, rows, passes)
        assert np.array_equal(results[2][0], results[0][0])
        assert np.array_equal(results[2][1], results[0][1])
        assert results[2][2] == results[0][2]

    def test_invalid_workers_rejected(self, tiny_model, checkpoints):
        with pytest.raises(InfluenceError):
            TracInCP(tiny_model, checkpoints, workers=-1)


class TestCrashInjection:
    def test_interrupted_save_leaves_directory_usable(self, tiny_model, tmp_path, monkeypatch):
        """A crash mid-save must not poison checkpoints() for the directory."""
        manager = CheckpointManager(tmp_path)
        manager.save(tiny_model, step=1, lr=0.1)

        import repro.training.checkpoint as ckpt_mod

        def exploding_savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ckpt_mod.np, "savez", exploding_savez)
        with pytest.raises(OSError):
            manager.save(tiny_model, step=2, lr=0.05)
        monkeypatch.undo()

        # No temp or partial files; the earlier checkpoint still lists.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["step-000001.npz"]
        assert [r.step for r in manager.checkpoints()] == [1]

    def test_influence_run_refuses_a_foreign_checkpoint(self, checkpoints):
        """A step-*.npz that is no artifact is refused by name, never replayed."""
        directory = checkpoints[0].path.parent
        foreign = directory / "step-009999.npz"
        foreign.write_bytes(b"partial write")
        with pytest.raises(CheckpointError, match=str(foreign)):
            CheckpointManager(directory).checkpoints()


class TestTracSeqValidation:
    def test_bad_sample_times_fail_before_gradient_work(
        self, tiny_model, checkpoints, sets
    ):
        train, test = sets
        obs = Observability.create()
        tracer = TracSeq(tiny_model, checkpoints, obs=obs)
        with pytest.raises(InfluenceError):
            tracer.sample_decay([9.0] * len(train), test_time=1.0)  # future samples
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("influence.gradient_passes", 0) == 0
        assert counters.get("influence.checkpoints_replayed", 0) == 0


class TestProjectorDeterminism:
    def test_fingerprint_matches_across_processes(self):
        """Workers rebuild identical sketches from (dim, k, seed) alone."""
        projector = GradientProjector(200, k=16, seed=42)
        code = (
            "from repro.influence import GradientProjector;"
            "print(GradientProjector(200, k=16, seed=42).fingerprint())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
        )
        assert out.stdout.strip() == projector.fingerprint()

    def test_fingerprint_distinguishes_seeds(self):
        assert (
            GradientProjector(50, k=8, seed=0).fingerprint()
            != GradientProjector(50, k=8, seed=1).fingerprint()
        )
