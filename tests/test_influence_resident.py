"""The resident training block: TokenSet and the work a warm query does.

A :class:`~repro.influence.store.TokenSet` carries its content hashes,
so a training set built once is hashed once.  DataInf keeps one
resident entry per estimator — the train hashes in row order and the
read-only adjusted block ``H^{-1} g_train``, transposed — so a warm explain query replays, hashes and looks up only the
applicant's example and its token variants.  These tests count that
work and pin that results do not depend on the store keeping the
training rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.influence import (
    GradientStore,
    TokenSet,
    TracInCP,
    example_content_hash,
    per_token_examples,
)
from repro.influence import store as store_module
from repro.influence.engine import ParallelInfluenceEngine
from repro.obs import Observability
from repro.serving import ExplainService


def make_example(ids):
    return (list(ids), list(ids))


def behavior_text(example) -> str:
    return example.prompt.split(" question:")[0]


@pytest.fixture
def counted(monkeypatch):
    """Record every content hash, store lookup and stacked row block."""
    calls = {"hashed": [], "gets": [], "stacked": []}
    hash_example = store_module.example_content_hash

    def hashing(example):
        calls["hashed"].append(example)
        return hash_example(example)

    get = GradientStore.get

    def getting(self, step, example_hash, projector_key):
        calls["gets"].append(example_hash)
        return get(self, step, example_hash, projector_key)

    stack = ParallelInfluenceEngine._stack

    def stacking(self, rows, hashes):
        calls["stacked"].append(tuple(hashes))
        return stack(self, rows, hashes)

    monkeypatch.setattr(store_module, "example_content_hash", hashing)
    monkeypatch.setattr(GradientStore, "get", getting)
    monkeypatch.setattr(ParallelInfluenceEngine, "_stack", stacking)
    return calls


class TestTokenSet:
    def test_freezes_examples_and_hashes_once(self):
        examples = [make_example([5, 6, 7]), ([8, 9, 10], [-100, 9, 10])]
        tokens = TokenSet(examples)
        assert tokens.examples == (((5, 6, 7), (5, 6, 7)), ((8, 9, 10), (-100, 9, 10)))
        assert tokens.hashes == tuple(example_content_hash(e) for e in examples)
        assert len(tokens) == 2 and tokens[1] == tokens.examples[1]
        assert list(tokens) == list(tokens.examples)
        examples[0][0][0] = 40  # the caller's lists are not shared
        assert tokens[0][0][0] == 5

    def test_of_returns_a_token_set_unchanged(self, counted):
        tokens = TokenSet([make_example([5, 6])])
        assert TokenSet.of(tokens) is tokens
        assert len(counted["hashed"]) == 1

    def test_concatenation_reuses_both_sides_hashes(self, counted):
        left = TokenSet([make_example([5, 6])])
        right = TokenSet([make_example([7, 8]), make_example([9, 10])])
        before = len(counted["hashed"])
        joined = left + right
        assert len(counted["hashed"]) == before
        assert joined.hashes == left.hashes + right.hashes
        assert joined.examples == left.examples + right.examples
        plain = left + [make_example([11, 12])]  # a plain list is hashed once
        assert len(counted["hashed"]) == before + 1
        assert plain.hashes[1] == example_content_hash(make_example([11, 12]))

    def test_plain_lists_and_token_sets_score_alike(self, tiny_model, tmp_path):
        from repro.optim import AdamW
        from repro.training import CheckpointManager, Trainer, TrainingConfig

        rng = np.random.default_rng(2)
        examples = [make_example(rng.integers(5, 60, size=8)) for _ in range(8)]
        manager = CheckpointManager(tmp_path / "ckpt")
        Trainer(
            tiny_model,
            AdamW(tiny_model.parameters(), lr=3e-3),
            config=TrainingConfig(epochs=1, batch_size=4, checkpoint_every=1),
            checkpoint_manager=manager,
        ).train(examples)
        train, test = examples[:6], examples[6:]
        expected = TracInCP(tiny_model, manager.checkpoints()).influence(train, test)
        tracer = TracInCP(tiny_model, manager.checkpoints())
        assert np.array_equal(tracer.influence(TokenSet(train), TokenSet(test)), expected)
        assert np.array_equal(
            tracer.self_influence(TokenSet(train)),
            TracInCP(tiny_model, manager.checkpoints()).self_influence(train),
        )


@pytest.fixture(scope="module")
def service(explained_zigong):
    zigong, examples, checkpoints = explained_zigong
    service = ExplainService.for_zigong(
        zigong, examples, checkpoints, obs=Observability.create()
    )
    service.explain("warm-up", behavior_text(examples[0]))
    return service


class TestWarmQueryWork:
    def test_hashes_and_looks_up_only_the_applicant(self, service, explained_zigong, counted):
        _, examples, _ = explained_zigong
        text = behavior_text(examples[5])
        result = service.explain("counted", text)
        example = service._encode(text, "no" if result.approved else "yes")
        variants, _ = per_token_examples(example)
        query_hashes = {example_content_hash(e) for e in [example] + variants}
        train_hashes = set(service.train_examples.hashes)
        # The example is hashed once per estimator call (token_influence
        # and k_most_influential); each variant once.
        hashed = [tuple(map(tuple, e)) for e in counted["hashed"]]
        assert len(hashed) == len(variants) + 2
        assert set(hashed) == {tuple(map(tuple, e)) for e in [example] + variants}
        # Raw rows for the variants and the example, once each: the
        # example's second read, for k_most_influential, comes from the
        # request's own rows.
        assert len(counted["gets"]) == len(variants) + 1
        assert set(counted["gets"]) == query_hashes
        assert not set(counted["gets"]) & train_hashes
        stacked = [h for block in counted["stacked"] for h in block]
        assert len(stacked) == len(variants) + 2
        assert not set(stacked) & train_hashes

    def test_resident_entry_follows_the_train_set(self, service, explained_zigong):
        _, examples, _ = explained_zigong
        estimator = service.estimator
        train = service.train_examples
        assert estimator._resident[0] == train.hashes
        block = estimator._resident[1]  # H^-1 g_train, transposed
        assert block.shape == (estimator.engine.stacked_rows(train).shape[1], len(train))
        assert block.flags.c_contiguous and not block.flags.writeable
        test = [service._encode(behavior_text(examples[6]), "yes")]
        other = TokenSet(train[:5])
        estimator.influence(other, test)
        assert estimator._resident[0] == other.hashes
        estimator.influence(list(train), test)  # equal content, plain list
        assert estimator._resident[0] == train.hashes
        assert np.array_equal(estimator._resident[1], block)


class TestStoreIndependence:
    @pytest.mark.parametrize(
        "store", [lambda: GradientStore(max_entries=0), lambda: GradientStore(max_entries=4)]
    )
    def test_results_do_not_depend_on_the_store_keeping_train_rows(
        self, explained_zigong, store
    ):
        """With memory caching off, or train rows evicted by a bound below
        the training set, results hold."""
        zigong, examples, checkpoints = explained_zigong
        texts = [behavior_text(e) for e in examples[2:5]] + [behavior_text(examples[2])]
        reference = ExplainService.for_zigong(
            zigong, examples, checkpoints, obs=Observability.create()
        )
        obs = Observability.create()
        bounded = ExplainService.for_zigong(
            zigong, examples, checkpoints, obs=obs, store=store()
        )
        for index, text in enumerate(texts):
            passes = obs.metrics.snapshot()["counters"].get("influence.gradient_passes", 0)
            got = bounded.explain(f"user-{index}", text)
            want = reference.explain(f"user-{index}", text)
            assert got.influential == want.influential
            assert got.token_attribution == want.token_attribution
            if index:
                # The resident block serves the train rows: only the
                # applicant's rows are ever recomputed.
                computed = obs.metrics.snapshot()["counters"]["influence.gradient_passes"]
                assert computed - passes < len(examples)
        estimator = bounded.estimator
        step, pkey = estimator.checkpoint.step, estimator.engine._pkey
        train = bounded.train_examples
        # Applicants' rows never enter the store, so it holds as many
        # training rows as its bound allows and no more.
        bound = estimator.store.max_entries
        assert bound < len(train)
        kept = len({(step, h, pkey) for h in train.hashes} & estimator.store._rows.keys())
        assert kept == len(estimator.store) == bound
