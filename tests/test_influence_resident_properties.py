"""Resident-block DataInf is bit-identical to a fresh estimator.

A DataInf estimator keeps its last training set resident: the gradient
block and the curvature terms, keyed on the train hashes in row order.
Over any sequence of queries — train sets A -> B -> A, a permuted A, a
plain list equal in content to a
:class:`~repro.influence.store.TokenSet`, test sets of one to three
rows, repeated queries — every ``influence``, ``token_influence``,
``self_influence`` and ``k_most_influential`` result must be
``np.array_equal`` to a freshly built DataInf given plain lists.  The
served round trip must likewise match a freshly built service.

Test rows come from a small pool, so a query may take a row an earlier
query used, under another train set or row order or in another
grouping: a score depends on the train set and the query alone, never
on the queries before it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.influence import DataInf, TokenSet
from repro.lora.adapter import LoRAConfig
from repro.lora.inject import apply_lora
from repro.nn import MistralTiny
from repro.obs import Observability
from repro.optim import AdamW
from repro.serving import ExplainService
from repro.training import CheckpointManager, Trainer, TrainingConfig

from conftest import TINY

METHODS = ("influence", "token", "self", "k_most")
VIEWS = ("A", "B", "A-permuted", "A-list")
MAX_QUERIES = 5
POOL = (8, 6, 7, 8)  # test row lengths


def make_example(ids):
    return (list(ids), list(ids))


def plain(examples):
    return [(list(ids), list(labels)) for ids, labels in examples]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A LoRA model with a checkpoint trail, train sets A/B and a test pool."""
    model = MistralTiny(TINY, rng=0)
    apply_lora(model, LoRAConfig(rank=2, train_embeddings=False), rng=0)
    rng = np.random.default_rng(5)
    corpus = [make_example(rng.integers(5, 60, size=8)) for _ in range(12)]
    manager = CheckpointManager(tmp_path_factory.mktemp("resident-ckpt"))
    Trainer(
        model,
        AdamW(model.parameters(), lr=3e-3),
        config=TrainingConfig(epochs=2, batch_size=4, checkpoint_every=2),
        checkpoint_manager=manager,
    ).train(corpus)
    # Mixed lengths: same-length rows share batched gradient passes.
    set_a = [make_example(rng.integers(5, 60, size=n)) for n in (8, 8, 6, 8, 6, 7)]
    set_b = [make_example(rng.integers(5, 60, size=n)) for n in (8, 6, 8, 7)]
    pool = [make_example(rng.integers(5, 60, size=n)) for n in POOL]
    return model, manager.checkpoints(), set_a, set_b, pool


def call(estimator, method, train, test, proponents) -> list[np.ndarray]:
    if method == "influence":
        return [estimator.influence(train, test)]
    if method == "token":
        tokens = estimator.token_influence(train, test[0])
        return [np.asarray(tokens.positions), tokens.scores]
    if method == "self":
        return [estimator.self_influence(train)]
    top = estimator.k_most_influential(train, test, k=2, proponents=proponents)
    return [top.indices, top.scores]


test_rows = st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=3)
query = st.tuples(st.sampled_from(VIEWS), test_rows, st.sampled_from(METHODS), st.booleans())
plans = st.lists(st.one_of(query, st.just("repeat")), min_size=1, max_size=MAX_QUERIES)


@given(plan=plans)
@settings(max_examples=15, deadline=None)
@example(
    plan=[
        ("A", [0], "influence", True),
        ("B", [1, 2], "k_most", True),
        ("A", [3, 0, 1], "token", True),
        ("A-permuted", [2], "self", True),
        ("A-list", [1, 3], "k_most", False),
    ]
)
@example(plan=[("A", [0, 1], "token", True), "repeat", ("A-list", [2], "influence", True), "repeat"])
@example(
    plan=[
        ("A-permuted", [1], "influence", True),
        ("A", [1], "influence", True),
        ("A-permuted", [0, 1], "k_most", True),
        ("A", [1, 0], "influence", True),
    ]
)
def test_query_sequences_match_fresh_estimators(trained, plan):
    model, checkpoints, set_a, set_b, pool = trained
    permuted = [set_a[i] for i in (3, 0, 5, 1, 4, 2)]
    views = {
        "A": (TokenSet(set_a), set_a),
        "B": (TokenSet(set_b), set_b),
        "A-permuted": (TokenSet(permuted), permuted),
        "A-list": (plain(set_a), set_a),
    }
    estimator = DataInf(model, checkpoints)
    previous = None
    for step in plan:
        if step == "repeat":
            if previous is None:
                continue
            step = previous
        previous = step
        view, rows, method, proponents = step
        test = [pool[i] for i in rows]
        train, content = views[view]
        got = call(estimator, method, train, test, proponents)
        want = call(DataInf(model, checkpoints), method, plain(content), plain(test), proponents)
        for got_array, want_array in zip(got, want):
            assert np.array_equal(got_array, want_array), (view, method)


def test_served_round_trip_matches_a_fresh_service(explained_zigong):
    zigong, examples, checkpoints = explained_zigong

    def build():
        return ExplainService.for_zigong(
            zigong, examples, checkpoints, obs=Observability.create()
        )

    warm = build()
    texts = [e.prompt.split(" question:")[0] for e in examples]
    queries = [
        ("u1", texts[1], None, None),
        ("u2", texts[2], 2, False),
        ("u3", texts[1], None, None),  # a repeat: served from the caches
        ("u4", texts[3], 4, True),
    ]
    for user_id, text, k, proponents in queries:
        got = warm.explain(user_id, text, k=k, proponents=proponents)
        want = build().explain(user_id, text, k=k, proponents=proponents)
        assert [e.index for e in got.influential] == [e.index for e in want.influential]
        assert [e.score for e in got.influential] == [e.score for e in want.influential]
        assert got.token_attribution == want.token_attribution
        assert got.score == want.score
