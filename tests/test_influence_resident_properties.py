"""Resident-block DataInf is bit-identical to a fresh estimator.

A DataInf estimator keeps its last training set resident: the gradient
block, the curvature terms and the config key, keyed on the train
hashes in row order.  Over any sequence of queries — train sets
A -> B -> A, a permuted A, a plain list equal in content to a
:class:`~repro.influence.store.TokenSet`, test sets of one to three
rows, repeated queries — every ``influence``, ``token_influence``,
``self_influence`` and ``k_most_influential`` result must be
``np.array_equal`` to a freshly built DataInf given plain lists.  The
served round trip must likewise match a freshly built service.

Each query takes test rows no earlier query used (a repeat re-issues
the previous query unchanged): an adjusted row's low bits depend on
which rows shared its adjustment, so a row first adjusted in another
grouping is a cached result, not a resident-block one.
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
    pool = [make_example(rng.integers(5, 60, size=n)) for n in (8, 6, 7) * MAX_QUERIES]
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


query = st.tuples(
    st.sampled_from(VIEWS), st.integers(1, 3), st.sampled_from(METHODS), st.booleans()
)
plans = st.lists(st.one_of(query, st.just("repeat")), min_size=1, max_size=MAX_QUERIES)


@given(plan=plans)
@settings(max_examples=15, deadline=None)
@example(
    plan=[
        ("A", 1, "influence", True),
        ("B", 2, "k_most", True),
        ("A", 3, "token", True),
        ("A-permuted", 1, "self", True),
        ("A-list", 2, "k_most", False),
    ]
)
@example(plan=[("A", 2, "token", True), "repeat", ("A-list", 1, "influence", True), "repeat"])
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
    rows = iter(pool)
    previous = None
    for step in plan:
        if step == "repeat":
            if previous is None:
                continue
            step = previous
        else:
            view, n_test, method, proponents = step
            step = (view, [next(rows) for _ in range(n_test)], method, proponents)
        previous = step
        view, test, method, proponents = step
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
