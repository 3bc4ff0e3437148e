"""Explain queries keep their gradient rows to the request.

Inside :meth:`~repro.serving.ExplainService.explain` the applicant's
example and its per-token variants get their rows from one batched pass
per checkpoint; ``token_influence`` and the top-k pick share them, and
they are dropped when the query ends.  So a served store holds training
rows only — ``n_train`` for DataInf, ``n_train × n_ckpt`` for TracSeq —
however many applicants are explained, and every served answer is still
``==`` to direct estimator calls that go through a store.
"""

from __future__ import annotations

import pytest

from repro.influence import make_estimator, per_token_examples
from repro.obs import Observability
from repro.serving import ExplainService

QUERIES = 50


def behavior_text(example) -> str:
    return example.prompt.split(" question:")[0]


@pytest.fixture(scope="module")
def applicants(german_examples, explained_zigong):
    """``QUERIES`` distinct applicants, none of them a training example."""
    _, examples, _ = explained_zigong
    seen = {behavior_text(e) for e in examples}
    texts = []
    for example in german_examples[len(examples):]:
        text = behavior_text(example)
        if text not in seen:
            seen.add(text)
            texts.append(text)
    assert len(texts) >= QUERIES
    return texts[:QUERIES]


@pytest.mark.parametrize(
    "estimator, workers",
    [("datainf", 0), ("tracseq", 0), ("tracseq", 2)],
    ids=["datainf", "tracseq-workers0", "tracseq-workers2"],
)
def test_store_holds_training_rows_only(explained_zigong, applicants, estimator, workers):
    zigong, examples, checkpoints = explained_zigong
    obs = Observability.create()
    service = ExplainService.for_zigong(
        zigong, examples, checkpoints, estimator=estimator, obs=obs, workers=workers
    )
    service.explain("warm-up", behavior_text(examples[0]))
    store = service.estimator.store
    n_ckpt = len(service.estimator.checkpoints)
    assert n_ckpt == 1 if estimator == "datainf" else n_ckpt > 1
    assert len(store) == len(examples) * n_ckpt

    def snapshot():
        metrics = obs.metrics.snapshot()
        return (
            metrics["counters"]["influence.gradient_passes"],
            metrics["gauges"]["influence.store.bytes"],
        )

    _, stored_bytes = snapshot()
    direct = make_estimator(estimator, zigong.model, checkpoints)
    for index, text in enumerate(applicants):
        passes, _ = snapshot()
        result = service.explain(f"applicant-{index}", text)
        computed, now_bytes = snapshot()
        assert len(store) == len(examples) * n_ckpt
        assert now_bytes == stored_bytes

        example = service._encode(text, "no" if result.approved else "yes")
        variants, _ = per_token_examples(example)
        # One row per checkpoint for the example and each variant: top-k
        # reads the example's row from the request, not a new pass.
        assert computed - passes == n_ckpt * (len(variants) + 1)

        tokens = direct.token_influence(service.train_examples, example)
        top = direct.k_most_influential(service.train_examples, [example], k=3)
        indices = [int(i) for i in top.indices[0]]
        assert [e.index for e in result.influential] == indices
        assert [e.score for e in result.influential] == [float(s) for s in top.scores[0]]
        aggregate = tokens.scores[indices].sum(axis=0)
        assert result.token_attribution.positions == tokens.positions
        assert result.token_attribution.scores == tuple(float(s) for s in aggregate)
