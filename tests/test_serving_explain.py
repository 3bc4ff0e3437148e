"""Influence-as-a-service tests: the served explain round trip.

Pins the serving acceptance point: an online "why was this applicant
declined" query returns the top-k influential training examples plus
per-token scores, emits the ``explain.*`` counters and the
``serving.explain.query`` span, and lands in the Behavior Card audit
log as an ``audit.explain`` record next to the ``audit.decision``
record of the decision it explains.
"""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.obs import Observability
from repro.serving import (
    ExplainConfig,
    ExplainResult,
    ExplainService,
)


@pytest.fixture(scope="module")
def served(explained_zigong):
    """An explain service over the shared fine-tuned-with-checkpoints model."""
    zigong, examples, checkpoints = explained_zigong
    obs = Observability.create()
    service = ExplainService.for_zigong(
        zigong, examples, checkpoints, estimator="datainf", obs=obs
    )
    behavior_text = examples[0].prompt.split(" question:")[0]
    return service, behavior_text, obs


class TestExplainRoundTrip:
    def test_returns_topk_and_token_scores(self, served):
        service, text, _ = served
        result = service.explain("applicant-1", text, k=3)
        assert isinstance(result, ExplainResult)
        assert result.estimator == "datainf"
        assert len(result.influential) == 3
        # Descending proponents, train-set indices in range, snippets attached.
        scores = [e.score for e in result.influential]
        assert scores == sorted(scores, reverse=True)
        assert all(0 <= e.index < len(service.train_examples) for e in result.influential)
        assert all(e.text for e in result.influential)
        attribution = result.token_attribution
        assert attribution is not None
        assert len(attribution.scores) == len(attribution.positions)
        assert len(attribution.tokens) == len(attribution.positions)

    def test_decision_fields_match_behavior_card(self, served):
        service, text, _ = served
        result = service.explain("applicant-2", text)
        direct = service.behavior_card.decide("applicant-2b", text)
        assert result.score == pytest.approx(direct.score)
        assert result.approved == direct.approved
        assert result.threshold == direct.threshold

    def test_opponents_direction(self, served):
        service, text, _ = served
        pro = service.explain("p", text, k=2, proponents=True)
        con = service.explain("c", text, k=2, proponents=False)
        assert pro.influential[0].score >= con.influential[0].score

    def test_empty_text_rejected(self, served):
        service, _, _ = served
        with pytest.raises(ServingError):
            service.explain("u", "   ")


class TestExplainAudit:
    def test_query_lands_in_behavior_card_audit_log(self, served):
        service, text, _ = served
        before = len(service.behavior_card.audit_log())
        service.explain("audited-user", text, k=2)
        log = service.behavior_card.audit_log()
        # One decision record + one explanation record, in that order.
        new = log[before:]
        assert [e["kind"] for e in new] == ["audit.decision", "audit.explain"]
        decision, explanation = new
        assert decision["user_id"] == explanation["user_id"] == "audited-user"
        assert explanation["estimator"] == "datainf"
        assert explanation["k"] == 2
        assert explanation["proponents"] is True
        assert len(explanation["top_indices"]) == 2
        assert len(explanation["top_scores"]) == 2
        assert explanation["approved"] == decision["approved"]
        assert explanation["ts"] >= decision["ts"]

    def test_obs_counters_and_spans(self, served):
        service, text, obs = served
        before = obs.metrics.snapshot()["counters"].get("explain.requests", 0)
        service.explain("obs-user", text)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["explain.requests"] == before + 1
        assert "span.duration_s{name=serving.explain.query}" in obs.metrics.snapshot()["histograms"]


class TestExplainConfig:
    def test_validates_top_k(self):
        with pytest.raises(ServingError):
            ExplainConfig(top_k=0)

    def test_requires_training_examples(self, served):
        service, _, _ = served
        with pytest.raises(ServingError):
            ExplainService([], [], service._encode, service.behavior_card)


class TestEstimatorSwap:
    @pytest.mark.parametrize("backend", ["tracin", "tracseq"])
    def test_other_estimators_serve_identically(self, served, backend):
        """The service is written against DataInfluence, not DataInf:
        reuse the tokenized corpus and gradient store, swap the backend."""
        service, text, _ = served
        from repro.influence import make_estimator

        estimator = make_estimator(
            backend,
            service.estimator.model,
            [service.estimator.checkpoint],
            store=service.estimator.store,
        )
        alt = ExplainService(
            estimator,
            service.train_examples,
            service._encode,
            service.behavior_card,
            config=ExplainConfig(top_k=2),
        )
        result = alt.explain("swap-user", text)
        assert result.estimator == backend
        assert len(result.influential) == 2
