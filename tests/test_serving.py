"""Behavior Card service tests."""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.serving import BehaviorCardService, EngineConfig, ScoreRequest

from conftest import StubClassifier


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def service():
    return BehaviorCardService(StubClassifier(), threshold=0.5, clock=_Clock())


class TestDecisions:
    def test_decision_fields(self, service):
        decision = service.decide("u1", "spend=low repay=high")
        assert decision.user_id == "u1"
        assert 0.0 <= decision.score <= 1.0
        assert decision.approved == (decision.score < 0.5)
        assert decision.threshold == 0.5
        assert decision.replica == 0

    def test_empty_text_rejected(self, service):
        with pytest.raises(ServingError):
            service.decide("u1", "   ")

    def test_batch(self, service):
        results = service.score_requests([ScoreRequest("u1", "a=1"), ScoreRequest("u2", "b=2")])
        assert [r.user_id for r in results] == ["u1", "u2"]

    def test_invalid_config(self):
        with pytest.raises(ServingError):
            BehaviorCardService(StubClassifier(), threshold=0.0)
        with pytest.raises(ServingError):
            BehaviorCardService(StubClassifier(), EngineConfig(queue_capacity=0))


class TestAuditLog:
    def test_every_decision_logged(self, service):
        service.decide("u1", "a=1")
        service.decide("u2", "b=2")
        log = service.audit_log()
        assert len(log) == 2
        assert all(entry["kind"] == "audit.decision" for entry in log)
        assert log[0]["user_id"] == "u1"
        assert log[0]["ts"] < log[1]["ts"]
        assert "question:" in log[0]["prompt"]

    def test_cached_decisions_still_logged(self, service):
        # No score cache: a repeated text is scored again and logged again.
        service.decide("u1", "same")
        service.decide("u2", "same")
        assert len(service.audit_log()) == 2
        assert service.classifier.calls == 2

    def test_log_is_a_copy(self, service):
        service.decide("u1", "a=1")
        service.audit_log().clear()
        assert len(service.audit_log()) == 1


class TestStats:
    def test_approval_rate(self, service):
        # Stub scores depend on prompt length; collect a spread.
        for i in range(10):
            service.decide("u", f"feature={'x' * i}")
        assert service.stats.completed == 10
        approvals = sum(entry["approved"] for entry in service.audit_log())
        assert 0 <= approvals <= 10

    def test_zero_requests(self):
        service = BehaviorCardService(StubClassifier())
        assert service.stats.completed == 0
        assert service.audit_log() == []


class TestEndToEndWithModel:
    def test_with_fitted_zigong(self, fitted_zigong):
        from repro.datasets import make_behavior

        service = BehaviorCardService(fitted_zigong.classifier(), threshold=0.5)
        ds = make_behavior(n_users=3, n_periods=2, seed=0)
        decision = service.decide("user0", ds.row_text(0, 1))
        assert 0.0 <= decision.score <= 1.0
        assert len(service.audit_log()) == 1
