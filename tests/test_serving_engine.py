"""Micro-batching serving engine + unified request/response API tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ReplicaCrashedError,
    ServingError,
)
from repro.serving import (
    BehaviorCardConfig,
    BehaviorCardService,
    DriftMonitor,
    EngineConfig,
    MicroBatchEngine,
    ScoreRequest,
    ScoreResult,
)


from conftest import ENGINE_KINDS, make_engine
from conftest import StubClassifier as _StubClassifier
from conftest import StepClock as _Clock
from conftest import make_stub_service as make_service


class TestConfigAPI:
    def test_config_object_init(self):
        config = BehaviorCardConfig(threshold=0.4, max_batch_size=2)
        service = BehaviorCardService(_StubClassifier(), config)
        assert service.config.replicas == 1
        assert service.config.max_batch_size == 2
        assert service.replicas[0].engine.config.max_batch_size == 2
        assert service.decide("u1", "a=1").threshold == 0.4

    def test_config_validation(self):
        with pytest.raises(ServingError):
            BehaviorCardConfig(threshold=0.0)
        with pytest.raises(ServingError):
            EngineConfig(max_batch_size=0)
        with pytest.raises(ServingError):
            EngineConfig(queue_capacity=-1)

    def test_engine_knobs_validated_eagerly(self):
        with pytest.raises(ServingError):
            BehaviorCardConfig(max_batch_size=0)
        with pytest.raises(ServingError):
            BehaviorCardConfig(queue_capacity=0)
        with pytest.raises(ServingError):
            BehaviorCardConfig(max_wait_s=-1.0)

    def test_types_reexported_at_top_level(self):
        import repro

        assert repro.ScoreRequest is ScoreRequest
        assert repro.ScoreResult is ScoreResult
        assert repro.BehaviorCardConfig is BehaviorCardConfig


class TestBatchSingleParity:
    def test_stub_parity(self):
        texts = [f"feature={'x' * i}" for i in range(10)]
        single = make_service()
        batched = make_service()
        one_by_one = [single.decide(f"u{i}", t).score for i, t in enumerate(texts)]
        results = batched.score_requests(
            [ScoreRequest(f"u{i}", t) for i, t in enumerate(texts)]
        )
        assert np.allclose([r.score for r in results], one_by_one, atol=1e-12)
        # The batched service used the padded-batch path, not per-request calls.
        assert batched.classifier.batch_calls > 0

    def test_model_parity(self, fitted_zigong, german_examples):
        """Engine micro-batches match ``decide`` one-by-one to 1e-6."""
        texts = [e.prompt[:80] for e in german_examples[:6]]
        config = BehaviorCardConfig(max_batch_size=3)
        single = BehaviorCardService(fitted_zigong.classifier(), config)
        batched = BehaviorCardService(fitted_zigong.classifier(), config)
        one_by_one = [single.decide(f"u{i}", t).score for i, t in enumerate(texts)]
        results = batched.score_requests(
            [ScoreRequest(f"u{i}", t) for i, t in enumerate(texts)]
        )
        assert np.allclose([r.score for r in results], one_by_one, atol=1e-6)
        assert [r.approved for r in results] == [s < 0.5 for s in one_by_one]

    def test_zigong_score_batch_matches_score(self, fitted_zigong, german_examples):
        prompts = [e.prompt for e in german_examples[:4]]
        clf = fitted_zigong.classifier()
        batched = fitted_zigong.score_batch(prompts)
        singles = [clf.score(p, "yes", "no") for p in prompts]
        assert np.allclose(batched, singles, atol=1e-6)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
class TestSharedCore:
    """The admission contract both step policies inherit from the core."""

    def test_queue_full_rejects_then_recovers(self, kind):
        engine = make_engine(kind)  # queue_capacity=8
        pending = [engine.submit(ScoreRequest(f"u{i}", f"t={i}")) for i in range(8)]
        with pytest.raises(QueueFullError):
            engine.submit(ScoreRequest("u9", "t=9"))
        assert engine.stats.rejected == 1
        assert engine.queue_depth == 8
        engine.drain()  # queue drains...
        assert engine.queue_depth == 0
        assert all(p.done for p in pending)
        assert engine.stats.completed == 8
        late = engine.submit(ScoreRequest("u9", "t=9"))  # ...and admission resumes
        engine.drain()
        assert late.result(timeout=0).user_id == "u9"

    def test_serve_overflow_withdraws_admitted(self, kind):
        seen: list[ScoreRequest] = []
        engine = make_engine(kind, seen=seen)  # queue_capacity=8
        with pytest.raises(QueueFullError):
            engine.serve([ScoreRequest(f"u{i}", f"t={i}") for i in range(9)])
        # All-or-nothing: nothing from the failed call stays queued or runs.
        assert engine.queue_depth == 0
        assert engine.stats.submitted == 0
        engine.drain()
        assert seen == []
        assert engine.stats.completed == 0

    def test_empty_text_rejected(self, kind):
        with pytest.raises(ServingError):
            make_engine(kind).submit(ScoreRequest("u1", "   "))

    def test_exact_deadline_is_admitted(self, kind):
        clock = _Clock(now=1000.0, step=0.0)  # frozen clock
        engine = make_engine(kind, clock=clock)
        pending = engine.submit(ScoreRequest("u1", "t=1", deadline=1000.0))
        engine.drain()
        assert pending.result(timeout=0).user_id == "u1"
        assert engine.stats.expired == 0
        assert engine.stats.completed == 1

    def test_expired_request_never_runs(self, kind):
        clock = _Clock()
        seen: list[ScoreRequest] = []
        engine = make_engine(kind, clock=clock, seen=seen)
        stale = engine.submit(ScoreRequest("u1", "t=1", deadline=clock.now + 1))
        live = engine.submit(ScoreRequest("u2", "t=2"))
        clock.now += 100.0  # deadline passes while queued
        engine.drain()
        with pytest.raises(DeadlineExceededError):
            stale.result(timeout=0)
        assert live.result(timeout=0).user_id == "u2"
        assert engine.stats.expired == 1
        assert engine.stats.completed == 1
        # The expired request never reached a batch or a decode row.
        assert seen == [live.request]
        assert stale.stream == ()

    def test_withdraw_all_counts_each_request_once(self, kind):
        engine = make_engine(kind)  # max_batch_size=4
        n = 6 if kind == "continuous" else 3
        pendings = [engine.submit(ScoreRequest(f"u{i}", f"t={i}")) for i in range(n)]
        if kind == "continuous":
            engine.pump()  # four rows now decoding, two still queued
            assert engine.live_rows == 4
        withdrawn = engine.withdraw_all(ReplicaCrashedError("replica torn down"))
        assert withdrawn == n
        assert all(isinstance(p.error, ReplicaCrashedError) for p in pendings)
        metrics = engine.obs.metrics
        assert engine.stats.failed == metrics.counter("serving.failed").value == n
        assert metrics.counter("serving.withdrawn").value == withdrawn


class TestBackpressure:
    def test_serve_waves_bypass_capacity(self):
        service = make_service()
        results = service.score_requests(
            [ScoreRequest(f"u{i}", f"t={i}") for i in range(30)]
        )
        assert len(results) == 30
        assert service.replicas[0].engine.stats.rejected == 0

    def test_max_queue_depth_tracked(self):
        service = make_service()
        for i in range(5):
            service.submit(ScoreRequest(f"u{i}", f"t={i}"))
        service.drain()
        assert service.replicas[0].engine.stats.max_queue_depth == 5


class TestDeadlines:
    def test_future_deadline_scored(self):
        clock = _Clock()
        service = make_service(clock=clock)
        pending = service.submit(
            ScoreRequest("u1", "t=1", deadline=clock.now + 1e6)
        )
        service.drain()
        assert pending.result(timeout=0).score > 0


class TestDegradedMode:
    """There is no degraded mode: a failing model fails its requests."""

    def test_no_fallback_propagates_error(self):
        service = BehaviorCardService(
            _StubClassifier(fail=True),
            BehaviorCardConfig(max_batch_size=4, queue_capacity=8),
            clock=_Clock(),
        )
        pending = service.submit(ScoreRequest("u1", "t=1"))
        service.drain()
        with pytest.raises(RuntimeError):
            pending.result(timeout=0)
        assert service.replicas[0].engine.stats.failed == 1
        assert service.audit_log() == []  # no decision, no record


class TestUnifiedAPI:
    def test_score_requests_returns_score_results(self):
        service = make_service()
        results = service.score_requests(
            [ScoreRequest("u1", "a=1"), ScoreRequest("u2", "b=2")]
        )
        assert all(isinstance(r, ScoreResult) for r in results)
        assert results[0].batch_size == 2

    def test_empty_batch(self):
        assert make_service().score_requests([]) == []

    def test_result_metadata(self):
        service = make_service()
        results = service.score_requests(
            [ScoreRequest(f"u{i}", f"t={i}") for i in range(4)]
        )
        assert all(r.batch_size == 4 for r in results)
        assert all(r.latency_s >= 0 for r in results)
        assert service.replicas[0].engine.stats.mean_batch_size == 4.0


class TestDeterministicClock:
    def test_audit_timestamps_from_injected_clock(self):
        clock = _Clock(now=0.0)
        service = make_service(clock=clock)
        service.score_requests([ScoreRequest("u1", "a=1"), ScoreRequest("u2", "b=2")])
        stamps = [entry["ts"] for entry in service.audit_log()]
        # Every tick comes from the injected clock — no wall-clock reads.
        assert all(float(s).is_integer() for s in stamps)
        assert stamps == sorted(stamps)
        assert stamps[0] > 0.0


class TestThreadedWorker:
    def test_background_worker_scores_submissions(self):
        calls = []

        def batch_fn(requests):
            calls.append(len(requests))
            return [
                ScoreResult(
                    user_id=r.user_id,
                    score=0.1,
                    approved=True,
                    threshold=0.5,
                )
                for r in requests
            ]

        engine = MicroBatchEngine(
            batch_fn, EngineConfig(max_batch_size=4, max_wait_s=0.01, queue_capacity=64)
        )
        with engine:
            pending = [engine.submit(ScoreRequest(f"u{i}", f"t={i}")) for i in range(12)]
            results = [p.result(timeout=5.0) for p in pending]
        assert [r.user_id for r in results] == [f"u{i}" for i in range(12)]
        assert engine.stats.completed == 12
        assert max(calls) <= 4

    def test_stop_drains_remaining(self):
        engine = MicroBatchEngine(
            lambda reqs: [
                ScoreResult(r.user_id, 0.1, True, 0.5) for r in reqs
            ],
            EngineConfig(max_batch_size=2, queue_capacity=16),
        )
        pending = engine.submit(ScoreRequest("u1", "t=1"))
        engine.stop(drain=True)  # never started; drain still scores the queue
        assert pending.result(timeout=0).user_id == "u1"


class TestMonitoringIntegration:
    def test_observe_many_matches_observe(self):
        reference = np.linspace(0, 1, 50)
        a = DriftMonitor(reference, window=100)
        b = DriftMonitor(reference, window=100)
        scores = np.random.default_rng(0).uniform(size=20)
        for s in scores:
            a.observe(s)
        b.observe_many(scores)
        assert a.n_observed == b.n_observed
        assert a.psi() == pytest.approx(b.psi())


class TestPaddedClassifierPath:
    def test_pad_sequences_rejects_empty(self):
        from repro.errors import ShapeError
        from repro.nn.classifier import pad_sequences

        with pytest.raises(ShapeError):
            pad_sequences([])
        with pytest.raises(ShapeError):
            pad_sequences([[1], []])


class TestEngineEdgeCases:
    def test_zero_deadline_expires_without_scoring(self):
        clock = _Clock()
        service = make_service(clock=clock)
        classifier = service.classifier
        pending = service.submit(
            ScoreRequest("u1", "t=1", deadline=0.0)  # already in the past
        )
        service.drain()
        with pytest.raises(DeadlineExceededError):
            pending.result(timeout=0)
        assert service.replicas[0].engine.stats.expired == 1
        assert classifier.calls == 0  # never reached the model

    def test_pump_empty_queue_is_noop(self):
        service = make_service()
        assert service.pump() == 0
        service.drain()  # idempotent on empty queue
        assert service.replicas[0].engine.stats.submitted == 0
        assert service.replicas[0].engine.stats.completed == 0

    def test_serve_empty_list(self):
        assert make_service().serve([]) == []

    def test_burst_load_no_lost_or_double_scored(self):
        """Concurrent submitters against the threaded worker: every request
        answered exactly once."""
        import threading

        scored = []
        lock = threading.Lock()

        def batch_fn(requests):
            with lock:
                scored.extend(r.user_id for r in requests)
            return [ScoreResult(r.user_id, 0.1, True, 0.5) for r in requests]

        engine = MicroBatchEngine(
            batch_fn,
            EngineConfig(max_batch_size=4, max_wait_s=0.005, queue_capacity=256),
        )
        n_threads, per_thread = 4, 16
        pending: list = [None] * (n_threads * per_thread)

        def submitter(thread_index):
            for i in range(per_thread):
                slot = thread_index * per_thread + i
                pending[slot] = engine.submit(
                    ScoreRequest(f"u{slot}", f"t={slot}")
                )

        with engine:
            threads = [
                threading.Thread(target=submitter, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [p.result(timeout=10.0) for p in pending]

        expected = {f"u{i}" for i in range(n_threads * per_thread)}
        assert {r.user_id for r in results} == expected  # none lost
        assert sorted(scored) == sorted(expected)  # none double-scored
        assert engine.stats.completed == len(expected)
        assert engine.stats.failed == 0

    def test_failed_batch_counter_without_fallback(self):
        from repro.obs import Observability

        obs = Observability.create()
        service = BehaviorCardService(
            _StubClassifier(fail=True),
            BehaviorCardConfig(max_batch_size=4, queue_capacity=8),
            clock=_Clock(),
            obs=obs,
        )
        pending = service.submit(ScoreRequest("u1", "t=1"))
        service.drain()
        with pytest.raises(RuntimeError):
            pending.result(timeout=0)
        assert obs.metrics.counter("serving.failed").value == 1


def _ok_batch_fn(requests):
    return [ScoreResult(r.user_id, 0.1, True, 0.5) for r in requests]


class TestExpiryCallbackReentrancy:
    """Regression: expiry finalization must not run under the queue lock.

    The cluster supervisor's redispatch hook re-enters ``submit()`` from
    a done-callback.  ``_take_batch`` used to reject expired requests
    while still holding ``self._lock``; the re-entrant ``submit`` then
    blocked on the same (non-reentrant) lock forever.  The drain runs on
    a side thread with a join timeout so a reintroduced deadlock fails
    the test instead of hanging the suite.
    """

    def test_expiry_callback_can_resubmit(self):
        import threading

        clock = _Clock()
        engine = MicroBatchEngine(
            _ok_batch_fn,
            EngineConfig(max_batch_size=4, queue_capacity=8),
            clock=clock,
        )
        stale = engine.submit(ScoreRequest("u1", "t=1", deadline=clock.now + 1))
        resubmitted: list = []

        def redispatch(pending):
            if pending.error is not None:
                # Same shape as ClusterSupervisor._redispatch: re-enter
                # submit() on the finalizing (drain) thread.
                resubmitted.append(engine.submit(ScoreRequest("u1-retry", "t=1")))

        stale.add_done_callback(redispatch)
        clock.now += 100.0  # expires in queue

        drainer = threading.Thread(target=engine.drain)
        drainer.start()
        drainer.join(timeout=10.0)
        assert not drainer.is_alive(), "expiry finalization deadlocked _take_batch"
        with pytest.raises(DeadlineExceededError):
            stale.result(timeout=0)
        assert len(resubmitted) == 1
        engine.drain()  # the re-submission landed after the first drain
        assert resubmitted[0].result(timeout=0).user_id == "u1-retry"


class TestExactDeadlineBoundary:
    """A request admitted at its exact deadline always gets one attempt."""

    def test_just_past_deadline_expires(self):
        clock = _Clock(now=1000.0, step=0.0)
        engine = MicroBatchEngine(
            _ok_batch_fn,
            EngineConfig(max_batch_size=4, queue_capacity=8),
            clock=clock,
        )
        pending = engine.submit(ScoreRequest("u1", "t=1", deadline=999.9))
        engine.drain()
        with pytest.raises(DeadlineExceededError):
            pending.result(timeout=0)
        assert engine.stats.expired == 1

    def test_exact_deadline_gets_one_attempt(self):
        """Admitted at its exact deadline, a request is scored exactly once."""
        clock = _Clock(now=1000.0, step=0.0)
        attempts = []

        def failing(requests):
            attempts.append(len(requests))
            raise RuntimeError("model path down")

        engine = MicroBatchEngine(
            failing, EngineConfig(max_batch_size=4, queue_capacity=8), clock=clock
        )
        pending = engine.submit(ScoreRequest("u1", "t=1", deadline=1000.0))
        engine.drain()
        with pytest.raises(RuntimeError):
            pending.result(timeout=0)
        assert attempts == [1]  # one attempt, and its error reaches the caller
        assert engine.stats.expired == 0  # admitted, not silently dropped
        assert engine.stats.failed == 1


class TestPendingResultStreaming:
    """Token streaming on PendingResult (populated by ContinuousEngine)."""

    def _pending(self):
        from repro.serving import PendingResult

        return PendingResult(ScoreRequest("u1", "t=1"))

    def test_stream_accumulates_in_order(self):
        pending = self._pending()
        seen = []
        pending.add_token_callback(lambda p, t: seen.append(t))
        for token in (3, 1, 4):
            pending._emit_token(token)
        assert pending.stream == (3, 1, 4)
        assert seen == [3, 1, 4]

    def test_emit_after_finalize_raises(self):
        pending = self._pending()
        pending._emit_token(3)
        pending._resolve(ScoreResult("u1", 0.1, True, 0.5))
        with pytest.raises(ServingError):
            pending._emit_token(4)
        assert pending.stream == (3,)  # prefix preserved

