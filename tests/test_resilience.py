"""Resilience layer: retry, circuit breaker, fault injection, chaos.

This module is the chaos suite: it is run standalone by the CI
``chaos-smoke`` job, so it must stay self-contained (its own fixtures,
no reliance on other test modules' side effects).
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    InjectedFault,
    ResilienceError,
    ServingError,
    ServingTimeout,
)
from repro.nn import MistralTiny, ModelConfig
from repro.obs import Observability
from repro.optim import SGD, AdamW
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjector,
    RetryPolicy,
    fault_point,
    installed,
)
from repro.serving import EngineConfig, MicroBatchEngine, ScoreRequest, ScoreResult
from repro.training import CheckpointManager, Trainer, TrainingConfig

from conftest import ENGINE_KINDS, make_engine

TINY = ModelConfig(
    vocab_size=64,
    d_model=32,
    n_layers=2,
    n_heads=4,
    n_kv_heads=2,
    d_ff=64,
    max_seq_len=32,
    sliding_window=16,
)


class Clock:
    """Hand-advanced clock usable for engines, policies and breakers."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class SleepRecorder:
    """A fake ``sleep`` that records delays (and can advance a clock)."""

    def __init__(self, clock: Clock | None = None):
        self.calls: list[float] = []
        self.clock = clock

    def __call__(self, delay: float) -> None:
        self.calls.append(delay)
        if self.clock is not None:
            self.clock.advance(delay)


def random_examples(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return [(list(rng.integers(5, 60, size=8)),) * 2 for _ in range(n)]


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_first_try_success_never_sleeps(self):
        sleep = SleepRecorder()
        policy = RetryPolicy(sleep=sleep, obs=Observability.disabled())
        assert policy.call(lambda: 42) == 42
        assert sleep.calls == []

    def test_transient_fault_retried_to_success(self):
        sleep = SleepRecorder()
        policy = RetryPolicy(max_attempts=3, sleep=sleep, obs=Observability.disabled())
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(attempts) == 3
        assert len(sleep.calls) == 2

    def test_gives_up_and_reraises_last_error(self):
        policy = RetryPolicy(
            max_attempts=2, sleep=SleepRecorder(), obs=Observability.disabled()
        )
        with pytest.raises(ValueError, match="always"):
            policy.call(lambda: (_ for _ in ()).throw(ValueError("always")))

    def test_retry_on_filters_exception_types(self):
        policy = RetryPolicy(
            max_attempts=3, sleep=SleepRecorder(), obs=Observability.disabled()
        )
        calls = []

        def wrong_type():
            calls.append(1)
            raise KeyError("not retriable")

        with pytest.raises(KeyError):
            policy.call(wrong_type, retry_on=(ValueError,))
        assert len(calls) == 1  # no retries for non-matching errors

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1,
            multiplier=2.0,
            max_delay_s=0.3,
            jitter=0.0,
            obs=Observability.disabled(),
        )
        assert [policy.delay_for(i) for i in range(4)] == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=7, obs=Observability.disabled())
        b = RetryPolicy(seed=7, obs=Observability.disabled())
        c = RetryPolicy(seed=8, obs=Observability.disabled())
        seq_a = [a.delay_for(i) for i in range(5)]
        seq_b = [b.delay_for(i) for i in range(5)]
        seq_c = [c.delay_for(i) for i in range(5)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_reset_rewinds_jitter(self):
        policy = RetryPolicy(seed=3, obs=Observability.disabled())
        first = [policy.delay_for(i) for i in range(3)]
        policy.reset()
        assert [policy.delay_for(i) for i in range(3)] == first

    def test_budget_prevents_overrunning_deadline(self):
        clock = Clock()
        sleep = SleepRecorder(clock)
        policy = RetryPolicy(
            max_attempts=5,
            base_delay_s=1.0,
            jitter=0.0,
            sleep=sleep,
            clock=clock,
            obs=Observability.disabled(),
        )
        calls = []

        def failing():
            calls.append(1)
            raise RuntimeError("down")

        with pytest.raises(RuntimeError):
            policy.call(failing, budget_s=0.5)  # first backoff (1s) would overrun
        assert len(calls) == 1
        assert sleep.calls == []

    def test_counters(self):
        obs = Observability.create()
        policy = RetryPolicy(max_attempts=3, sleep=SleepRecorder(), obs=obs)
        with pytest.raises(RuntimeError):
            policy.call(lambda: (_ for _ in ()).throw(RuntimeError("x")))
        counters = obs.metrics.snapshot()["counters"]
        assert counters["resilience.retry.attempts"] == 3
        assert counters["resilience.retry.retries"] == 2
        assert counters["resilience.retry.giveups"] == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"base_delay_s": 1.0, "max_delay_s": 0.5},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ResilienceError):
            RetryPolicy(obs=Observability.disabled(), **kwargs)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------


def make_breaker(clock, obs=None, **kwargs):
    defaults = dict(
        failure_threshold=0.5,
        window=8,
        min_calls=4,
        reset_timeout_s=10.0,
        clock=clock,
        obs=obs or Observability.disabled(),
    )
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestCircuitBreaker:
    def test_stays_closed_below_min_calls(self):
        breaker = make_breaker(Clock())
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_at_failure_rate(self):
        breaker = make_breaker(Clock())
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()  # 2/4 failures >= 0.5
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_open_after_timeout_admits_one_probe(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe in flight

    def test_probe_success_closes_and_clears_window(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(11)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.failure_rate == 0.0

    def test_probe_failure_reopens_and_restarts_timeout(self):
        clock = Clock()
        breaker = make_breaker(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(11)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9)
        assert breaker.state == OPEN  # timeout restarted at reopen
        clock.advance(2)
        assert breaker.state == HALF_OPEN

    def test_call_wrapper_raises_circuit_open(self):
        clock = Clock()
        breaker = make_breaker(clock, min_calls=2, window=4)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(lambda: (_ for _ in ()).throw(RuntimeError("down")))
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_transition_counters(self):
        clock = Clock()
        obs = Observability.create()
        breaker = make_breaker(clock, obs=obs)
        for _ in range(4):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(11)
        assert breaker.allow()
        breaker.record_success()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["resilience.breaker.open"] == 1
        assert counters["resilience.breaker.half_open"] == 1
        assert counters["resilience.breaker.closed"] == 1
        assert counters["resilience.breaker.rejected"] >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
            {"window": 0},
            {"min_calls": 0},
            {"min_calls": 20, "window": 10},
            {"reset_timeout_s": -1},
            {"half_open_max_calls": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ResilienceError):
            make_breaker(Clock(), **kwargs)


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_uninstalled_fault_point_is_noop(self):
        assert installed() is None
        fault_point("anything.at.all", step=1)  # must not raise

    def test_fail_nth(self):
        injector = FaultInjector().fail_nth("p", 2)
        with injector.active():
            fault_point("p")
            with pytest.raises(InjectedFault):
                fault_point("p")
            fault_point("p")  # 3rd hit passes
        assert injector.hits["p"] == 3
        assert injector.injected["p"] == 1

    def test_fail_times_models_transient_fault(self):
        injector = FaultInjector().fail_times("p", 2)
        with injector.active():
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    fault_point("p")
            fault_point("p")  # healed

    def test_fail_when_matches_context(self):
        injector = FaultInjector().fail_when("ckpt", step=4)
        with injector.active():
            fault_point("ckpt", step=2)
            with pytest.raises(InjectedFault):
                fault_point("ckpt", step=4)

    def test_fail_rate_deterministic_per_seed(self):
        def pattern(seed):
            injector = FaultInjector(seed=seed).fail_rate("p", 0.5)
            fired = []
            with injector.active():
                for _ in range(32):
                    try:
                        fault_point("p")
                        fired.append(False)
                    except InjectedFault:
                        fired.append(True)
            return fired

        assert pattern(1) == pattern(1)
        assert pattern(1) != pattern(2)

    def test_custom_exception_factory(self):
        injector = FaultInjector().fail_nth("p", 1, exc=lambda msg: OSError(msg))
        with injector.active():
            with pytest.raises(OSError):
                fault_point("p")

    def test_active_restores_previous_injector(self):
        outer = FaultInjector().install()
        try:
            inner = FaultInjector()
            with inner.active():
                assert installed() is inner
            assert installed() is outer
        finally:
            outer.uninstall()
        assert installed() is None

    def test_invalid_schedules(self):
        injector = FaultInjector()
        with pytest.raises(ResilienceError):
            injector.fail_nth("p", 0)
        with pytest.raises(ResilienceError):
            injector.fail_times("p", 0)
        with pytest.raises(ResilienceError):
            injector.fail_rate("p", 1.5)
        with pytest.raises(ResilienceError):
            injector.fail_when("p")


# ----------------------------------------------------------------------
# Serving engine integration
# ----------------------------------------------------------------------


class ScriptedScorer:
    """Fails the first ``fail_first`` batches, then serves cleanly."""

    def __init__(self, fail_first: int = 0):
        self.fail_first = fail_first
        self.calls = 0

    def __call__(self, requests):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RuntimeError("scorer down")
        return [
            ScoreResult(r.user_id, 0.2, True, 0.5, cached=False) for r in requests
        ]


def fallback_fn(requests):
    return [
        ScoreResult(r.user_id, 0.9, False, 0.5, cached=False) for r in requests
    ]


class TestEngineRetry:
    def test_transient_fault_retried_within_deadline(self):
        clock = Clock()
        sleep = SleepRecorder(clock)
        obs = Observability.create()
        scorer = ScriptedScorer(fail_first=2)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, jitter=0.0,
            sleep=sleep, clock=clock, obs=obs,
        )
        engine = MicroBatchEngine(
            scorer, EngineConfig(max_batch_size=4),
            fallback_fn=fallback_fn, clock=clock, retry_policy=policy, obs=obs,
        )
        results = engine.serve(
            [ScoreRequest("u1", "pays on time", deadline=clock.now + 5.0)]
        )
        assert results[0].degraded is False  # primary answered after retries
        assert scorer.calls == 3
        counters = obs.metrics.snapshot()["counters"]
        assert counters["resilience.retry.attempts"] == 3
        assert counters["resilience.retry.retries"] == 2

    def test_no_budget_to_retry_falls_back(self):
        clock = Clock()
        sleep = SleepRecorder(clock)
        obs = Observability.disabled()
        scorer = ScriptedScorer(fail_first=10)
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=1.0, jitter=0.0,
            sleep=sleep, clock=clock, obs=obs,
        )
        engine = MicroBatchEngine(
            scorer, EngineConfig(),
            fallback_fn=fallback_fn, clock=clock, retry_policy=policy, obs=obs,
        )
        # Deadline leaves no room for a 1s backoff: one attempt, then fallback.
        results = engine.serve(
            [ScoreRequest("u1", "pays on time", deadline=clock.now + 0.5)]
        )
        assert results[0].degraded is True
        assert scorer.calls == 1


class TestEngineBreaker:
    def make_engine(self, scorer, clock, obs, retry=None):
        breaker = CircuitBreaker(
            failure_threshold=0.5, window=4, min_calls=2,
            reset_timeout_s=10.0, clock=clock, obs=obs,
        )
        engine = MicroBatchEngine(
            scorer, EngineConfig(max_batch_size=2),
            fallback_fn=fallback_fn, clock=clock,
            retry_policy=retry, breaker=breaker, obs=obs,
        )
        return engine, breaker

    def test_trip_routes_to_fallback_without_primary_calls(self):
        clock = Clock()
        obs = Observability.create()
        scorer = ScriptedScorer(fail_first=1000)
        engine, breaker = self.make_engine(scorer, clock, obs)

        # Two failing batches trip the breaker; every request is still
        # answered (degraded), never an unhandled exception.
        for i in range(2):
            result = engine.serve([ScoreRequest(f"u{i}", "text")])[0]
            assert result.degraded is True
        assert breaker.state == OPEN
        calls_when_tripped = scorer.calls

        result = engine.serve([ScoreRequest("u9", "text")])[0]
        assert result.degraded is True
        assert scorer.calls == calls_when_tripped  # primary path bypassed
        counters = obs.metrics.snapshot()["counters"]
        assert counters["resilience.breaker.open"] >= 1
        assert counters["resilience.breaker.rejected"] >= 1

    def test_half_open_probe_recovers(self):
        clock = Clock()
        obs = Observability.create()
        scorer = ScriptedScorer(fail_first=2)
        engine, breaker = self.make_engine(scorer, clock, obs)

        for i in range(2):
            engine.serve([ScoreRequest(f"u{i}", "text")])
        assert breaker.state == OPEN

        # Scorer heals; once the reset timeout elapses the next batch is
        # the half-open probe and closes the breaker.
        clock.advance(11.0)
        result = engine.serve([ScoreRequest("u3", "text")])[0]
        assert result.degraded is False
        assert breaker.state == CLOSED
        counters = obs.metrics.snapshot()["counters"]
        assert counters["resilience.breaker.half_open"] == 1
        assert counters["resilience.breaker.closed"] == 1

    def test_report_shows_resilience_counters(self, tmp_path):
        """The `repro obs report` path surfaces resilience counters."""
        from repro.obs import read_events, render_registry, render_report

        clock = Clock()
        run_path = tmp_path / "run.jsonl"
        obs = Observability.create(events_path=run_path)
        scorer = ScriptedScorer(fail_first=1000)
        policy = RetryPolicy(
            max_attempts=2, sleep=SleepRecorder(clock), clock=clock, obs=obs
        )
        engine, _ = self.make_engine(scorer, clock, obs, retry=policy)
        for i in range(3):
            engine.serve([ScoreRequest(f"u{i}", "text")])
        registry = render_registry(obs.metrics)
        assert "resilience.breaker.open" in registry
        assert "resilience.retry.attempts" in registry
        obs.events.emit_metrics(obs.metrics)
        obs.events.close()
        report = render_report(read_events(run_path))
        assert "resilience.breaker.open" in report
        assert "resilience.retry.attempts" in report


class TestServingTimeout:
    def test_timeout_is_distinct_and_request_stays_queued(self):
        engine = MicroBatchEngine(
            ScriptedScorer(), EngineConfig(), obs=Observability.disabled()
        )
        pending = engine.submit(ScoreRequest("u1", "text"))
        with pytest.raises(ServingTimeout):
            pending.result(timeout=0)
        assert isinstance(ServingTimeout("x"), ServingError)
        assert engine.queue_depth == 1  # still in flight, not failed
        engine.pump()
        assert pending.result(timeout=0).user_id == "u1"


class TestIdleWorker:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_idle_engine_does_no_periodic_wakeups(self, kind):
        engine = make_engine(
            kind, EngineConfig(max_wait_s=0.005), obs=Observability.disabled()
        )
        engine.start()
        time.sleep(0.25)  # old loop would have woken ~5 times by now
        assert engine.idle_wakeups == 0
        engine.stop()
        assert engine.idle_wakeups == 0

    def test_threaded_submit_still_served(self):
        engine = MicroBatchEngine(
            ScriptedScorer(), EngineConfig(max_batch_size=4, max_wait_s=0.01),
            obs=Observability.disabled(),
        )
        with engine:
            pending = [
                engine.submit(ScoreRequest(f"u{i}", "text")) for i in range(8)
            ]
            results = [p.result(timeout=5.0) for p in pending]
        assert [r.user_id for r in results] == [f"u{i}" for i in range(8)]
        assert engine.idle_wakeups == 0


# ----------------------------------------------------------------------
# Chaos: kill-and-resume training parity
# ----------------------------------------------------------------------


def run_training(tmp_path, name, config, crash_after_step=None, opt_factory=None):
    """One training run; returns (model, trainer, manager)."""
    opt_factory = opt_factory or (lambda params: AdamW(params, lr=3e-3))
    model = MistralTiny(TINY, rng=0)
    manager = CheckpointManager(tmp_path / name)
    trainer = Trainer(
        model, opt_factory(model.parameters()),
        config=config, checkpoint_manager=manager,
    )
    if crash_after_step is None:
        trainer.train(random_examples())
        return model, trainer, manager
    injector = FaultInjector().fail_when(
        "training.checkpoint_saved", step=crash_after_step
    )
    with injector.active():
        with pytest.raises(InjectedFault):
            trainer.train(random_examples())
    return model, trainer, manager


class TestKillAndResume:
    CONFIG = TrainingConfig(epochs=3, batch_size=4, checkpoint_every=2, seed=7)

    @pytest.mark.parametrize("crash_after", [2, 4, 8])
    def test_resumed_run_is_bit_identical(self, tmp_path, crash_after):
        ref_model, ref_trainer, _ = run_training(tmp_path, "ref", self.CONFIG)
        reference = ref_model.state_dict()

        _, _, manager = run_training(
            tmp_path, f"crash{crash_after}", self.CONFIG,
            crash_after_step=crash_after,
        )
        assert manager.latest().step == crash_after

        # Fresh process stand-in: new model (different init!), optimizer
        # and trainer; resume() must restore everything that matters.
        model = MistralTiny(TINY, rng=999)
        trainer = Trainer(
            model, AdamW(model.parameters(), lr=3e-3),
            config=self.CONFIG, checkpoint_manager=manager,
        )
        assert trainer.resume() == crash_after
        trainer.train(random_examples())

        assert trainer.global_step == ref_trainer.global_step
        resumed = model.state_dict()
        for key in reference:
            assert np.array_equal(reference[key], resumed[key]), key

    def test_parity_with_grad_accumulation(self, tmp_path):
        config = TrainingConfig(
            epochs=2, batch_size=4, grad_accum_steps=2, checkpoint_every=3, seed=3
        )
        ref_model, _, _ = run_training(tmp_path, "ref", config)
        _, _, manager = run_training(
            tmp_path, "crash", config, crash_after_step=3
        )
        model = MistralTiny(TINY, rng=42)
        trainer = Trainer(
            model, AdamW(model.parameters(), lr=3e-3),
            config=config, checkpoint_manager=manager,
        )
        trainer.resume()
        trainer.train(random_examples())
        reference = ref_model.state_dict()
        resumed = model.state_dict()
        for key in reference:
            assert np.array_equal(reference[key], resumed[key]), key

    def test_parity_with_sgd_momentum(self, tmp_path):
        opt = lambda params: SGD(params, lr=1e-2, momentum=0.9)
        ref_model, _, _ = run_training(tmp_path, "ref", self.CONFIG, opt_factory=opt)
        _, _, manager = run_training(
            tmp_path, "crash", self.CONFIG, crash_after_step=4, opt_factory=opt
        )
        model = MistralTiny(TINY, rng=11)
        trainer = Trainer(
            model, SGD(model.parameters(), lr=1e-2, momentum=0.9),
            config=self.CONFIG, checkpoint_manager=manager,
        )
        trainer.resume()
        trainer.train(random_examples())
        reference = ref_model.state_dict()
        resumed = model.state_dict()
        for key in reference:
            assert np.array_equal(reference[key], resumed[key]), key

    def test_resume_restores_optimizer_moments(self, tmp_path):
        _, crashed_trainer, manager = run_training(
            tmp_path, "crash", self.CONFIG, crash_after_step=4
        )
        model = MistralTiny(TINY, rng=1)
        optimizer = AdamW(model.parameters(), lr=3e-3)
        trainer = Trainer(
            model, optimizer, config=self.CONFIG, checkpoint_manager=manager
        )
        trainer.resume()
        saved = CheckpointManager.load_optimizer_state(manager.latest())
        assert saved is not None
        restored = optimizer.state_dict()
        assert int(restored["step_count"]) == 4
        for key, value in saved.items():
            assert np.array_equal(np.asarray(value), np.asarray(restored[key])), key

    def test_param_only_checkpoints_still_resume(self, tmp_path):
        """Pre-resilience checkpoints (no moments, no metadata) load fine."""
        model = MistralTiny(TINY, rng=0)
        manager = CheckpointManager(tmp_path)
        manager.save(model, step=6, lr=0.01)
        fresh = MistralTiny(TINY, rng=5)
        trainer = Trainer(
            fresh, AdamW(fresh.parameters(), lr=3e-3),
            config=self.CONFIG, checkpoint_manager=manager,
        )
        assert trainer.resume() == 6
        assert trainer._resume_state is None
        for name, param in fresh.named_parameters():
            assert np.array_equal(param.data, dict(model.named_parameters())[name].data)


class TestCheckpointMetadata:
    def test_extra_round_trips_through_listing(self, tmp_path):
        model = MistralTiny(TINY, rng=0)
        manager = CheckpointManager(tmp_path)
        manager.save(model, step=2, lr=0.1, extra={"epoch": 3, "note": "mid-run"})
        record = manager.checkpoints()[-1]
        assert record.extra["epoch"] == 3
        assert record.extra["note"] == "mid-run"
        assert record.step == 2 and record.lr == 0.1

    def test_prune_removes_optimizer_state_too(self, tmp_path):
        model = MistralTiny(TINY, rng=0)
        opt = AdamW(model.parameters(), lr=1e-3)
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(model, step=1, lr=0.1, optimizer=opt)
        manager.save(model, step=2, lr=0.1, optimizer=opt)
        records = manager.checkpoints()
        assert [r.step for r in records] == [2]
        assert not (tmp_path / "step-000001.opt.npz").exists()
        assert records[0].has_optimizer_state

    def test_opt_npz_not_listed_as_checkpoint(self, tmp_path):
        model = MistralTiny(TINY, rng=0)
        opt = AdamW(model.parameters(), lr=1e-3)
        manager = CheckpointManager(tmp_path)
        manager.save(model, step=1, lr=0.1, optimizer=opt)
        records = manager.checkpoints()
        assert [r.step for r in records] == [1]
        assert records[0].opt_path.exists()


# ----------------------------------------------------------------------
# Influence engine: crashed-worker requeue
# ----------------------------------------------------------------------


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="requires fork start method",
)


@needs_fork
class TestInfluenceRequeue:
    def build(self, tmp_path):
        model = MistralTiny(TINY, rng=0)
        manager = CheckpointManager(tmp_path)
        trainer = Trainer(
            model, SGD(model.parameters(), lr=1e-2),
            config=TrainingConfig(epochs=1, batch_size=4, checkpoint_every=2, seed=0),
            checkpoint_manager=manager,
        )
        trainer.train(random_examples(n=8))
        return model, manager.checkpoints()

    def test_crashed_worker_chunk_requeued(self, tmp_path):
        from repro.influence.engine import ParallelInfluenceEngine
        from repro.influence.store import GradientStore

        model, checkpoints = self.build(tmp_path)
        train = random_examples(n=4, seed=1)
        test = random_examples(n=2, seed=2)
        weights = [0.01] * len(checkpoints)

        serial = ParallelInfluenceEngine(
            model, checkpoints, workers=0,
            store=GradientStore(obs=Observability.disabled()),
            obs=Observability.disabled(),
        )
        expected = serial.influence_matrix(train, test, weights)

        obs = Observability.create()
        crash_step = checkpoints[1].step
        injector = FaultInjector().fail_when("influence.worker", step=crash_step)
        engine = ParallelInfluenceEngine(
            model, checkpoints, workers=2,
            store=GradientStore(obs=obs),
            retry_policy=RetryPolicy(
                max_attempts=2, sleep=SleepRecorder(), obs=obs
            ),
            obs=obs,
        )
        with injector.active():
            actual = engine.influence_matrix(train, test, weights)

        np.testing.assert_allclose(actual, expected, atol=1e-10)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["influence.worker_requeued"] >= 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCLIResume:
    def test_train_parser_accepts_resume(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["train", "--data", "d.jsonl", "--out", "m/",
             "--checkpoint-dir", "ckpts", "--resume"]
        )
        assert args.resume is True

    def test_resume_requires_checkpoint_dir(self, tmp_path, capsys):
        from repro.cli import main
        from repro.data import save_jsonl
        from repro.data.instruct import InstructExample

        data = tmp_path / "d.jsonl"
        save_jsonl(
            [InstructExample("will they repay?", "yes", 1),
             InstructExample("will they repay?", "no", 0)],
            data,
        )
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "m"), "--resume"])
        assert code == 2
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_resume_of_finished_run_is_a_clean_noop(self, tmp_path, capsys):
        """Regression: resuming a run whose checkpoints already cover every
        step crashed on ``history.losses[0]`` (empty history)."""
        from repro.cli import main
        from repro.data import save_jsonl
        from repro.data.instruct import InstructExample

        data = tmp_path / "d.jsonl"
        save_jsonl(
            [InstructExample("will they repay?", "yes", 1),
             InstructExample("will they repay?", "no", 0)],
            data,
        )
        common = [
            "train", "--data", str(data), "--epochs", "2",
            "--checkpoint-dir", str(tmp_path / "ck"),
        ]
        assert main(common + ["--out", str(tmp_path / "m1")]) == 0
        capsys.readouterr()
        assert main(common + ["--out", str(tmp_path / "m2"), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "nothing to train" in out
        assert (tmp_path / "m2").exists()
