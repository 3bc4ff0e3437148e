"""Resilience layer: circuit breaker, fault injection, chaos.

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
    CheckpointError,
    InjectedFault,
    QueueFullError,
    ResilienceError,
    ServingError,
    ServingTimeout,
)
from repro.nn import MistralTiny, ModelConfig
from repro.obs import Observability
from repro.optim import AdamW
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultInjector,
    fault_point,
)
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    EngineConfig,
    MicroBatchEngine,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
)
from repro.serving.cluster import BREAKER_RESET_TIMEOUT_S
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
    """Hand-advanced clock usable for engines and breakers."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def random_examples(n=16, seed=0):
    rng = np.random.default_rng(seed)
    return [(list(rng.integers(5, 60, size=8)),) * 2 for _ in range(n)]


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
        breaker.record_failure()  # with the old failures kept, 5/5 would reopen
        assert breaker.state == CLOSED

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
        outer = FaultInjector().fail_rate("p", 1.0).install()
        try:
            with FaultInjector().active():
                fault_point("p")  # the inner injector leaves "p" unarmed
            with pytest.raises(InjectedFault):
                fault_point("p")
        finally:
            outer.uninstall()
        fault_point("p")

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
        return [ScoreResult(r.user_id, 0.2, True, 0.5) for r in requests]


def serve_one(server, user_id: str):
    """Submit one request and drain; returns its finalized PendingResult."""
    pending = server.submit(ScoreRequest(user_id, "text"))
    server.drain()
    return pending


class TestEngineBreaker:
    """The breaker the cluster supervisor keeps in front of a replica's engine."""

    def make_cluster(self, scorer, clock, obs):
        """One thread replica scoring through ``scorer``; breaker on ``clock``."""
        cluster = ClusterSupervisor(
            lambda replica_id: ReplicaApp(batch_fn=scorer),
            ClusterConfig(replicas=1, max_batch_size=2),
            breaker_clock=clock,
            obs=obs,
        )
        return cluster, cluster.replicas[0].breaker

    def test_trip_fails_fast_without_primary_calls(self):
        clock = Clock()
        obs = Observability.create()
        scorer = ScriptedScorer(fail_first=1000)
        cluster, breaker = self.make_cluster(scorer, clock, obs)

        # Two failing batches trip the breaker; each request fails with
        # the scorer's error, never an unhandled exception.
        for i in range(2):
            assert isinstance(serve_one(cluster, f"u{i}").error, RuntimeError)
        assert breaker.state == OPEN
        calls_when_tripped = scorer.calls

        with pytest.raises(QueueFullError):  # no replica admits it
            cluster.submit(ScoreRequest("u9", "text"))
        assert scorer.calls == calls_when_tripped  # scorer bypassed
        counters = obs.metrics.snapshot()["counters"]
        assert counters["resilience.breaker.open"] >= 1
        assert counters["resilience.breaker.rejected"] >= 1

    def test_half_open_probe_recovers(self):
        clock = Clock()
        obs = Observability.create()
        scorer = ScriptedScorer(fail_first=2)
        cluster, breaker = self.make_cluster(scorer, clock, obs)

        for i in range(2):
            serve_one(cluster, f"u{i}")
        assert breaker.state == OPEN

        # Scorer heals; once the reset timeout elapses the next request is
        # the half-open probe and closes the breaker.
        clock.advance(BREAKER_RESET_TIMEOUT_S)
        result = cluster.serve([ScoreRequest("u3", "text")])[0]
        assert result.score == 0.2
        assert breaker.state == CLOSED
        counters = obs.metrics.snapshot()["counters"]
        assert counters["resilience.breaker.half_open"] == 1
        assert counters["resilience.breaker.closed"] == 1

    def test_report_shows_resilience_counters(self, tmp_path):
        """The `repro obs report` path surfaces resilience counters."""
        from repro.obs import read_events, render_registry, render_report

        run_path = tmp_path / "run.jsonl"
        obs = Observability.create(events_path=run_path)
        cluster, _ = self.make_cluster(ScriptedScorer(fail_first=1000), Clock(), obs)
        for i in range(2):
            serve_one(cluster, f"u{i}")
        registry = render_registry(obs.metrics)
        assert "resilience.breaker.open" in registry
        obs.events.emit_metrics(obs.metrics)
        obs.events.close()
        report = render_report(read_events(run_path))
        assert "resilience.breaker.open" in report


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


def run_training(tmp_path, name, config, crash_after_step=None):
    """One training run; returns (model, trainer, manager)."""
    model = MistralTiny(TINY, rng=0)
    manager = CheckpointManager(tmp_path / name)
    trainer = Trainer(
        model, AdamW(model.parameters(), lr=3e-3),
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
            model, AdamW(model.parameters(), lr=1e-2),
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
            obs=obs,
        )
        with injector.active():
            actual = engine.influence_matrix(train, test, weights)

        np.testing.assert_allclose(actual, expected, atol=1e-10)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["influence.worker_requeued"] >= 1

    def test_missing_checkpoint_fails_alike_in_worker_and_parent(self, tmp_path):
        """Worker and parent restore through one path: one error type."""
        from repro.influence.engine import ParallelInfluenceEngine
        from repro.influence.store import GradientStore

        model, checkpoints = self.build(tmp_path / "ckpt")
        checkpoints[1].path.unlink()
        obs = Observability.create(events_path=tmp_path / "events.jsonl")
        engine = ParallelInfluenceEngine(
            model, checkpoints, workers=2, store=GradientStore(obs=obs), obs=obs,
        )
        with pytest.raises(CheckpointError):
            engine.influence_matrix(
                random_examples(n=4, seed=1), random_examples(n=2, seed=2),
                [0.01] * len(checkpoints),
            )
        requeued = [
            event for event in obs.events.events()
            if event["kind"] == "influence.worker_requeued"
        ]
        assert [event["error"] for event in requeued] == ["CheckpointError"]


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
