"""ContinuousEngine: streaming decode behind the serving contract.

Same testing discipline as the micro-batch engine suite: synchronous
``pump``/``drain`` with injected clocks for every scheduling decision,
one threaded smoke for the worker loop, and cluster integration proving
a :class:`~repro.serving.ClusterSupervisor` drives continuous replicas
through the unchanged submit/redispatch machinery.  The admission
contract both engines share (backpressure, deadlines, withdrawal) is
tested once, parametrized over the engine, in ``test_serving_engine.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ClusterError, ReplicaCrashedError, ServingError
from repro.nn import AdmissionPolicy, MistralTiny, generate
from repro.obs import Observability
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    GenerationApp,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
)

from conftest import STUB_GENERATION as GEN
from conftest import TINY, make_engine, stub_generation_model
from conftest import make_generation_app as make_app
from conftest import stub_encode as encode
from conftest import stub_finish as finish


@pytest.fixture(scope="module")
def model():
    return stub_generation_model()


def requests(n: int) -> list[ScoreRequest]:
    return [ScoreRequest(f"user-{i}", f"txn {'x' * (i % 11)}") for i in range(n)]


class TestServeParity:
    def test_serve_matches_sequential_generate(self, model):
        reqs = requests(6)
        engine = make_engine("continuous")
        results = engine.serve(reqs)
        for request, result in zip(reqs, results):
            tokens = generate(model, encode(request), GEN)
            expected = finish(request, tokens)
            assert result.user_id == expected.user_id
            assert result.score == expected.score
            assert result.approved == expected.approved
        assert engine.stats.completed == 6
        assert engine.stats.failed == 0

    def test_streams_carry_the_decoded_tokens(self, model):
        engine = make_engine("continuous")
        reqs = requests(3)
        pendings = [engine.submit(r) for r in reqs]
        per_token: dict[str, list[int]] = {}
        for pending in pendings:
            pending.add_token_callback(
                lambda p, t: per_token.setdefault(p.request.user_id, []).append(t)
            )
        engine.drain()
        for request, pending in zip(reqs, pendings):
            expected = generate(model, encode(request), GEN)
            assert list(pending.stream) == expected
            assert per_token[request.user_id] == expected
            assert pending.result(timeout=0).user_id == request.user_id

    def test_queue_depth_counts_scheduler_waiting(self):
        # Admission room is max_live_rows; the rest stays queued.
        engine = make_engine(
            "continuous", policy=AdmissionPolicy(max_live_rows=2, max_prefills_per_step=1)
        )
        for r in requests(5):
            engine.submit(r)
        assert engine.queue_depth == 5
        engine.pump()
        assert engine.live_rows <= 2
        assert engine.queue_depth + engine.live_rows == 5
        engine.drain()
        assert engine.queue_depth == 0 and engine.live_rows == 0
        assert engine.stats.completed == 5


class TestBackpressureAndDeadlines:
    def test_encode_failure_rejects_only_that_request(self, model):
        def fragile_encode(request):
            if request.user_id == "bad":
                raise ValueError("unencodable")
            return encode(request)

        engine = make_engine("continuous", app=make_app(model, encode=fragile_encode))
        bad = engine.submit(ScoreRequest("bad", "t"))
        good = engine.submit(ScoreRequest("good", "t"))
        engine.drain()
        with pytest.raises(ValueError):
            bad.result(timeout=0)
        assert good.result(timeout=0).user_id == "good"
        assert engine.stats.failed == 1 and engine.stats.completed == 1


class TestFailureContainment:
    def test_withdraw_all_covers_live_and_queued(self):
        engine = make_engine(
            "continuous", policy=AdmissionPolicy(max_live_rows=2, max_prefills_per_step=2)
        )
        pendings = [engine.submit(r) for r in requests(6)]
        engine.pump()  # 2 rows now live with partial streams
        live_streams = [p for p in pendings if len(p.stream) > 0]
        assert len(live_streams) == 2
        error = ReplicaCrashedError("replica torn down")
        assert engine.withdraw_all(error) == 6
        for pending in pendings:
            assert pending.done
            with pytest.raises(ReplicaCrashedError):
                pending.result(timeout=0)
        # Partial tokens stay readable on the failed handles.
        assert all(len(p.stream) > 0 for p in live_streams)
        assert engine.live_rows == 0 and engine.queue_depth == 0

    def test_scheduler_fault_fails_streams_then_recovers(self):
        from repro.resilience import FaultInjector

        engine = make_engine("continuous")
        pendings = [engine.submit(r) for r in requests(3)]
        engine.pump()  # one decode step lands tokens on every stream
        assert all(len(p.stream) > 0 for p in pendings)
        injector = FaultInjector().fail_times(
            "cluster.scheduler", 1, exc=lambda msg: ReplicaCrashedError(msg)
        )
        with injector.active():
            engine.drain()
        for pending in pendings:
            assert pending.done
            assert isinstance(pending.error, ReplicaCrashedError)
            assert len(pending.stream) > 0  # partial decode preserved
        # The loop resets; fresh traffic decodes normally afterwards.
        late = engine.submit(ScoreRequest("late", "t"))
        engine.drain()
        assert late.result(timeout=0).user_id == "late"

    def test_app_swap_mid_flight_fails_streams_then_rebuilds(self, model):
        box = {"app": make_app(model)}
        engine = make_engine("continuous", app=lambda: box["app"])
        pendings = [engine.submit(r) for r in requests(2)]
        engine.pump()  # streams in flight on the old app
        box["app"] = make_app(model)  # restarted replica: new app object
        engine.drain()
        for pending in pendings:
            assert isinstance(pending.error, ServingError)
        # With nothing in flight the fresh app is picked up silently.
        late = engine.submit(ScoreRequest("late", "t"))
        engine.drain()
        assert late.result(timeout=0).user_id == "late"

    def test_continuous_counters_reach_registry(self):
        obs = Observability.create()
        engine = make_engine("continuous", obs=obs)
        engine.serve(requests(3))
        counters = obs.metrics.snapshot()["counters"]
        assert counters["generation.continuous.admitted"] == 3
        assert counters["generation.continuous.retired"] == 3
        assert counters["serving.completed"] == 3
        assert counters["generation.continuous.steps"] > 0


class TestThreadedWorker:
    def test_background_worker_decodes_submissions(self):
        engine = make_engine("continuous")
        with engine:
            pendings = [engine.submit(r) for r in requests(6)]
            results = [p.result(timeout=30.0) for p in pendings]
        assert [r.user_id for r in results] == [f"user-{i}" for i in range(6)]
        assert engine.stats.completed == 6

    def test_stop_drains_remaining(self):
        engine = make_engine("continuous")
        pending = engine.submit(ScoreRequest("u1", "t=1"))
        engine.stop(drain=True)  # never started; drain still decodes
        assert pending.result(timeout=0).user_id == "u1"


def generation_factory(replica_id: int) -> ReplicaApp:
    model = MistralTiny(TINY, rng=replica_id)

    def batch_fn(reqs):
        raise AssertionError("continuous mode must never call batch_fn")

    return ReplicaApp(
        batch_fn=batch_fn,
        weight_version=lambda: 1,
        generation=GenerationApp(model=model, encode=encode, finish=finish, generation=GEN),
    )


class TestClusterIntegration:
    def test_cluster_runs_continuous_replicas(self):
        cluster = ClusterSupervisor(
            generation_factory,
            ClusterConfig(replicas=2, engine_mode="continuous", max_batch_size=4),
            obs=Observability.create(),
        )
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(10)]
        cluster.drain()
        results = [p.result(timeout=0) for p in pendings]
        assert {r.replica for r in results} == {0, 1}  # both replicas decoded
        assert cluster.stats.completed == 10
        cluster.stop()

    def test_fork_transport_rejected(self):
        with pytest.raises(ClusterError, match="thread transport"):
            ClusterConfig(replicas=2, transport="fork", engine_mode="continuous")

    def test_bad_engine_mode_rejected(self):
        with pytest.raises(ClusterError):
            ClusterConfig(replicas=1, engine_mode="warp-drive")

    def test_missing_generation_bundle_fails_loudly(self):
        def plain_factory(replica_id: int) -> ReplicaApp:
            return ReplicaApp(
                batch_fn=lambda reqs: [
                    ScoreResult(r.user_id, 0.1, True, 0.5) for r in reqs
                ]
            )

        cluster = ClusterSupervisor(
            plain_factory,
            ClusterConfig(replicas=1, engine_mode="continuous", max_redispatch=0),
            obs=Observability.create(),
        )
        cluster.launch()
        pending = cluster.submit(ScoreRequest("u1", "t=1"))
        cluster.drain()
        assert pending.done and pending.error is not None
        cluster.stop()

    def test_scheduler_fault_redispatches_to_survivor(self):
        from repro.resilience import FaultInjector

        cluster = ClusterSupervisor(
            generation_factory,
            ClusterConfig(replicas=2, engine_mode="continuous", max_batch_size=4),
            obs=Observability.create(),
        )
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(6)]
        injector = FaultInjector().fail_times(
            "cluster.scheduler", 1, exc=lambda msg: ReplicaCrashedError(msg)
        )
        with injector.active():
            cluster.drain()
        for pending in pendings:
            assert pending.done, f"{pending.request.user_id} dropped"
            assert pending.error is None  # redispatch rescued everything
        assert cluster.stats.redispatched > 0
        cluster.stop()

    def test_zigong_factory_builds_generation_bundle(self, fitted_zigong):
        from repro.serving.behavior_card import zigong_replica_factory

        factory = zigong_replica_factory(fitted_zigong)
        app = factory(0)
        assert app.generation is not None
        bundle = app.generation
        request = ScoreRequest("u1", "payments on time balance low")
        prompt = bundle.encode(request)
        assert len(prompt) > 0
        tokens = generate(bundle.model, prompt, bundle.generation)
        result = bundle.finish(request, tokens)
        assert result.user_id == "u1"
        assert 0.0 <= result.score <= 1.0
