"""Multi-replica serving cluster: supervisor, router, heal, deploy.

Thread-transport tests run the cluster synchronously (``pump`` /
``drain`` / explicit ``check_health``) so every scheduling decision is
deterministic; one fork-transport smoke proves the subprocess path
end-to-end.  Chaos scenarios (SIGKILL mid-batch, faults mid-deploy)
live in ``test_serving_cluster_chaos.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import (
    ClusterError,
    QuantizationError,
    QueueFullError,
    ReplicaCrashedError,
    ServingError,
)
from repro.obs import Observability
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    ForkTransport,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
    ThreadTransport,
)
from repro.serving import cluster as cluster_module
from repro.serving.engine import EngineConfig

from conftest import make_stub_service


def stub_app(replica_id: int, threshold: float = 0.5, version_box: dict | None = None) -> ReplicaApp:
    """A deterministic replica: score = (len(text) % 10) / 10 + 0.05.

    ``version_box`` (shared per factory call via closure) makes weight
    swaps observable: ``swap_weights`` bumps the version and stores the
    state so tests can assert what each replica is running.
    """
    box = version_box if version_box is not None else {"version": 1, "state": None}

    def batch_fn(requests: list[ScoreRequest]) -> list[ScoreResult]:
        results = []
        for r in requests:
            score = (len(r.behavior_text) % 10) / 10.0 + 0.05
            results.append(
                ScoreResult(
                    user_id=r.user_id,
                    score=score,
                    approved=score < threshold,
                    threshold=threshold,
                )
            )
        return results

    def swap(state):
        box["version"] += 1
        box["state"] = dict(state)

    return ReplicaApp(
        batch_fn=batch_fn,
        swap_weights=swap,
        weight_version=lambda: box["version"],
    )


def make_cluster(obs=None, **config_kwargs) -> ClusterSupervisor:
    defaults = dict(replicas=2, max_batch_size=4, queue_capacity=8)
    defaults.update(config_kwargs)
    return ClusterSupervisor(stub_app, ClusterConfig(**defaults), obs=obs or Observability.create())


def requests(n: int, tenant: str | None = None) -> list[ScoreRequest]:
    return [
        ScoreRequest(tenant or f"user-{i}", f"balance={'x' * (i % 13)}")
        for i in range(n)
    ]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterConfig(replicas=0)
        with pytest.raises(ClusterError):
            ClusterConfig(transport="carrier-pigeon")
        with pytest.raises(ClusterError):
            ClusterConfig(tenant_quota=0)
        with pytest.raises(ServingError):
            ClusterConfig(max_batch_size=0)  # engine knobs validated eagerly

    def test_cluster_errors_are_serving_errors(self):
        assert issubclass(ClusterError, ServingError)
        assert issubclass(ReplicaCrashedError, ClusterError)


class TestRoutingAndResults:
    def test_serve_scores_everything_with_replica_tags(self):
        cluster = make_cluster()
        reqs = requests(10)
        results = cluster.serve(reqs)
        assert [r.user_id for r in results] == [r.user_id for r in reqs]
        assert all(r.replica in (0, 1) for r in results)
        # Least-loaded routing spreads a burst across both replicas.
        assert {r.replica for r in results} == {0, 1}
        cluster.stop()

    def test_scores_are_replica_independent(self):
        cluster = make_cluster()
        reqs = requests(6)
        results = cluster.serve(reqs)
        for req, res in zip(reqs, results):
            assert res.score == pytest.approx((len(req.behavior_text) % 10) / 10.0 + 0.05)
        cluster.stop()

    def test_least_loaded_prefers_empty_replica(self):
        cluster = make_cluster(replicas=3)
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(3)]
        # Three submissions with empty queues land on three distinct replicas.
        assert sorted(r.outstanding for r in cluster.replicas) == [1, 1, 1]
        cluster.drain()
        assert {p.result(timeout=0).replica for p in pendings} == {0, 1, 2}
        cluster.stop()

    def test_empty_text_rejected_before_admission(self):
        cluster = make_cluster()
        with pytest.raises(ServingError):
            cluster.submit(ScoreRequest("u", "   "))
        assert cluster.stats.submitted == 0
        cluster.stop()

    def test_context_manager_threaded(self):
        with make_cluster() as cluster:
            results = cluster.serve(requests(8))
            assert len(results) == 8
        assert cluster.healthy_count() == 0  # stopped


class TestBackpressure:
    def test_queue_full_everywhere_raises(self):
        cluster = make_cluster(replicas=2, queue_capacity=2)
        cluster.launch()
        for r in requests(4):
            cluster.submit(r)
        with pytest.raises(QueueFullError):
            cluster.submit(ScoreRequest("overflow", "text"))
        assert cluster.stats.rejected == 1
        cluster.drain()
        cluster.stop()

    def test_full_replica_overflows_to_other(self):
        cluster = make_cluster(replicas=2, queue_capacity=3)
        cluster.launch()
        for r in requests(6):
            cluster.submit(r)
        assert [r.engine.queue_depth for r in cluster.replicas] == [3, 3]
        cluster.drain()
        cluster.stop()

    def test_tenant_quota_admission(self):
        cluster = make_cluster(tenant_quota=2)
        cluster.launch()
        cluster.submit(ScoreRequest("acme", "a"))
        cluster.submit(ScoreRequest("acme", "bb"))
        with pytest.raises(QueueFullError):
            cluster.submit(ScoreRequest("acme", "ccc"))
        assert cluster.stats.quota_rejected == 1
        # Other tenants are unaffected.
        cluster.submit(ScoreRequest("globex", "d"))
        cluster.drain()
        # Quota frees as requests resolve.
        cluster.submit(ScoreRequest("acme", "eee"))
        cluster.drain()
        cluster.stop()


class TestServeAllOrNothing:
    def test_overflowing_serve_decides_and_audits_nothing(self):
        """A ``serve`` that raises leaves nothing queued behind the caller."""
        service = make_stub_service(config=EngineConfig(queue_capacity=2))
        with pytest.raises(QueueFullError):
            service.serve([ScoreRequest(f"u{i}", f"t={i}") for i in range(3)])
        assert [r.outstanding for r in service.replicas] == [0]
        assert service.replicas[0].engine.queue_depth == 0
        service.drain()
        assert service.replicas[0].engine.stats.completed == 0
        assert [e for e in service.audit_log() if e["kind"] == "audit.decision"] == []
        # Admission resumes: the next serve is decided and audited as usual.
        [result] = service.serve([ScoreRequest("u9", "t=9")])
        assert [e["user_id"] for e in service.audit_log()] == [result.user_id]


class TestCrashRecovery:
    def test_killed_replica_work_redispatched(self):
        cluster = make_cluster(replicas=2)
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(8)]
        cluster.replicas[0].transport.kill()
        cluster.drain()
        results = [p.result(timeout=0) for p in pendings]
        assert len(results) == 8
        # Everything the dead replica held was rescued by the survivor.
        assert all(r.replica == 1 for r in results)
        assert cluster.stats.completed == 8
        assert cluster.stats.redispatched > 0
        assert cluster.replica_states()[0] == "dead"
        cluster.stop()

    def test_health_check_restarts_dead_replica(self):
        cluster = make_cluster(replicas=2)
        cluster.launch()
        cluster.replicas[0].transport.kill()
        cluster.serve(requests(4))  # crash detected during scoring
        assert cluster.replica_states()[0] == "dead"
        states = cluster.check_health()
        assert states[0] == "healthy"
        assert cluster.stats.restarts == 1
        # The restarted replica serves again.
        results = cluster.serve(requests(6))
        assert {r.replica for r in results} == {0, 1}
        cluster.stop()

    def test_restart_cap_abandons_replica(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_RESTARTS", 1)
        cluster = make_cluster(replicas=2)
        cluster.launch()
        replica = cluster.replicas[0]
        for _ in range(3):
            replica.transport.kill()
            cluster.serve(requests(2))
            cluster.check_health()
        assert replica.restarts == 1
        assert cluster.replica_states()[0] == "dead"
        # The cluster keeps serving on the survivor.
        assert len(cluster.serve(requests(4))) == 4
        cluster.stop()

    def test_total_loss_surfaces_crash_error(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_REDISPATCH", 1)
        monkeypatch.setattr(cluster_module, "MAX_RESTARTS", 0)
        cluster = make_cluster(replicas=1)
        cluster.launch()
        pending = cluster.submit(ScoreRequest("u", "text"))
        cluster.replicas[0].transport.kill()
        cluster.drain()
        assert isinstance(pending.error, (ReplicaCrashedError, QueueFullError))
        assert cluster.stats.failed == 1
        cluster.stop()

    def test_breaker_opens_on_repeated_crash(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "BREAKER_MIN_CALLS", 1)
        cluster = make_cluster(replicas=2)
        cluster.launch()
        replica = cluster.replicas[0]
        replica.transport.kill()
        cluster.serve(requests(4))
        assert replica.breaker.state == "open"
        # Restart force-closes the breaker: the replacement process is new.
        cluster.check_health()
        assert replica.breaker.state == "closed"
        cluster.stop()


class TestExactlyOnce:
    def test_every_pending_resolves_exactly_once_under_crash(self):
        cluster = make_cluster(replicas=2)
        cluster.launch()
        seen: list[str] = []
        pendings = [cluster.submit(r) for r in requests(8)]
        for p in pendings:
            p.add_done_callback(lambda pr: seen.append(pr.request.user_id))
        cluster.replicas[1].transport.kill()
        cluster.drain()
        assert sorted(seen) == sorted(f"user-{i}" for i in range(8))
        assert cluster.stats.resolved == 8
        cluster.stop()


class TestRollingDeploy:
    def test_deploy_swaps_every_replica(self):
        cluster = make_cluster(replicas=3)
        cluster.launch()
        assert set(cluster.weight_versions().values()) == {1}
        swapped = cluster.deploy({"w": 2.0})
        assert swapped == 3
        assert set(cluster.weight_versions().values()) == {2}
        assert cluster.stats.swaps == 3
        cluster.stop()

    def test_deploy_waits_for_drain(self):
        cluster = make_cluster(replicas=2)
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(6)]
        cluster.deploy({"w": 1.0})  # drains queued work before each swap
        assert all(p.done for p in pendings)
        assert all(p.error is None for p in pendings)
        cluster.stop()

    def test_restart_applies_staged_weights(self):
        cluster = make_cluster(replicas=2)
        cluster.launch()
        cluster.deploy({"w": 7.0})
        cluster.replicas[0].transport.kill()
        cluster.serve(requests(2))
        cluster.check_health()  # restart rebuilds from factory (version 1)...
        versions = cluster.weight_versions()
        assert versions[0] == versions[1] == 2  # ...then re-applies the staged state
        cluster.stop()

    def test_failed_swap_returns_replica_to_service(self):
        def fragile_app(replica_id: int) -> ReplicaApp:
            app = stub_app(replica_id)

            def bad_swap(state):
                raise ClusterError("state dict does not fit")

            return ReplicaApp(
                batch_fn=app.batch_fn,
                swap_weights=bad_swap,
                weight_version=app.weight_version,
            )

        cluster = ClusterSupervisor(fragile_app, ClusterConfig(replicas=2))
        cluster.launch()
        with pytest.raises(ClusterError):
            cluster.deploy({"w": 1.0})
        assert cluster.replica_states()[0] == "healthy"
        assert len(cluster.serve(requests(4))) == 4
        cluster.stop()


class TestObservability:
    def test_counters_and_gauges(self):
        obs = Observability.create()
        cluster = make_cluster(obs=obs)
        cluster.launch()
        cluster.serve(requests(5))
        cluster.replicas[0].transport.kill()
        cluster.serve(requests(2))
        cluster.check_health()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cluster.submitted"] == 7
        assert counters["cluster.completed"] == 7
        assert counters["cluster.replica_restarted"] == 1
        assert counters["cluster.health_checks"] == 1
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["cluster.replicas_healthy"] == 2
        assert gauges["cluster.outstanding"] == 0
        cluster.stop()

    def test_lifecycle_events_emitted(self, tmp_path):
        obs = Observability.create(events_path=tmp_path / "run.jsonl")
        cluster = make_cluster(obs=obs)
        cluster.launch()
        cluster.replicas[0].transport.kill()
        cluster.serve(requests(2))
        cluster.check_health()
        cluster.stop()
        kinds = [e["kind"] for e in obs.events.events()]
        assert "cluster.replica" in kinds
        assert "cluster.replica_restarted" in kinds


class TestThreadedMode:
    def test_start_stop_serves_with_workers(self):
        cluster = make_cluster()
        cluster.start()
        try:
            pendings = [cluster.submit(r) for r in requests(8)]
            results = [p.result(timeout=5.0) for p in pendings]
            assert len(results) == 8
            assert all(0.0 <= r.score <= 1.0 for r in results)
        finally:
            cluster.stop()

    def test_threaded_deploy_drains_then_swaps(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "DRAIN_TIMEOUT_S", 5.0)
        cluster = make_cluster()
        cluster.start()
        try:
            pendings = [cluster.submit(r) for r in requests(6)]
            swapped = cluster.deploy({"w": 3.0})
            assert swapped == 2
            assert all(p.result(timeout=5.0) for p in pendings)
            assert set(cluster.weight_versions().values()) == {2}
        finally:
            cluster.stop()


class TestForkTransport:
    def test_fork_smoke_scores_and_deploys(self):
        cluster = ClusterSupervisor(
            stub_app,
            ClusterConfig(replicas=2, transport="fork"),
        )
        cluster.start()
        try:
            pendings = [cluster.submit(r) for r in requests(6)]
            results = [p.result(timeout=30.0) for p in pendings]
            assert [r.user_id for r in results] == [f"user-{i}" for i in range(6)]
            assert all(r.replica in (0, 1) for r in results)
            pids = {r.transport.pid for r in cluster.replicas}
            assert len(pids) == 2  # genuinely separate processes
            assert cluster.deploy({"w": 1.5}) == 2
            assert set(cluster.weight_versions().values()) == {2}
        finally:
            cluster.stop()

    def test_child_errors_come_back_with_their_type(self):
        def failing_app(replica_id: int) -> ReplicaApp:
            def batch_fn(batch):
                raise QuantizationError("int8 scoring failed")

            def swap(state):
                raise ClusterError("swap refused")

            return ReplicaApp(batch_fn=batch_fn, swap_weights=swap)

        transport = ForkTransport(failing_app, replica_id=0)
        transport.start()
        try:
            with pytest.raises(QuantizationError, match="int8 scoring failed"):
                transport.score(requests(1))
            with pytest.raises(ClusterError, match="swap refused"):
                transport.swap({"w": 1.0})
            assert transport.alive  # errors are replies; the replica stays up
        finally:
            transport.stop()

    @pytest.mark.parametrize("transport_cls", [ThreadTransport, ForkTransport])
    def test_swap_unsupported_is_a_cluster_error_on_both_transports(self, transport_cls):
        def no_swap_app(replica_id: int) -> ReplicaApp:
            return dataclasses.replace(stub_app(replica_id), swap_weights=None)

        transport = transport_cls(no_swap_app, replica_id=0)
        transport.start()
        try:
            with pytest.raises(ClusterError, match="does not support weight swaps") as caught:
                transport.swap({"w": 1.0})
            assert type(caught.value) is ClusterError
            assert transport.alive
        finally:
            transport.stop()
