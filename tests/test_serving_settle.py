"""One settle step per replica batch: one pending per request, settled once.

A cluster request has one pending, the one its replica engine queued;
a crash re-queues that same object on another replica.  Each replica
batch settles once: the breaker records the batch's outcomes as counts,
the audit records are written (in resolve order, before any caller in
the batch resolves), and only then are the callers resolved.  Fork
cases are ``slow``, like the other cluster suites.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import QueueFullError, ReplicaCrashedError, ServingError
from repro.obs import Observability, read_events
from repro.serving import ClusterConfig, ClusterSupervisor, ReplicaApp, ScoreRequest, ScoreResult
from repro.serving import cluster as cluster_module
from repro.serving import engine as engine_module
from repro.serving.engine import PendingResult, settle_batch

from conftest import (
    StepClock,
    make_engine,
    make_generation_app,
    stub_batch_fn,
    stub_generation_model,
)

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger.py"

TRANSPORTS = ["thread", pytest.param("fork", marks=pytest.mark.slow)]


def stub_factory(replica_id: int) -> ReplicaApp:
    return ReplicaApp(batch_fn=stub_batch_fn)


def requests(n: int) -> list[ScoreRequest]:
    return [ScoreRequest(f"user-{i}", f"txn {i}") for i in range(n)]


def make_cluster(transport: str = "thread", **config) -> ClusterSupervisor:
    settings = dict(replicas=2, transport=transport, max_batch_size=4)
    settings.update(config)
    return ClusterSupervisor(stub_factory, ClusterConfig(**settings), obs=Observability.create())


def spy(obj, name: str, returns: list | None = None) -> list:
    """Record the arguments (and, into ``returns``, the results) of ``obj.name``."""
    calls: list = []
    original = getattr(obj, name)

    def wrapper(*args):
        calls.append(args)
        result = original(*args)
        if returns is not None:
            returns.append(result)
        return result

    setattr(obj, name, wrapper)
    return calls


def count_callbacks(pendings) -> dict[int, int]:
    fired = {id(p): 0 for p in pendings}
    for pending in pendings:
        pending.add_done_callback(lambda p: fired.__setitem__(id(p), fired[id(p)] + 1))
    return fired


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestOnePendingPerRequest:
    def test_submit_returns_the_pending_the_replica_engine_queued(self, transport):
        cluster = make_cluster(transport)
        cluster.launch()
        queued: list = []
        for replica in cluster.replicas:
            spy(replica.engine, "submit", returns=queued)
        try:
            pendings = [cluster.submit(r) for r in requests(6)]
            cluster.drain()
        finally:
            cluster.stop()
        assert [id(p) for p in pendings] == [id(p) for p in queued]
        assert all(p.result(timeout=0).replica in (0, 1) for p in pendings)

    def test_crash_redispatches_the_same_pending(self, transport):
        cluster = make_cluster(transport, queue_capacity=16)
        cluster.launch()
        try:
            pendings = [cluster.submit(r) for r in requests(8)]
            requeued = spy(cluster.replicas[1].engine, "enqueue")
            on_zero = [p for p in pendings if p in replica_queue(cluster, 0)]
            assert on_zero
            fired = count_callbacks(pendings)
            cluster.replicas[0].transport.kill()
            cluster.drain()
        finally:
            cluster.stop()
        # The pendings the caller holds are the very objects re-queued.
        assert {id(p) for (p,) in requeued} == {id(p) for p in on_zero}
        assert all(p.result(timeout=0).replica == 1 for p in on_zero)
        assert all(count == 1 for count in fired.values())
        assert cluster.stats.redispatched == len(on_zero)
        assert cluster.stats.completed == 8 and cluster.stats.failed == 0
        assert [r.outstanding for r in cluster.replicas] == [0, 0]
        decided = [e["user_id"] for e in cluster.audit_log() if e["kind"] == "audit.decision"]
        assert sorted(decided) == sorted(r.request.user_id for r in pendings)

    def test_max_redispatch_is_honoured(self, transport, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_REDISPATCH", 0)
        cluster = make_cluster(transport)
        cluster.launch()
        try:
            pendings = [cluster.submit(r) for r in requests(4)]
            on_zero = [p for p in pendings if p in replica_queue(cluster, 0)]
            cluster.replicas[0].transport.kill()
            cluster.drain()
        finally:
            cluster.stop()
        assert on_zero and all(isinstance(p.error, ReplicaCrashedError) for p in on_zero)
        assert cluster.stats.redispatched == 0
        assert cluster.stats.failed == len(on_zero)

    def test_tenant_quota_is_released_on_every_outcome(self, transport, monkeypatch):
        monkeypatch.setattr(cluster_module, "MAX_REDISPATCH", 0)
        cluster = make_cluster(transport, tenant_quota=2)
        cluster.launch()
        try:
            cluster.submit(ScoreRequest("acme", "a"))
            cluster.submit(ScoreRequest("acme", "bb"))
            with pytest.raises(QueueFullError):
                cluster.submit(ScoreRequest("acme", "ccc"))
            cluster.replicas[0].transport.kill()  # one fails, one completes
            cluster.drain()
            cluster.check_health()
            # Both slots are free again, whichever way each request ended.
            results = cluster.serve([ScoreRequest("acme", "dddd"), ScoreRequest("acme", "e")])
        finally:
            cluster.stop()
        assert len(results) == 2
        assert cluster.stats.failed == 1 and cluster.stats.quota_rejected == 1

    def test_overflowing_serve_runs_nothing(self, transport):
        cluster = make_cluster(transport, replicas=1, queue_capacity=2)
        try:
            with pytest.raises(QueueFullError):
                cluster.serve(requests(3))
            assert [r.outstanding for r in cluster.replicas] == [0]
            assert cluster.replicas[0].engine.queue_depth == 0
            assert cluster.audit_log() == []
            assert cluster.stats.failed == 2
        finally:
            cluster.stop()


def replica_queue(cluster: ClusterSupervisor, replica_id: int) -> list:
    """The pendings queued on one replica's engine (a peek at its queue)."""
    engine = cluster.replicas[replica_id].engine
    return [pending for pending, _ in engine._queue]


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestAuditBeforeResolve:
    def test_records_are_in_resolve_order_and_written_first(self, transport, tmp_path):
        path = tmp_path / "audit.jsonl"
        cluster = ClusterSupervisor(
            stub_factory,
            ClusterConfig(replicas=2, transport=transport, max_batch_size=4),
            obs=Observability.create(),
            audit_path=path,
        )
        cluster.launch()
        resolved: list[str] = []
        on_file_at_resolve: list[bool] = []

        def check(pending):
            user = pending.request.user_id
            resolved.append(user)
            written = [e["user_id"] for e in read_events(path) if e["kind"] == "audit.decision"]
            on_file_at_resolve.append(user in written)

        try:
            pendings = [cluster.submit(r) for r in requests(10)]
            for pending in pendings:
                pending.add_done_callback(check)
            cluster.drain()
        finally:
            cluster.stop()
        assert all(on_file_at_resolve) and len(resolved) == 10
        decided = [e["user_id"] for e in read_events(path) if e["kind"] == "audit.decision"]
        assert decided == resolved
        assert cluster.audit_log() == read_events(path)


class TestOneSettlePerBatch:
    def test_breaker_records_one_count_per_batch(self):
        cluster = make_cluster(replicas=1, max_batch_size=4, queue_capacity=16)
        cluster.launch()
        successes = spy(cluster.replicas[0].breaker, "record_success")
        cluster.serve(requests(10))
        cluster.stop()
        assert successes == [(4,), (4,), (2,)]

    def test_expiry_and_backpressure_do_not_charge_the_breaker(self):
        clock = StepClock(now=0.0)
        cluster = ClusterSupervisor(
            stub_factory, ClusterConfig(replicas=1, queue_capacity=2), clock=clock
        )
        cluster.launch()
        failures = spy(cluster.replicas[0].breaker, "record_failure")
        stale = cluster.submit(ScoreRequest("late", "text", deadline=0.5))  # clock passes it
        with pytest.raises(QueueFullError):
            cluster.serve(requests(2))  # one fits, the next overflows: withdrawn
        cluster.drain()
        cluster.stop()
        assert stale.error is not None
        assert failures == []
        assert cluster.replicas[0].breaker.state == "closed"

    def test_serve_of_one_request_pumps_once(self):
        cluster = make_cluster()
        pumps = spy(cluster, "pump")
        [result] = cluster.serve(requests(1))
        assert len(pumps) == 1
        assert result.replica is not None
        cluster.stop()


class TestOneResultObjectPerRequest:
    """Results are stamped in place, so a scorer may not hand one object to two callers."""

    def test_a_batch_that_repeats_a_result_fails(self):
        shared = ScoreResult("any", 0.1, True, 0.5)
        engine = make_engine("microbatch", batch_fn=lambda batch: [shared] * len(batch))
        pendings = [engine.submit(r) for r in requests(3)]
        engine.drain()
        assert all(isinstance(p.error, ServingError) for p in pendings)
        assert (shared.latency_s, shared.batch_size, shared.replica) == (0.0, 1, None)

    def test_a_finish_that_repeats_a_result_fails_the_repeat(self):
        shared = ScoreResult("any", 0.1, True, 0.5)
        app = make_generation_app(stub_generation_model(), finish=lambda request, tokens: shared)
        engine = make_engine("continuous", app=app)
        pendings = [engine.submit(r) for r in requests(3)]
        engine.drain()
        served = [p for p in pendings if p.error is None]
        assert len(served) == 1 and served[0].result(timeout=0) is shared
        assert all(isinstance(p.error, ServingError) for p in pendings if p.error is not None)


class TestBackpressureWhileSettling:
    def test_a_settle_inside_a_refused_admission_counts_nothing_twice(self):
        # The interleaving threaded replicas can hit: a batch settles
        # while an admission is in flight, and the engine then refuses it.
        cluster = make_cluster(replicas=1, max_batch_size=1, queue_capacity=4)
        cluster.launch()
        engine = cluster.replicas[0].engine
        first = cluster.submit(ScoreRequest("a", "x"))
        second = cluster.submit(ScoreRequest("b", "y"))
        admit = engine.submit

        def refuse_after_a_settle(request):
            engine.pump()  # settles ``first`` inside the admission
            raise QueueFullError("full")

        engine.submit = refuse_after_a_settle
        with pytest.raises(QueueFullError):
            cluster.submit(ScoreRequest("c", "z"))
        engine.submit = admit
        cluster.pump()  # settles ``second`` before any admission succeeds
        cluster.stop()
        assert first.result(timeout=0) and second.result(timeout=0)
        assert cluster.stats.submitted == 2 and cluster.stats.rejected == 1
        assert cluster.obs.metrics.counter("cluster.submitted").value == 2
        assert [r.outstanding for r in cluster.replicas] == [0]

    def test_threaded_submitters_at_full_queues_keep_the_workers_serving(self, monkeypatch):
        monkeypatch.setattr(engine_module, "MAX_WAIT_S", 0.0)
        cluster = make_cluster(max_batch_size=2, queue_capacity=2)
        admitted: list = []
        refused = [0]

        def submitter(offset: int) -> None:
            for i in range(150):
                try:
                    admitted.append(cluster.submit(ScoreRequest(f"u{offset}-{i}", f"txn {i}")))
                except QueueFullError:
                    refused[0] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cluster.start()
            threads = [threading.Thread(target=submitter, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            for pending in admitted:
                pending.result(timeout=10.0)
            workers = [replica.engine._worker for replica in cluster.replicas]
            assert all(worker is not None and worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
            cluster.stop()
        assert refused[0] > 0  # the queues really were kept full
        assert cluster.stats.completed == len(admitted) == cluster.stats.submitted
        assert cluster.obs.metrics.counter("cluster.submitted").value == len(admitted)


class TestRaisingDoneCallback:
    """A done-callback that raises neither strands its batch nor kills the worker.

    Two requests are queued before the worker starts, so they share one
    batch; the first carries a ``1/0`` callback.  The second must still
    resolve, the worker must count and print the error and keep
    serving a later request.
    """

    def queue_two(self, submit):
        first, second = submit(ScoreRequest("user-0", "txn 0")), submit(ScoreRequest("user-1", "txn 1"))
        first.add_done_callback(lambda _p: 1 / 0)
        return first, second

    def check(self, first, second, later, metrics, capsys):
        assert second.result(timeout=5.0).user_id == "user-1"
        assert first.result(timeout=0).user_id == "user-0"
        assert later.result(timeout=5.0).user_id == "user-2"
        assert metrics.counter("serving.worker_errors").value == 1
        assert "ZeroDivisionError" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["microbatch", "continuous"])
    def test_thread_engine(self, kind, capsys):
        from repro.serving import EngineConfig

        engine = make_engine(kind, EngineConfig(max_batch_size=2, queue_capacity=8))
        first, second = self.queue_two(engine.submit)
        engine.start()
        try:
            assert second.result(timeout=5.0).batch_size == 2
            later = engine.submit(ScoreRequest("user-2", "txn 2"))
            self.check(first, second, later, engine.obs.metrics, capsys)
            assert engine._worker.is_alive()
        finally:
            engine.stop()

    def test_threaded_cluster(self, capsys):
        cluster = make_cluster("thread", replicas=1, max_batch_size=2)
        cluster.launch()
        first, second = self.queue_two(cluster.submit)
        cluster.start()
        try:
            assert second.result(timeout=5.0).batch_size == 2
            later = cluster.submit(ScoreRequest("user-2", "txn 2"))
            self.check(first, second, later, cluster.obs.metrics, capsys)
            assert cluster.replicas[0].engine._worker.is_alive()
        finally:
            cluster.stop()
        assert cluster.stats.completed == 3
        assert [r.outstanding for r in cluster.replicas] == [0]

    def test_a_raising_withdrawal_still_settles_the_crashed_batch(self, monkeypatch):
        # A crash withdraws the dead replica's queue inside the crashed
        # batch's settle step; a withdrawn caller's raising callback must
        # not cut that outer settle short.
        monkeypatch.setattr(cluster_module, "MAX_REDISPATCH", 0)
        cluster = make_cluster(max_batch_size=2, queue_capacity=16)
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(8)]
        queued = replica_queue(cluster, 0)
        assert len(queued) == 4
        queued[-1].add_done_callback(lambda _p: 1 / 0)
        cluster.replicas[0].transport.kill()
        with pytest.raises(ZeroDivisionError):
            cluster.pump()
        assert all(p.done for p in queued)
        assert cluster.replicas[0].outstanding == 0
        cluster.drain()
        assert all(p.done for p in pendings)
        assert [r.outstanding for r in cluster.replicas] == [0, 0]

    def test_a_raising_callback_runs_the_pendings_later_callbacks(self):
        pending = PendingResult(ScoreRequest("user-0", "txn 0"))
        ran: list[str] = []
        pending.add_done_callback(lambda _p: 1 / 0)
        pending.add_done_callback(lambda p: ran.append(p.request.user_id))
        pending.add_done_callback(lambda _p: [][0])
        with pytest.raises(ZeroDivisionError):
            settle_batch([(pending, ScoreResult("user-0", 0.1, True, 0.5))], [])
        assert ran == ["user-0"]
        assert pending.result(timeout=0).user_id == "user-0"

    def test_synchronous_drain_settles_the_batch_then_raises(self):
        engine = make_engine("microbatch")
        first, second = self.queue_two(engine.submit)
        with pytest.raises(ZeroDivisionError):
            engine.drain()
        assert [p.result(timeout=0).user_id for p in (first, second)] == ["user-0", "user-1"]

    def test_a_raising_expiry_leaves_the_taken_requests_queued(self):
        # The expired request is settled while the live one is being
        # taken: its raising callback must not lose the live request.
        clock = StepClock(now=0.0, step=1.0)
        engine = make_engine("microbatch", clock=clock)
        stale = engine.submit(ScoreRequest("user-0", "txn 0", deadline=1.5))
        stale.add_done_callback(lambda _p: 1 / 0)
        live = engine.submit(ScoreRequest("user-1", "txn 1"))
        with pytest.raises(ZeroDivisionError):
            engine.pump()
        assert stale.done and [pending for pending, _ in engine._queue] == [live]
        engine.drain()
        assert live.result(timeout=0).user_id == "user-1"
        assert engine.stats.expired == 1 and engine.stats.completed == 1


class TestRequestPathCounts:
    @pytest.fixture(scope="class")
    def counts(self):
        spec = importlib.util.spec_from_file_location("ledger", LEDGER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.request_path_counts(), module.request_path_counts()

    def test_at_most_two_instrument_calls_per_decision(self, counts):
        first, _ = counts
        assert 0 < first["instrument_calls_per_decision"] <= 2

    def test_counts_repeat_exactly(self, counts):
        first, second = counts
        assert first == second
        assert first["python_calls_per_decision"] > 0
