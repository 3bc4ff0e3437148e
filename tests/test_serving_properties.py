"""Hypothesis properties for the serving tier: engine and cluster.

The scheduler contract under test, for *any* interleaving of submits,
pumps, crashes, health sweeps and drains:

* no request is ever lost — every accepted submit resolves,
* no request ever resolves twice (the ``PendingResult`` guard),
* the single-queue engine never reorders requests (so per-tenant order
  holds): the micro-batch engine completes in submit order, the
  continuous engine admits rows in submit order, and
* admission control rejects exactly when it should: queue at capacity
  or tenant at quota.

The engine properties draw the engine itself as one more input, so both
step policies are held to the core's contract.

``max_examples`` is intentionally left to the active hypothesis profile
(see ``conftest.py``): 200 locally, bounded via ``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueFullError, ReplicaCrashedError, ServingError
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    EngineConfig,
    PendingResult,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
)

from conftest import ENGINE_KINDS, StubClassifier, make_engine


TENANTS = ("acme", "globex", "initech")


def _result_for(request: ScoreRequest) -> ScoreResult:
    score = (len(request.behavior_text) % 10) / 10.0 + 0.05
    return ScoreResult(
        user_id=request.user_id,
        score=score,
        approved=score < 0.5,
        threshold=0.5,
    )


def _batch_fn(requests):
    return [_result_for(r) for r in requests]


def _stub_replica_factory(replica_id: int) -> ReplicaApp:
    return ReplicaApp(batch_fn=_batch_fn)


# Engine ops: submit for one of three tenants, or pump one batch.
engine_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(range(len(TENANTS)))),
        st.tuples(st.just("pump"), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


class TestEngineInterleavings:
    @given(
        ops=engine_ops,
        capacity=st.integers(1, 6),
        batch=st.integers(1, 4),
        kind=st.sampled_from(ENGINE_KINDS),
    )
    def test_no_loss_no_double_resolve_no_reorder(self, ops, capacity, batch, kind):
        admitted: list[ScoreRequest] = []
        engine = make_engine(
            kind,
            EngineConfig(max_batch_size=batch, max_wait_s=0.0, queue_capacity=capacity),
            seen=admitted,
        )
        accepted: list[PendingResult] = []
        completions: list[str] = []
        callback_counts: dict[int, int] = {}
        serial = 0

        for op, arg in ops:
            if op == "submit":
                serial += 1
                request = ScoreRequest(TENANTS[arg], f"txn-{serial}")
                depth_before = engine.queue_depth
                try:
                    pending = engine.submit(request)
                except QueueFullError:
                    # Backpressure only ever fires at capacity.
                    assert depth_before == capacity
                    continue
                key = id(pending)
                callback_counts[key] = 0

                def record(p, key=key):
                    callback_counts[key] += 1
                    completions.append(p.request.behavior_text)

                pending.add_done_callback(record)
                accepted.append(pending)
            else:
                engine.pump()

        engine.drain()

        # No loss, exactly-once, FIFO (hence per-tenant order).
        assert all(p.done for p in accepted)
        assert all(count == 1 for count in callback_counts.values())
        submitted = [p.request.behavior_text for p in accepted]
        assert [r.behavior_text for r in admitted] == submitted
        if kind == "microbatch":
            # One batch at a time: completion order is submit order too.
            # Continuous rows finish by length, so only admission is FIFO.
            assert completions == submitted

    @given(ops=engine_ops, kind=st.sampled_from(ENGINE_KINDS))
    def test_withdraw_resolves_every_queued_request(self, ops, kind):
        engine = make_engine(
            kind,
            EngineConfig(max_batch_size=2, max_wait_s=0.0, queue_capacity=50),
        )
        accepted = []
        for op, arg in ops:
            if op == "submit":
                accepted.append(engine.submit(ScoreRequest(TENANTS[arg], f"t{len(accepted)}")))
            else:
                engine.pump()
        engine.withdraw_all(ReplicaCrashedError("chaos"))
        assert engine.queue_depth == 0
        assert all(p.done for p in accepted)
        for p in accepted:
            assert p.error is None or isinstance(p.error, ReplicaCrashedError)


# Cluster ops add crashes and health sweeps to the engine vocabulary.
cluster_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(range(len(TENANTS)))),
        st.tuples(st.just("pump"), st.just(0)),
        st.tuples(st.just("kill"), st.integers(0, 2)),
        st.tuples(st.just("health"), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


class TestClusterInterleavings:
    @given(ops=cluster_ops, replicas=st.integers(1, 3))
    def test_every_accepted_request_resolves_exactly_once(self, ops, replicas):
        cluster = ClusterSupervisor(
            _stub_replica_factory,
            ClusterConfig(
                replicas=replicas,
                max_batch_size=3,
                queue_capacity=4,
                max_redispatch=3,
                max_restarts=100,
            ),
        )
        cluster.launch()
        accepted: list[PendingResult] = []
        callback_counts: dict[int, int] = {}
        serial = 0

        for op, arg in ops:
            if op == "submit":
                serial += 1
                try:
                    pending = cluster.submit(ScoreRequest(TENANTS[arg], f"txn-{serial}"))
                except QueueFullError:
                    continue
                key = id(pending)
                callback_counts[key] = 0
                pending.add_done_callback(
                    lambda p, key=key: callback_counts.__setitem__(
                        key, callback_counts[key] + 1
                    )
                )
                accepted.append(pending)
            elif op == "pump":
                cluster.pump()
            elif op == "kill":
                cluster.replicas[arg % replicas].transport.kill()
            else:
                cluster.check_health()

        cluster.check_health()  # revive anything dead so drain can finish
        cluster.drain()
        cluster.stop()

        assert all(p.done for p in accepted)
        assert all(count == 1 for count in callback_counts.values())
        for p in accepted:
            if p.error is not None:
                assert isinstance(p.error, (ReplicaCrashedError, QueueFullError))
            else:
                assert p.result(timeout=0).replica is not None
        assert cluster.stats.resolved == len(accepted)
        # The cluster converged healthy: every replica was revivable.
        assert cluster.stats.completed + cluster.stats.failed == len(accepted)

    @given(ops=cluster_ops, quota=st.integers(1, 3))
    def test_tenant_quota_never_exceeded(self, ops, quota):
        cluster = ClusterSupervisor(
            _stub_replica_factory,
            ClusterConfig(replicas=2, max_batch_size=2, queue_capacity=50, tenant_quota=quota),
        )
        cluster.launch()
        inflight: dict[str, int] = {t: 0 for t in TENANTS}
        serial = 0

        def release(p):
            inflight[p.request.user_id] -= 1

        for op, arg in ops:
            if op == "submit":
                serial += 1
                tenant = TENANTS[arg]
                try:
                    pending = cluster.submit(ScoreRequest(tenant, f"txn-{serial}"))
                except QueueFullError:
                    # Queues are deep, so a rejection means the tenant hit
                    # quota — or every replica is currently dead.
                    all_dead = all(
                        s == "dead" for s in cluster.replica_states().values()
                    )
                    assert inflight[tenant] >= quota or all_dead
                    continue
                inflight[tenant] += 1
                pending.add_done_callback(release)
            elif op == "pump":
                cluster.pump()
            elif op == "kill":
                cluster.replicas[arg % 2].transport.kill()
            else:
                cluster.check_health()
            assert all(0 <= n <= quota for n in inflight.values())

        cluster.check_health()
        cluster.drain()
        cluster.stop()
        assert all(n == 0 for n in inflight.values())


class TestPendingResultExactlyOnce:
    @given(
        first=st.sampled_from(["resolve", "reject"]),
        second=st.sampled_from(["resolve", "reject"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_second_finalization_raises(self, first, second):
        pending = PendingResult(ScoreRequest("u", "text"))
        fired = []
        pending.add_done_callback(lambda p: fired.append(1))

        def finalize(kind):
            if kind == "resolve":
                pending._resolve(_result_for(pending.request))
            else:
                pending._reject(RuntimeError("boom"))

        finalize(first)
        with pytest.raises(ServingError):
            finalize(second)
        assert fired == [1]
        assert pending.done

    def test_late_callback_fires_immediately(self):
        pending = PendingResult(ScoreRequest("u", "text"))
        pending._resolve(_result_for(pending.request))
        fired = []
        pending.add_done_callback(lambda p: fired.append(p.request.user_id))
        assert fired == ["u"]


class TestStubParityWithEngine:
    """The shared conftest stub scores identically through every tier."""

    def test_engine_matches_direct_stub(self):
        stub = StubClassifier()
        texts = [f"balance={'x' * i}" for i in range(7)]
        direct = [stub._score(f"sentence: {t}") for t in texts]
        results = [_result_for(ScoreRequest("u", f"sentence: {t}")) for t in texts]
        assert [r.score for r in results] == pytest.approx(direct)
