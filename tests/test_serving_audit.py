"""One front door: every request the cluster resolves leaves one audit record.

The supervisor writes an ``audit.decision`` record when it resolves a
request (``ClusterSupervisor._on_replica_done``), in the parent process,
so the record is written once whichever replica scored the request,
over the thread and fork transports, and after a crashed replica's
traffic is redispatched.  Each test sends N requests and reads back
exactly N records from the JSON-lines file at ``audit_path``, one per
request, with matching user, score, decision and replica.  Fork cases
are ``slow``; crash cases are ``chaos``, like the cluster suites.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro.serving.cluster as cluster_module
from repro.data.templates import behavior_prompt
from repro.errors import ReplicaCrashedError
from repro.obs import Observability, read_events
from repro.resilience import FaultInjector
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
)

from conftest import StepClock


def stub_factory(replica_id: int) -> ReplicaApp:
    """A deterministic replica: score = (len(text) % 10) / 10 + 0.05."""

    def batch_fn(requests):
        results = []
        for r in requests:
            score = (len(r.behavior_text) % 10) / 10.0 + 0.05
            results.append(ScoreResult(r.user_id, score, score < 0.5, 0.5))
        return results

    return ReplicaApp(batch_fn=batch_fn)


def requests(n: int) -> list[ScoreRequest]:
    return [ScoreRequest(f"user-{i}", f"txn {'x' * (i % 11)}") for i in range(n)]


def make_cluster(path, **config_kwargs) -> ClusterSupervisor:
    config = dict(replicas=2, max_batch_size=4, rpc_timeout_s=30.0)
    config.update(config_kwargs)
    return ClusterSupervisor(
        stub_factory, ClusterConfig(**config), obs=Observability.create(), audit_path=path
    )


def drive(cluster: ClusterSupervisor, reqs, threaded: bool) -> list[ScoreResult]:
    """Serve ``reqs`` synchronously or on the worker threads, then stop."""
    try:
        if not threaded:
            return cluster.serve(reqs)
        cluster.start()
        pendings = [cluster.submit(r) for r in reqs]
        return [p.result(timeout=30.0) for p in pendings]
    finally:
        cluster.stop()


def decisions(path) -> list[dict]:
    return [r for r in read_events(path) if r["kind"] == "audit.decision"]


def assert_one_record_each(reqs, results, records) -> None:
    """Exactly one record per resolved request, and it matches the result."""
    assert len(records) == len(results)
    by_user = {record["user_id"]: record for record in records}
    assert len(by_user) == len(records), "a request was recorded twice"
    texts = {r.user_id: r.behavior_text for r in reqs}
    for result in results:
        record = by_user[result.user_id]
        assert record["score"] == result.score
        assert record["approved"] == result.approved
        assert record["threshold"] == result.threshold
        assert record["replica"] == result.replica
        assert record["prompt"] == behavior_prompt(texts[result.user_id])


@pytest.mark.parametrize("threaded", [False, True], ids=["sync", "threaded"])
class TestOneRecordPerDecision:
    def test_thread_transport(self, tmp_path, threaded):
        path = tmp_path / "audit.jsonl"
        reqs = requests(24)
        cluster = make_cluster(path)
        results = drive(cluster, reqs, threaded)
        assert {r.replica for r in results} == {0, 1}
        assert_one_record_each(reqs, results, decisions(path))
        assert cluster.audit_log() == read_events(path)  # ring and file agree

    @pytest.mark.slow
    def test_fork_transport(self, tmp_path, threaded):
        path = tmp_path / "audit.jsonl"
        reqs = requests(16)
        results = drive(make_cluster(path, transport="fork"), reqs, threaded)
        assert_one_record_each(reqs, results, decisions(path))


class TestConcurrentWriters:
    def test_threaded_replicas_never_interleave_lines(self, tmp_path):
        """More worker threads than cores, switching often: every line is
        one whole record and no request is recorded twice or lost."""
        path = tmp_path / "audit.jsonl"
        reqs = requests(400)
        cluster = make_cluster(path, replicas=4, max_batch_size=2, queue_capacity=128)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cluster.start()
            chunks = [reqs[i::4] for i in range(4)]
            pendings: list = [[] for _ in chunks]

            def submitter(index):
                pendings[index] = [cluster.submit(r) for r in chunks[index]]

            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            results = [p.result(timeout=30.0) for chunk in pendings for p in chunk]
        finally:
            sys.setswitchinterval(interval)
            cluster.stop()
        assert_one_record_each(reqs, results, decisions(path))


class TestRecordFields:
    def test_ts_comes_from_the_supervisor_clock(self):
        clock = StepClock(now=0.0)
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=1), clock=clock)
        cluster.serve(requests(3))
        stamps = [record["ts"] for record in cluster.audit_log()]
        assert all(float(s).is_integer() for s in stamps)
        assert stamps == sorted(stamps) and stamps[0] > 0.0

    def test_failed_request_leaves_no_record(self):
        clock = StepClock()
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=1), clock=clock)
        stale = cluster.submit(ScoreRequest("stale", "t=1", deadline=clock.now + 1))
        live = cluster.submit(ScoreRequest("live", "t=2"))
        clock.now += 100.0
        cluster.drain()
        assert stale.error is not None and live.error is None
        assert [r["user_id"] for r in cluster.audit_log()] == ["live"]

    def test_restarted_supervisor_appends(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        cluster = make_cluster(path)
        first = drive(cluster, requests(4), threaded=False)
        second = drive(cluster, requests(6)[4:], threaded=False)
        assert len(decisions(path)) == len(first) + len(second) == 6


class TestRingBound:
    def test_ring_stays_bounded_while_the_file_keeps_all(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cluster_module, "AUDIT_RING", 8)
        path = tmp_path / "audit.jsonl"
        reqs = requests(40)
        cluster = make_cluster(path)
        results = drive(cluster, reqs, threaded=False)
        records = decisions(path)
        assert_one_record_each(reqs, results, records)
        assert cluster.audit_log() == records[-8:]


@pytest.mark.chaos
class TestKilledReplica:
    def test_thread_replica_killed_mid_run(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        reqs = requests(12)
        cluster = make_cluster(path)
        cluster.launch()
        pendings = [cluster.submit(r) for r in reqs[:6]]
        cluster.replicas[0].transport.kill()
        pendings += [cluster.submit(r) for r in reqs[6:]]
        cluster.drain()
        results = [p.result(timeout=0) for p in pendings]
        cluster.stop()
        assert cluster.stats.redispatched > 0
        assert {r.replica for r in results} == {1}
        assert_one_record_each(reqs, results, decisions(path))

    def test_crash_mid_forward_records_once(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        reqs = requests(8)
        crash = FaultInjector().fail_nth(
            "cluster.replica.forward", 1, exc=lambda msg: ReplicaCrashedError(msg)
        )
        cluster = make_cluster(path)
        cluster.launch()
        pendings = [cluster.submit(r) for r in reqs]
        with crash.active():
            cluster.drain()
        results = [p.result(timeout=0) for p in pendings]
        cluster.stop()
        assert cluster.stats.redispatched > 0
        assert_one_record_each(reqs, results, decisions(path))

    @pytest.mark.slow
    def test_fork_replica_sigkill_mid_run(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        reqs = requests(16)
        cluster = make_cluster(path, transport="fork")
        cluster.launch()
        try:
            pendings = [cluster.submit(r) for r in reqs]
            cluster.replicas[0].transport.kill()  # SIGKILL the child
            cluster.drain()  # the dead child's batch fails; its requests move
            results = [p.result(timeout=0) for p in pendings]
        finally:
            cluster.stop()
        assert cluster.stats.redispatched > 0
        assert {r.replica for r in results} == {1}
        assert_one_record_each(reqs, results, decisions(path))
