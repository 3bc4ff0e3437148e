"""Chaos regression suite for the serving cluster.

Every scenario follows the same shape: submit real traffic, break
something *mid-flight* (SIGKILL a fork replica, trip a breaker during a
rolling deploy, crash the health-check loop itself), then prove two
things — **no submitted request is silently dropped** (each resolves
with a result or an explicit error) and **the cluster converges back to
healthy**.  The obs trail is part of the contract: restart / swap
counters must be visible in ``repro obs report`` output.

Fast deterministic scenarios run in tier-1; the fork/SIGKILL and
threaded-loop scenarios are marked ``slow`` and run in the CI
``cluster`` job (``-m "slow or chaos"``).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import InjectedFault, ReplicaCrashedError
from repro.obs import Observability, read_events, render_report
from repro.resilience import FaultInjector
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
)
from repro.serving import cluster as cluster_module


pytestmark = pytest.mark.chaos


def stub_factory(replica_id: int) -> ReplicaApp:
    box = {"version": 1}

    def batch_fn(requests):
        return [
            ScoreResult(
                user_id=r.user_id,
                score=(len(r.behavior_text) % 10) / 10.0 + 0.05,
                approved=True,
                threshold=0.5,
            )
            for r in requests
        ]

    def swap(state):
        box["version"] += 1

    return ReplicaApp(
        batch_fn=batch_fn, swap_weights=swap, weight_version=lambda: box["version"]
    )


def requests(n: int) -> list[ScoreRequest]:
    return [ScoreRequest(f"user-{i}", f"txn {'x' * (i % 11)}") for i in range(n)]


def assert_nothing_dropped(pendings) -> tuple[int, int]:
    """Every pending resolved — with a result or an explicit error."""
    completed = failed = 0
    for p in pendings:
        assert p.done, f"request {p.request.user_id} was silently dropped"
        if p.error is None:
            completed += 1
        else:
            failed += 1
    return completed, failed


class TestKillMidBatch:
    def test_thread_replica_killed_between_submits(self):
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2))
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(6)]
        cluster.replicas[0].transport.kill()
        pendings += [cluster.submit(r) for r in requests(4)]
        cluster.drain()
        completed, failed = assert_nothing_dropped(pendings)
        assert completed == 10 and failed == 0  # survivor rescued everything
        cluster.check_health()
        assert cluster.healthy_count() == 2
        cluster.stop()

    def test_forward_fault_mid_batch_redispatches(self):
        injector = FaultInjector().fail_nth(
            "cluster.replica.forward",
            1,
            exc=lambda msg: ReplicaCrashedError(msg),
        )
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2))
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(8)]
        with injector.active():
            cluster.drain()
        completed, failed = assert_nothing_dropped(pendings)
        assert completed == 8 and failed == 0
        assert cluster.stats.redispatched > 0
        cluster.check_health()
        assert cluster.healthy_count() == 2
        cluster.stop()

    @pytest.mark.slow
    def test_fork_replica_sigkill_mid_batch(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "RPC_TIMEOUT_S", 15.0)
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2, transport="fork"))
        cluster.start()
        try:
            pendings = [cluster.submit(r) for r in requests(8)]
            victim = cluster.replicas[0]
            os.kill(victim.transport.pid, signal.SIGKILL)
            results = [p.result(timeout=30.0) for p in pendings if p.error is None]
            completed, failed = assert_nothing_dropped(pendings)
            assert completed + failed == 8
            assert completed >= 4  # at minimum the survivor's share
            assert all(r.replica in (0, 1) for r in results)
            deadline = time.time() + 10.0
            while cluster.healthy_count() < 2 and time.time() < deadline:
                time.sleep(0.05)
            assert cluster.healthy_count() == 2  # auto-restart converged
            assert cluster.stats.restarts >= 1
        finally:
            cluster.stop()


class TestBreakerTripMidDeploy:
    def test_swap_crash_restarts_with_staged_weights(self):
        injector = FaultInjector().fail_nth(
            "cluster.deploy.swap",
            1,
            exc=lambda msg: ReplicaCrashedError(msg),
        )
        obs = Observability.create()
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2), obs=obs)
        cluster.launch()
        with injector.active():
            swapped = cluster.deploy({"w": 2.0})
        assert swapped == 2
        # Replica 0 crashed mid-swap, was restarted, and the restart
        # applied the staged weights — both replicas converge on v2.
        assert set(cluster.weight_versions().values()) == {2}
        assert cluster.stats.restarts == 1
        assert cluster.healthy_count() == 2
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cluster.replica_restarted"] == 1
        cluster.stop()

    def test_breaker_opens_then_deploy_still_converges(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "BREAKER_MIN_CALLS", 1)
        obs = Observability.create()
        cluster = ClusterSupervisor(
            stub_factory,
            ClusterConfig(replicas=2),
            obs=obs,
        )
        cluster.launch()
        # Trip replica 0's breaker with real crash traffic.
        cluster.replicas[0].transport.kill()
        pendings = [cluster.submit(r) for r in requests(6)]
        cluster.drain()
        assert cluster.replicas[0].breaker.state == "open"
        assert_nothing_dropped(pendings)
        # Deploy mid-outage: the dead replica picks the staged weights
        # up on restart; the live one swaps in place.
        cluster.deploy({"w": 9.0})
        cluster.check_health()
        assert set(cluster.weight_versions().values()) == {2}
        assert cluster.healthy_count() == 2
        assert cluster.replicas[0].breaker.state == "closed"
        cluster.stop()


class TestHealthLoopCrash:
    def test_sweep_crash_is_survivable(self):
        injector = FaultInjector().fail_times("cluster.health_check", 2)
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2))
        cluster.launch()
        cluster.replicas[0].transport.kill()
        cluster.serve(requests(4))
        with injector.active():
            with pytest.raises(InjectedFault):
                cluster.check_health()
            with pytest.raises(InjectedFault):
                cluster.check_health()
            # Third sweep runs clean and restarts the dead replica.
            states = cluster.check_health()
        assert states[0] == "healthy"
        assert cluster.healthy_count() == 2
        cluster.stop()

    @pytest.mark.slow
    def test_threaded_loop_survives_sweep_crashes(self, monkeypatch):
        monkeypatch.setattr(cluster_module, "HEALTH_INTERVAL_S", 0.02)
        injector = FaultInjector().fail_times("cluster.health_check", 3)
        obs = Observability.create()
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2), obs=obs)
        with injector.active():
            cluster.start()
            try:
                cluster.replicas[0].transport.kill()
                # Wait until the loop has both absorbed the injected
                # sweep crashes and restarted the killed replica.
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    counters = obs.metrics.snapshot()["counters"]
                    if (
                        counters.get("cluster.health_check_errors", 0) >= 3
                        and cluster.stats.restarts >= 1
                    ):
                        break
                    time.sleep(0.02)
                assert cluster.healthy_count() == 2
                counters = obs.metrics.snapshot()["counters"]
                assert counters["cluster.health_check_errors"] == 3
                assert counters["cluster.replica_restarted"] >= 1
                pendings = [cluster.submit(r) for r in requests(6)]
                assert all(p.result(timeout=10.0) for p in pendings)
            finally:
                cluster.stop()


class TestObsReportVisibility:
    def test_restart_and_swap_counters_in_report(self, tmp_path):
        """The acceptance trail: chaos counters land in `repro obs report`."""
        events_path = tmp_path / "cluster-run.jsonl"
        obs = Observability.create(events_path=events_path)
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2), obs=obs)
        cluster.launch()
        pendings = [cluster.submit(r) for r in requests(6)]
        cluster.replicas[0].transport.kill()
        cluster.drain()
        cluster.check_health()
        cluster.deploy({"w": 2.0})
        assert_nothing_dropped(pendings)
        obs.events.emit_metrics(obs.metrics)
        cluster.stop()
        obs.events.close()

        report = render_report(read_events(events_path))
        assert "cluster.replica_restarted" in report
        assert "cluster.deploy_swapped" in report
        assert "cluster.replica" in report  # lifecycle events tallied

    def test_report_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        events_path = tmp_path / "run.jsonl"
        obs = Observability.create(events_path=events_path)
        cluster = ClusterSupervisor(stub_factory, ClusterConfig(replicas=2), obs=obs)
        cluster.launch()
        cluster.serve(requests(4))
        cluster.replicas[1].transport.kill()
        cluster.serve(requests(2))
        cluster.check_health()
        obs.events.emit_metrics(obs.metrics)
        cluster.stop()
        obs.events.close()

        assert main(["obs", "report", "--events", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "cluster.replica_restarted" in out
        assert "cluster.submitted" in out
