"""P5: resilience overhead — fault containment on the happy path.

Fault containment lives in the cluster supervisor: a circuit breaker
per replica, fault points the chaos tests arm, and redispatch off
crashed replicas.  On the happy path a request pays one
``breaker.allow()`` when the supervisor routes it, and a replica batch
pays, in its settle step, one counted ``record_success(n)`` on its
breaker.  It only earns its place if a healthy service cannot tell it
is there, so this benchmark pins that cost under the 2 % budget.

Timing is :func:`conftest.paired_timing` (rotating rounds, the driving
thread's CPU time, BLAS pinned to one thread) over three sides, each
serving the same traffic:

* ``bare engine`` — a :class:`MicroBatchEngine` on its own;
* ``cluster, inert breaker`` — a one-replica synchronous
  :class:`ClusterSupervisor` (observability disabled) whose replica
  breaker admits everything and records nothing;
* ``cluster`` — the same supervisor with its real breaker.

The gate is the median of ``cluster`` over ``cluster, inert breaker``:
both run the supervisor's whole request path (routing, dispatch, the
settle step, the audit ring), so the ratio is the breaker's cost where
the cluster pays it.  ``cluster`` over ``bare engine`` is everything
the supervisor adds to a request, audit records included; it is
reported, not gated, since the audit trail is not fault containment.

The scorer is synthetic (a fixed numpy matmul sized like a tiny
batched forward pass) so every timed run does identical work — a live
``LMClassifier`` carries prompt/KV caches whose eviction regimes shift
between runs.

The benchmark then runs a short outage on a 2-replica thread cluster:
replica 0's forward fails at its ``cluster.replica.forward`` fault
point until its breaker opens, after which routing sends all traffic
to replica 1.  The registry is rendered so the
``resilience.breaker.*`` counters appear in the recorded output
alongside the serving and cluster metrics.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.errors import InjectedFault
from repro.obs import Observability, render_registry
from repro.resilience import FaultInjector
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    EngineConfig,
    MicroBatchEngine,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
)

from conftest import paired_timing, save_result, synthetic_traffic

N_REQUESTS = 64
PASSES = 6  # serve the traffic this many times per timed run
ROUNDS = 60
MAX_OVERHEAD = 0.02

# Fixed operands for the synthetic forward pass: deterministic content,
# sized so one "batch forward" costs on the order of a tiny model's.
_X = np.linspace(-1.0, 1.0, 8 * 512, dtype=np.float32).reshape(8, 512)
_W = np.linspace(-0.5, 0.5, 512 * 512, dtype=np.float32).reshape(512, 512)


def synthetic_batch_fn(requests):
    h = np.tanh(_X[: len(requests)] @ _W) @ _W[:, :1]
    return [
        ScoreResult(r.user_id, float(abs(s) % 1.0), bool(s < 0), 0.5)
        for r, s in zip(requests, h[:, 0])
    ]


def _bare(traffic):
    engine = MicroBatchEngine(
        synthetic_batch_fn,
        EngineConfig(max_batch_size=8, queue_capacity=max(64, N_REQUESTS)),
        obs=Observability.disabled(),
    )
    return lambda: [engine.serve(traffic) for _ in range(PASSES)]


class _InertBreaker:
    """A breaker that admits every request and records nothing."""

    state = "closed"

    def allow(self) -> bool:
        return True

    def record_success(self, n: int = 1) -> None:
        pass

    def record_failure(self, n: int = 1) -> None:
        pass


def _cluster(traffic, inert: bool):
    """A one-replica synchronous cluster, launched; ``inert`` swaps its breaker out."""
    cluster = ClusterSupervisor(
        lambda replica_id: ReplicaApp(batch_fn=synthetic_batch_fn),
        ClusterConfig(replicas=1, max_batch_size=8, queue_capacity=max(64, N_REQUESTS)),
        obs=Observability.disabled(),
    )
    cluster.launch()
    if inert:
        cluster.replicas[0].breaker = _InertBreaker()
    return lambda: [cluster.serve(traffic) for _ in range(PASSES)]


def _outage(traffic) -> tuple[list, list[ScoreResult], ClusterSupervisor, str]:
    """Replica 0 fails until its breaker opens; later traffic goes to replica 1."""
    obs = Observability.create()
    cluster = ClusterSupervisor(
        lambda replica_id: ReplicaApp(batch_fn=synthetic_batch_fn),
        ClusterConfig(replicas=2, max_batch_size=8, queue_capacity=max(64, N_REQUESTS)),
        # A frozen breaker clock: the open breaker never times out into
        # a half-open probe, however long the run takes.
        breaker_clock=lambda: 0.0,
        obs=obs,
    )
    outage = FaultInjector(seed=0).fail_when("cluster.replica.forward", replica=0)
    with outage.active():
        first = [cluster.submit(request) for request in traffic[:16]]
        cluster.drain()
        later = cluster.serve(traffic[16:48])
    cluster.stop()
    return first, later, cluster, render_registry(obs.metrics)


def test_resilience_overhead():
    traffic = [
        ScoreRequest(user_id, text)
        for user_id, text in synthetic_traffic(N_REQUESTS)
    ]
    batches_per_run = -(-len(traffic) // 8) * PASSES  # ceil-div batches

    timing = paired_timing(
        {
            "bare engine": lambda: _bare(traffic),
            "cluster, inert breaker": lambda: _cluster(traffic, inert=True),
            "cluster": lambda: _cluster(traffic, inert=False),
        },
        rounds=ROUNDS,
    )
    overhead = timing.median("cluster", base="cluster, inert breaker")
    bare = statistics.median(timing.seconds["bare engine"])

    first, later, cluster, report = _outage(traffic)
    failed = [p for p in first if p.error is not None]
    assert failed and all(isinstance(p.error, InjectedFault) for p in failed)
    assert cluster.replicas[0].breaker.state == "open"
    assert {result.replica for result in later} == {1}  # routed around replica 0
    assert "resilience.breaker.open" in report

    served = len(traffic) * PASSES
    lines = [
        f"resilience happy-path overhead ({served} micro-batched requests per run, "
        f"median of {ROUNDS} rotating rounds, thread CPU time, BLAS pinned to one "
        f"thread: {'yes' if timing.blas_pinned else 'no, not found'})",
        "",
        f"  bare engine                {bare * 1000:8.1f} ms  "
        f"({bare / batches_per_run * 1e6:6.1f} us/batch)",
        f"  breaker on the cluster path  {timing.row('cluster', base='cluster, inert breaker')}",
        f"      (one-replica synchronous cluster, real breaker over an inert one: "
        f"allow() per request, counted record per batch; budget {MAX_OVERHEAD * 100:.0f} %)",
        f"  cluster over bare engine     {timing.row('cluster')}",
        "      (routing, dispatch, settle step, audit ring and breaker; reported, not gated)",
        "",
        "outage-scenario registry (replica 0's forward fails, its breaker "
        f"opens; {len(failed)} requests failed, the next {len(later)} served "
        "by replica 1):",
        "",
        report,
    ]
    save_result("resilience", "\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"the breaker costs a median {overhead * 100:.2f} % of the cluster's happy path "
        f"(budget {MAX_OVERHEAD * 100:.0f} %)"
    )
