"""P5: resilience overhead — the engine's fault point on the happy path.

Fault containment lives in the cluster supervisor (a circuit breaker
per replica, redispatch off crashed replicas); the engine itself adds
one thing per batch, the uninstalled ``serving.forward`` fault point
the chaos tests arm.  It only earns its place if a healthy service
cannot tell it is there, so this benchmark pins its happy-path cost
under the 2 % budget.

The budget is asserted compositionally: the fault point, called
exactly as ``MicroBatchEngine._score_batch`` calls it, is timed in a
tight loop, amortized to nanosecond stability, and divided by the
measured per-batch cost of a bare engine serving real micro-batched
traffic.  A naive wall-clock A/B of two full serving runs would flip
sign run-to-run under scheduler and allocator noise at this budget,
while the compositional ratio is deterministic to well under a tenth
of it.  The cluster's per-request ``breaker.allow()`` /
``record_success()`` is not part of this gate.

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

import gc
import time

import numpy as np

from repro.errors import InjectedFault
from repro.obs import Observability, render_registry
from repro.resilience import FaultInjector
from repro.resilience.faults import fault_point
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    EngineConfig,
    MicroBatchEngine,
    ReplicaApp,
    ScoreRequest,
    ScoreResult,
)

from conftest import save_result, synthetic_traffic

N_REQUESTS = 64
PASSES = 6  # serve the traffic this many times per timed run
REPEATS = 5
WRAPPER_ITERS = 20000
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


def _time_serve(traffic) -> float:
    engine = MicroBatchEngine(
        synthetic_batch_fn,
        EngineConfig(max_batch_size=8, queue_capacity=max(64, N_REQUESTS)),
        obs=Observability.disabled(),
    )
    # Collector pauses land at arbitrary points and cost more than the
    # entire budget; collect up front, then keep the GC out of the run.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(PASSES):
            engine.serve(traffic)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _time_fault_point_per_batch(batch_size: int) -> float:
    """Amortized cost of the uninstalled fault point, once per batch."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(WRAPPER_ITERS):
            fault_point("serving.forward", batch_size=batch_size)
        return (time.perf_counter() - start) / WRAPPER_ITERS
    finally:
        gc.enable()


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

    _time_serve(traffic)  # warm numpy buffers and code paths before timing
    best_bare = min(_time_serve(traffic) for _ in range(REPEATS))
    bare_per_batch = best_bare / batches_per_run

    fault_point_per_batch = _time_fault_point_per_batch(8)
    overhead = fault_point_per_batch / bare_per_batch

    first, later, cluster, report = _outage(traffic)
    failed = [p for p in first if p.error is not None]
    assert failed and all(isinstance(p.error, InjectedFault) for p in failed)
    assert cluster.replicas[0].breaker.state == "open"
    assert {result.replica for result in later} == {1}  # routed around replica 0
    assert "resilience.breaker.open" in report

    served = len(traffic) * PASSES
    lines = [
        f"resilience happy-path overhead ({served} micro-batched requests "
        f"per run, best of {REPEATS})",
        "",
        f"  bare serve          {best_bare * 1000:8.1f} ms  "
        f"({served / best_bare:7.1f} req/s; {bare_per_batch * 1e6:6.1f} us/batch)",
        f"  fault point cost    {fault_point_per_batch * 1e6:8.3f} us/batch  "
        f"(uninstalled serving.forward, x{WRAPPER_ITERS})",
        f"  overhead            {overhead * 100:+7.3f} %  "
        f"(budget {MAX_OVERHEAD * 100:.0f} %)",
        "",
        "outage-scenario registry (replica 0's forward fails, its breaker "
        f"opens; {len(failed)} requests failed, the next {len(later)} served "
        "by replica 1):",
        "",
        report,
    ]
    save_result("resilience", "\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"the serving.forward fault point costs {overhead * 100:.2f} % of the "
        f"per-batch happy path (budget {MAX_OVERHEAD * 100:.0f} %)"
    )
