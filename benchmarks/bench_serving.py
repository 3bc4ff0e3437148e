"""P2: serving-engine throughput — micro-batching and replica scaling.

Not a paper table; quantifies what the Behavior Card serving tier buys
(DESIGN.md; the paper's deployment surface).  Two effects are measured:

* **Micro-batching** — one padded forward pass over a batch amortizes
  the per-call overhead of the numpy substrate (>= 3x single-request
  at batch size >= 8; the ISSUE-1 acceptance claim).
* **Replica scaling** — on a stall-bound saturation workload (each
  batch carries a simulated feature-store/RPC stall, the dominant cost
  in real credit-scoring deployments) a multi-replica cluster overlaps
  the stalls that a single engine must serialize.  The ISSUE-7
  acceptance claim: >= 2.5x aggregate throughput at 4 replicas.
  A compute-bound arm (no stall) is reported alongside without an
  assertion — with every replica sharing one Python process on this
  box, pure-compute scaling is honest-to-goodness flat.

``BENCH_CLUSTER_REPLICAS`` (comma-separated, default ``1,2,4``) bounds
the replica sweep so CI smoke runs stay cheap.  Only the full sweep
rewrites the cluster section of ``results/serving.txt``; a bounded sweep
prints its section and leaves the committed evidence alone.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.serving import (
    BehaviorCardService,
    ClusterConfig,
    ClusterSupervisor,
    EngineConfig,
    MicroBatchEngine,
    ReplicaApp,
    ScoreRequest,
    zigong_replica_factory,
)

from conftest import RESULTS_DIR, save_result, synthetic_traffic, train_plain

N_REQUESTS = 64
BATCH_SIZES = (8, 16)

CLUSTER_REQUESTS = 96
CLUSTER_BATCH = 8
STALL_S = 0.05  # simulated per-batch feature-store / RPC stall
FULL_SWEEP = (1, 2, 4)
REPLICA_SWEEP = tuple(
    int(n) for n in os.environ.get("BENCH_CLUSTER_REPLICAS", "1,2,4").split(",")
)


@pytest.fixture(scope="module")
def zigong():
    """A quickly fine-tuned operational model (scores are irrelevant here)."""
    from repro.data import build_behavior_examples
    from repro.datasets import make_behavior

    examples = build_behavior_examples(make_behavior(n_users=24, n_periods=2, seed=0))
    return train_plain(examples, epochs=2)


@pytest.fixture(scope="module")
def classifier(zigong):
    return zigong.classifier()


@pytest.fixture(scope="module")
def traffic():
    return [
        ScoreRequest(user_id, text)
        for user_id, text in synthetic_traffic(N_REQUESTS)
    ]


def _requests_per_second(fn, n_requests: int) -> float:
    start = time.perf_counter()
    fn()
    return n_requests / (time.perf_counter() - start)


def _single_loop_rps(classifier, traffic) -> float:
    service = BehaviorCardService(classifier)

    def run():
        for request in traffic:
            service.decide(request.user_id, request.behavior_text)

    return _requests_per_second(run, len(traffic))


def _batched_rps(classifier, traffic, max_batch_size: int) -> float:
    service = BehaviorCardService(
        classifier,
        EngineConfig(max_batch_size=max_batch_size, queue_capacity=max(64, len(traffic))),
    )
    return _requests_per_second(
        lambda: service.score_requests(traffic), len(traffic)
    )


def test_micro_batching_throughput(benchmark, classifier, traffic):
    single_rps = _single_loop_rps(classifier, traffic)
    batched_rps = {b: _batched_rps(classifier, traffic, b) for b in BATCH_SIZES}

    benchmark(lambda: _batched_rps(classifier, traffic, BATCH_SIZES[0]))
    benchmark.extra_info["requests_per_call"] = len(traffic)

    lines = [
        f"serving throughput on {len(traffic)} synthetic requests (distinct texts)",
        "",
        f"{'mode':>24}  {'req/s':>10}  {'speedup':>8}",
        f"{'single-request loop':>24}  {single_rps:>10.1f}  {1.0:>8.2f}x",
    ]
    for batch_size, rps in batched_rps.items():
        lines.append(
            f"{f'micro-batch (B={batch_size})':>24}  {rps:>10.1f}  "
            f"{rps / single_rps:>8.2f}x"
        )
    save_result("serving", "\n".join(lines))

    # The acceptance claim: batching amortizes per-request overhead >= 3x.
    for batch_size, rps in batched_rps.items():
        assert rps >= 3.0 * single_rps, (
            f"micro-batch B={batch_size} only {rps / single_rps:.2f}x "
            f"single-request throughput"
        )


def test_engine_accounting_under_load(classifier, traffic):
    """Batched traffic leaves the same audit/stats trail as sequential."""
    service = BehaviorCardService(
        classifier,
        EngineConfig(max_batch_size=8, queue_capacity=len(traffic)),
    )
    results = service.score_requests(traffic)
    assert len(results) == len(traffic)
    assert service.stats.completed == len(traffic)
    assert len(service.audit_log()) == len(traffic)
    stats = service.replicas[0].engine.stats
    assert stats.completed == len(traffic)
    assert stats.batches == -(-len(traffic) // 8)  # ceil division
    assert stats.mean_batch_size == pytest.approx(8.0)


# ----------------------------------------------------------------------
# Replica scaling (ISSUE-7): cluster vs single engine under saturation
# ----------------------------------------------------------------------

CLUSTER_MARKER = "--- cluster replica scaling ---"


def _factory(zigong, stall_s: float = 0.0):
    """Replica factory over the real model, with an optional I/O stall."""
    base = zigong_replica_factory(zigong)

    def factory(replica_id: int) -> ReplicaApp:
        app = base(replica_id)
        if stall_s == 0.0:
            return app

        def batch_fn(requests):
            time.sleep(stall_s)  # feature-store / RPC round trip
            return app.batch_fn(requests)

        return ReplicaApp(
            batch_fn=batch_fn,
            swap_weights=app.swap_weights,
            weight_version=app.weight_version,
        )

    return factory


def _single_engine_rps(factory, traffic) -> float:
    app = factory(0)
    engine = MicroBatchEngine(
        batch_fn=app.batch_fn,
        config=EngineConfig(
            max_batch_size=CLUSTER_BATCH, queue_capacity=len(traffic) + 8
        ),
    )
    engine.start()
    start = time.perf_counter()
    pendings = [engine.submit(r) for r in traffic]
    for p in pendings:
        p.result(timeout=120.0)
    elapsed = time.perf_counter() - start
    engine.stop(drain=False)
    return len(traffic) / elapsed


def _cluster_rps(factory, traffic, replicas: int) -> float:
    cluster = ClusterSupervisor(
        factory,
        ClusterConfig(
            replicas=replicas,
            max_batch_size=CLUSTER_BATCH,
            queue_capacity=len(traffic) + 8,
        ),
    )
    cluster.start()
    start = time.perf_counter()
    pendings = [cluster.submit(r) for r in traffic]
    for p in pendings:
        p.result(timeout=120.0)
    elapsed = time.perf_counter() - start
    cluster.stop()
    return len(traffic) / elapsed


def _append_cluster_section(lines) -> None:
    """Replace the cluster section of serving.txt, keep the batching one.

    A bounded sweep only prints its section: the file holds the full one.
    """
    section = "\n".join([CLUSTER_MARKER, *lines])
    print()
    print(section)
    if REPLICA_SWEEP != FULL_SWEEP:
        return
    path = RESULTS_DIR / "serving.txt"
    head = ""
    if path.exists():
        head = path.read_text().split(CLUSTER_MARKER)[0].rstrip() + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(head + "\n" + section + "\n")


def test_cluster_replica_scaling(zigong):
    traffic = [
        ScoreRequest(user_id, text)
        for user_id, text in synthetic_traffic(CLUSTER_REQUESTS)
    ]
    stalled = _factory(zigong, STALL_S)
    single_rps = _single_engine_rps(stalled, traffic)
    cluster_rps = {n: _cluster_rps(stalled, traffic, n) for n in REPLICA_SWEEP}

    # Compute-bound control arm: same sweep top-end, no stall.  All
    # replicas share one interpreter, so this is expected ~flat.
    compute_single = _single_engine_rps(_factory(zigong), traffic)
    compute_top = _cluster_rps(_factory(zigong), traffic, max(REPLICA_SWEEP))

    lines = [
        f"saturation workload: {CLUSTER_REQUESTS} requests, batch {CLUSTER_BATCH}, "
        f"{STALL_S * 1000:.0f}ms simulated I/O stall per batch",
        "",
        f"{'mode':>24}  {'req/s':>10}  {'speedup':>8}",
        f"{'single engine':>24}  {single_rps:>10.1f}  {1.0:>8.2f}x",
    ]
    for n, rps in sorted(cluster_rps.items()):
        lines.append(
            f"{f'cluster ({n} replicas)':>24}  {rps:>10.1f}  {rps / single_rps:>8.2f}x"
        )
    lines += [
        "",
        "compute-bound control (no stall, shared interpreter):",
        f"{'single engine':>24}  {compute_single:>10.1f}  {1.0:>8.2f}x",
        f"{f'cluster ({max(REPLICA_SWEEP)} replicas)':>24}  {compute_top:>10.1f}  "
        f"{compute_top / compute_single:>8.2f}x",
    ]
    _append_cluster_section(lines)

    # The ISSUE-7 acceptance claim, asserted only when the sweep runs
    # the full 4-replica configuration (CI smoke runs a shorter sweep).
    if 4 in REPLICA_SWEEP:
        assert cluster_rps[4] >= 2.5 * single_rps, (
            f"4-replica cluster only {cluster_rps[4] / single_rps:.2f}x "
            f"single-engine throughput"
        )
