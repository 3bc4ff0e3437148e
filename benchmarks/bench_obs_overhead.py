"""P3: observability overhead — instrumented vs uninstrumented serving.

An observability layer only earns its place on the hot path if it is
effectively free.  This benchmark drives the same micro-batched traffic
as ``bench_serving.py`` through two Behavior Card services — one with a
fully wired :class:`~repro.obs.Observability` hub (metrics + spans +
JSON-lines events), one with ``Observability.disabled()`` — and asserts
the throughput cost of instrumentation stays under the ~3 % budget
(ISSUE-2 acceptance).  Alternating best-of-``REPEATS`` timing keeps the
comparison robust to scheduler noise.

It also records a run file (events + a final metrics snapshot) and
renders it through the same path as ``repro obs report``, so the
recorded-run tooling is exercised on real serving traffic.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import Observability, read_events, render_report
from repro.serving import BehaviorCardConfig, BehaviorCardService, ScoreRequest

from conftest import save_result, synthetic_traffic, train_plain

N_REQUESTS = 64
REPEATS = 3
MAX_OVERHEAD = 0.03


@pytest.fixture(scope="module")
def classifier():
    """A quickly fine-tuned operational model (scores are irrelevant here)."""
    from repro.data import build_behavior_examples
    from repro.datasets import make_behavior

    examples = build_behavior_examples(make_behavior(n_users=24, n_periods=2, seed=0))
    return train_plain(examples, epochs=2).classifier()


@pytest.fixture(scope="module")
def traffic():
    return [
        ScoreRequest(user_id, text)
        for user_id, text in synthetic_traffic(N_REQUESTS)
    ]


def _make_service(classifier, traffic, obs):
    return BehaviorCardService(
        classifier,
        BehaviorCardConfig(max_batch_size=8, queue_capacity=max(64, len(traffic))),
        obs=obs,
    )


def _time_run(classifier, traffic, obs) -> float:
    service = _make_service(classifier, traffic, obs)
    start = time.perf_counter()
    service.score_requests(traffic)
    return time.perf_counter() - start


def test_obs_overhead(classifier, traffic, tmp_path):
    # Warm both paths once (numpy buffers, code paths) before timing.
    _time_run(classifier, traffic, Observability.disabled())
    _time_run(classifier, traffic, Observability.create())

    disabled_times, enabled_times = [], []
    for _ in range(REPEATS):
        disabled_times.append(_time_run(classifier, traffic, Observability.disabled()))
        enabled_times.append(_time_run(classifier, traffic, Observability.create()))

    best_disabled = min(disabled_times)
    best_enabled = min(enabled_times)
    overhead = best_enabled / best_disabled - 1.0

    # A recorded run: instrumented traffic with an event sink attached,
    # snapshotted at the end — exactly what `repro obs report` consumes.
    run_path = tmp_path / "obs_run.jsonl"
    recording = Observability.create(events_path=run_path)
    service = _make_service(classifier, traffic, recording)
    service.score_requests(traffic)
    recording.events.emit_metrics(recording.metrics)
    recording.events.close()
    report = render_report(read_events(run_path))
    assert "serving.latency_s" in report
    assert "serving.batch" in report

    lines = [
        f"observability overhead on {len(traffic)} micro-batched requests "
        f"(best of {REPEATS})",
        "",
        f"  disabled  {best_disabled * 1000:8.1f} ms  "
        f"({len(traffic) / best_disabled:7.1f} req/s)",
        f"  enabled   {best_enabled * 1000:8.1f} ms  "
        f"({len(traffic) / best_enabled:7.1f} req/s)",
        f"  overhead  {overhead * 100:+7.2f} %  (budget {MAX_OVERHEAD * 100:.0f} %)",
        "",
        "recorded-run report (metrics + spans from the instrumented run):",
        "",
        report,
    ]
    save_result("obs_overhead", "\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"instrumentation costs {overhead * 100:.2f} % throughput "
        f"(budget {MAX_OVERHEAD * 100:.0f} %)"
    )
