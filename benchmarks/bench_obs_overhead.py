"""P3: observability overhead — instrumented vs uninstrumented serving.

An observability layer only earns its place on the hot path if it is
effectively free.  This benchmark drives the same micro-batched traffic
as ``bench_serving.py`` through Behavior Card services that differ only
in their hub: one fully wired :class:`~repro.obs.Observability` (metrics
and spans), one ``Observability.disabled()``.  It asserts that the
median cost of instrumentation stays under the 3 % budget.

Timing is :func:`conftest.paired_timing`: ``ROUNDS`` rounds in rotating
order, each side timed as the driving thread's CPU time of
``score_requests`` with BLAS pinned to one thread, gated on the median
of the per-round overheads (their IQR is reported beside it).  A third
side runs instrumented with an ``audit_path`` file (``repro serve
--audit``): the audit trail is a record the service must keep, not
instrumentation, so its cost is reported next to the ring-only number
and not gated.

It also records a run file (events + a final metrics snapshot) and
renders it through the same path as ``repro obs report``, so the
recorded-run tooling is exercised on real serving traffic.
"""

from __future__ import annotations

import statistics

import pytest

from repro.obs import Observability, read_events, render_report
from repro.serving import BehaviorCardService, EngineConfig, ScoreRequest

from conftest import paired_timing, save_result, synthetic_traffic, train_plain

N_REQUESTS = 64
ROUNDS = 60
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


def _make_service(classifier, traffic, obs, audit_path=None):
    return BehaviorCardService(
        classifier,
        EngineConfig(max_batch_size=8, queue_capacity=max(64, len(traffic))),
        obs=obs,
        audit_path=audit_path,
    )


def test_obs_overhead(classifier, traffic, tmp_path):
    audit_path = tmp_path / "audit.jsonl"
    services = []

    def side(obs_factory, audit=None):
        def build():
            services.append(_make_service(classifier, traffic, obs_factory(), audit))
            return lambda service=services[-1]: service.score_requests(traffic)

        return build

    timing = paired_timing(
        {
            "disabled": side(Observability.disabled),
            "enabled": side(Observability.create),
            "enabled + audit file": side(Observability.create, audit_path),
        },
        rounds=ROUNDS,
    )
    for service in services:
        service.stop(drain=False)
    overhead = timing.median("enabled")

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

    def per_request_us(name: str) -> float:
        return statistics.median(timing.seconds[name]) / len(traffic) * 1e6

    lines = [
        f"observability overhead on {len(traffic)} micro-batched requests "
        f"(median of {ROUNDS} rotating rounds, thread CPU time, BLAS pinned to one "
        f"thread: {'yes' if timing.blas_pinned else 'no, not found'})",
        "",
        f"  disabled              {per_request_us('disabled'):7.1f} us/request  (base)",
        f"  enabled               {per_request_us('enabled'):7.1f} us/request  "
        f"{timing.row('enabled')}",
        f"  enabled + audit file  {per_request_us('enabled + audit file'):7.1f} us/request  "
        f"{timing.row('enabled + audit file')}",
        "",
        f"  gate: enabled median {overhead * 100:+.2f} % < budget {MAX_OVERHEAD * 100:.0f} %; "
        "the audit-file row is reported, not gated",
        "",
        "recorded-run report (metrics + spans from the instrumented run):",
        "",
        report,
    ]
    save_result("obs_overhead", "\n".join(lines))

    assert overhead < MAX_OVERHEAD, (
        f"instrumentation costs a median {overhead * 100:.2f} % "
        f"(budget {MAX_OVERHEAD * 100:.0f} %)"
    )
