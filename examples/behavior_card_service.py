"""Behavior Card service demo — the paper's production deployment.

Fine-tunes a model on behavior data, stands up the scoring service and
pushes loan-decision traffic through it; every decision leaves one
audit record.

Run:  python examples/behavior_card_service.py
"""

from __future__ import annotations

import dataclasses

from repro.config import test_config
from repro.core import ZiGong
from repro.data import build_behavior_examples
from repro.datasets import make_behavior
from repro.serving import BehaviorCardService, EngineConfig, ScoreRequest
from repro.serving.behavior_card import default_scores

SEED = 0


def main() -> None:
    # Train the operational model on historical behavior data.
    history_data = make_behavior(n_users=60, n_periods=4, seed=SEED)
    examples = build_behavior_examples(history_data)
    config = test_config(seed=SEED)
    config = dataclasses.replace(
        config, training=dataclasses.replace(config.training, epochs=8), base_lr=5e-3
    )
    zigong = ZiGong.from_examples(examples, config=config)
    zigong.finetune(examples)
    print(f"operational model trained on {len(examples)} behavior windows")

    # Stand up the Behavior Card service: a one-replica serving cluster
    # whose replica micro-batches requests through the classifier.
    engine_config = EngineConfig(max_batch_size=4, queue_capacity=32)
    service = BehaviorCardService(zigong.classifier(), engine_config, threshold=0.5)

    # Incoming loan applications: the engine scores each micro-batch of
    # applicants in one padded forward pass.
    fresh = make_behavior(n_users=10, n_periods=4, seed=SEED + 1)
    last = fresh.n_periods - 1
    requests = [
        ScoreRequest(f"user-{user:03d}", fresh.row_text(user, last))
        for user in range(fresh.n_users)
    ]
    print("\nincoming decisions (micro-batched):")
    for result in service.score_requests(requests):
        verdict = "APPROVE" if result.approved else "DECLINE"
        print(f"  {result.user_id}  P(default)={result.score:.3f}  -> {verdict}  "
              f"(batch of {result.batch_size})")
    engine_stats = service.replicas[0].engine.stats
    print(f"engine: batches={engine_stats.batches}  "
          f"mean_batch_size={engine_stats.mean_batch_size:.1f}")

    # A single decision takes the same path and is audited the same way.
    repeat = service.decide("user-000", fresh.row_text(0, last))
    print(f"\nsingle decision for {repeat.user_id}: P(default)={repeat.score:.3f}")

    log = service.audit_log()
    approvals = sum(entry["approved"] for entry in log)
    print(f"decisions={service.stats.completed}  audit records={len(log)}  "
          f"approval_rate={approvals / len(log):.2f}")

    print("\nlast 3 audit records:")
    for entry in log[-3:]:
        print(f"  {entry['ts']:.0f}  {entry['kind']}  {entry['user_id']}  "
              f"score={entry['score']:.3f}  approved={entry['approved']}")

    # --- Production monitoring ----------------------------------------
    from repro.serving import DriftMonitor, ShadowDeployment

    # PSI drift monitor: reference = scores on the training-time cohort
    # (scored through the engine's batched path, like live traffic).
    reference = [
        r.score
        for r in service.score_requests([
            ScoreRequest(f"ref-{u}", history_data.row_text(u, last))
            for u in range(history_data.n_users)
        ])
    ]
    monitor = DriftMonitor(reference, window=200)
    drifted = make_behavior(n_users=40, n_periods=4, seed=SEED + 2,
                            default_rate=0.55)  # a riskier cohort arrives
    live = service.score_requests([
        ScoreRequest(f"new-{user}", drifted.row_text(user, last))
        for user in range(drifted.n_users)
    ])
    monitor.observe_many([r.score for r in live])
    print(f"\ndrift monitor after risky cohort: PSI={monitor.psi():.3f} "
          f"status={monitor.status()}")

    # Shadow deployment: the service serves live traffic and the
    # candidate scores the same behavior text beside it, as the online
    # learning loop does.
    candidate = ZiGong.from_examples(examples, config=config)
    candidate.finetune(examples[: len(examples) // 2])  # trained on less data
    candidate_classifier = candidate.classifier("candidate")
    shadow = ShadowDeployment(lambda text: default_scores(candidate_classifier, [text])[0])
    traffic = [
        ScoreRequest(f"shadow-{user}", fresh.row_text(user, last)) for user in range(10)
    ]
    for request, served in zip(traffic, service.score_requests(traffic)):
        shadow.compare(request.behavior_text, served.score)
    print(f"shadow deployment: agreement={shadow.agreement_rate():.2f} "
          f"score correlation={shadow.score_correlation():.2f} "
          f"disagreements={len(shadow.disagreements())}")


if __name__ == "__main__":
    main()
