"""End-to-end integration: pipeline -> serving -> monitoring -> scorecard.

Small but *real*: a full TracSeq pipeline run, the resulting model
deployed in the Behavior Card service, decisions monitored for drift,
and scaled to scorecard points.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import test_config as make_test_config
from repro.core import PipelineConfig, PrunerConfig, ZiGongPipeline
from repro.data import (
    build_behavior_examples,
    deduplicate_examples,
    drop_conflicting_examples,
)
from repro.datasets import make_behavior
from repro.eval import evaluate, EvalSample
from repro.serving import (
    BehaviorCardService,
    DriftMonitor,
    ScorecardScaler,
)


@pytest.fixture(scope="module")
def deployed():
    """Run the pipeline once and deploy the resulting model."""
    dataset = make_behavior(n_users=60, n_periods=4, seed=0)
    raw = build_behavior_examples(dataset)
    # Quantized prompts can collide across users; run the standard
    # hygiene pass (dedupe, drop label conflicts) before training.
    examples = drop_conflicting_examples(deduplicate_examples(raw))
    assert len({e.prompt for e in examples}) == len(examples)

    base = make_test_config()
    config = PipelineConfig(
        zigong=dataclasses.replace(
            base, training=dataclasses.replace(base.training, epochs=4), base_lr=5e-3
        ),
        pruner=PrunerConfig(strategy="tracseq", gamma=0.8, projection_dim=64),
    )
    split = len(examples) - 40
    result = ZiGongPipeline(config).run(examples[:split], examples[split : split + 20])
    service = BehaviorCardService(result.zigong.classifier(), threshold=0.5)
    return dataset, result, service


class TestPipelineToService:
    def test_service_produces_decisions(self, deployed):
        dataset, _, service = deployed
        decision = service.decide("u-0", dataset.row_text(0, dataset.n_periods - 1))
        assert 0.0 <= decision.score <= 1.0
        assert isinstance(decision.approved, bool)

    def test_model_beats_chance_on_holdout(self, deployed):
        dataset, result, _ = deployed
        raw = build_behavior_examples(dataset)
        holdout = drop_conflicting_examples(deduplicate_examples(raw))[-20:]
        samples = [
            EvalSample(e.prompt, e.label, "yes", "no") for e in holdout
        ]
        res = evaluate(result.zigong.classifier(), samples, "behavior")
        assert res.miss <= 0.1
        assert res.accuracy >= 0.5

    def test_drift_monitor_stable_on_same_cohort(self, deployed):
        dataset, _, service = deployed
        last = dataset.n_periods - 1
        reference = [
            service.decide(f"r{u}", dataset.row_text(u, last)).score
            for u in range(dataset.n_users)
        ]
        monitor = DriftMonitor(reference, window=100)
        monitor.observe_many(
            service.decide(f"m{u}", dataset.row_text(u, last)).score
            for u in range(dataset.n_users)
        )
        assert monitor.psi() < 0.05  # identical traffic: no drift

    def test_scorecard_view_of_decisions(self, deployed):
        dataset, _, service = deployed
        scaler = ScorecardScaler()
        decision = service.decide("sc-0", dataset.row_text(1, dataset.n_periods - 1))
        points = scaler.score(decision.score)
        assert scaler.min_score <= points <= scaler.max_score
        assert scaler.band(decision.score) in ("excellent", "good", "fair", "poor")

    def test_audit_log_covers_all_requests(self, deployed):
        _, _, service = deployed
        assert len(service.audit_log()) == service.stats.completed
