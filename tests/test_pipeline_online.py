"""Online-learning pipeline: state machine, gate contract, golden e2e run.

Chaos scenarios (kill mid-retrain, rollback, shadow-error storm) live in
``test_pipeline_chaos.py``; this file covers the sunny-day machinery.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.config import test_config as make_config
from repro.core import ZiGong
from repro.data import build_behavior_examples
from repro.datasets import make_behavior
from repro.errors import ConfigError, PipelineError
from repro.eval import EvalResult
from repro.obs import EventSink, MetricsRegistry, Observability, Tracer
from repro.pipeline import (
    MONITOR,
    PHASE_CODES,
    PROMOTE,
    RETRAIN,
    SHADOW,
    OnlineConfig,
    OnlinePipeline,
    PipelineState,
    PromotionGate,
    evaluate_gate,
)
from repro.serving import ClusterConfig, ScoreRequest, ShadowDeployment

SEED = 3


# ----------------------------------------------------------------------
# Shared scenario: a trained base model plus live behavior traffic
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def scenario():
    """Base model + examples + traffic for every pipeline test."""
    dataset = make_behavior(n_users=24, n_periods=4, seed=SEED)
    examples = build_behavior_examples(dataset)
    base = ZiGong.from_examples(examples, config=make_config(seed=0))
    base.apply_lora()
    base.finetune(examples[:48])
    traffic = [
        ScoreRequest(user_id=f"u{user}-{period}", behavior_text=dataset.row_text(user, period))
        for user in range(dataset.n_users)
        for period in range(dataset.n_periods)
    ]
    return base, examples, traffic


def clone_model(base: ZiGong) -> ZiGong:
    """A fresh ZiGong carrying ``base``'s weights (pipelines mutate theirs)."""
    clone = ZiGong(base.config, base.tokenizer)
    clone.apply_lora()
    clone.model.load_state_dict({k: v.copy() for k, v in base.model.state_dict().items()})
    return clone


def recording_obs() -> Observability:
    """An enabled hub with an in-memory event ring."""
    metrics = MetricsRegistry()
    events = EventSink()
    return Observability(metrics=metrics, tracer=Tracer(metrics=metrics, events=events),
                         events=events)


def loop_config(**overrides) -> OnlineConfig:
    defaults = dict(
        drift_window=48,
        min_observations=16,
        n_bins=8,
        retrain_window=64,
        min_retrain_examples=8,
        keep_fraction=0.6,
        retrain_epochs=1,
        shadow_requests=10,
        shadow_window=32,
        gate=PromotionGate(min_shadow_requests=8, min_agreement=0.0,
                           max_accuracy_drop=None, max_miss_increase=None),
    )
    defaults.update(overrides)
    return OnlineConfig(**defaults)


# Any reference far from the live score mass trips PSI immediately once
# min_observations arrive — the "seeded synthetic drift stream".
DRIFTED_REFERENCE = np.linspace(0.9, 1.0, 32)


def make_pipeline(base, work_dir, obs=None, config=None, **kwargs):
    return OnlinePipeline.for_zigong(
        clone_model(base),
        reference_scores=DRIFTED_REFERENCE,
        work_dir=work_dir,
        config=config or loop_config(),
        cluster_config=ClusterConfig(replicas=2),
        obs=obs or recording_obs(),
        **kwargs,
    )


def drive(pipeline, traffic, max_ticks=40, batch=8, until="promotions"):
    """Tick the loop until a promotion (or rollback/gate event) lands."""
    i = 0
    for _ in range(max_ticks):
        requests = [traffic[(i + j) % len(traffic)] for j in range(batch)]
        i += batch
        pipeline.tick(requests)
        if getattr(pipeline.state, until) > 0:
            return
    raise AssertionError(f"no {until} after {max_ticks} ticks (phase={pipeline.phase})")


def transition_phases(obs) -> list[str]:
    return [e["phase"] for e in obs.events.events() if e["kind"] == "pipeline.transition"]


# ----------------------------------------------------------------------
# PipelineState persistence
# ----------------------------------------------------------------------


class TestPipelineState:
    def test_roundtrip(self, tmp_path):
        state = PipelineState(phase=SHADOW, round=3, drift_psi=0.41,
                              reference_scores=[0.1, 0.2], shadow_scored=7,
                              promotions=2, rollbacks=1, gate_failures=4, resumes=5)
        path = tmp_path / "state.json"
        state.save(path)
        assert PipelineState.load(path) == state

    def test_atomic_tmp_cleaned(self, tmp_path):
        path = tmp_path / "state.json"
        PipelineState().save(path)
        assert path.exists()
        assert not path.with_name("state.json.tmp").exists()

    def test_unknown_phase_rejected(self):
        with pytest.raises(PipelineError):
            PipelineState(phase="deployed")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json")
        with pytest.raises(PipelineError):
            PipelineState.load(path)

    def test_phase_codes_cover_all_phases(self):
        assert PHASE_CODES[MONITOR] == 0
        assert sorted(PHASE_CODES.values()) == [0, 1, 2, 3]
        state = PipelineState(phase=PROMOTE)
        assert state.code == PHASE_CODES[PROMOTE]


# ----------------------------------------------------------------------
# Promotion gate
# ----------------------------------------------------------------------


class _ConstScorer:
    def __init__(self, value):
        self.value = value

    def score(self, prompt, positive_text="yes", negative_text="no"):
        return self.value


class _EchoScorer:
    """Scores len(prompt)-derived values so streams have variance."""

    def __init__(self, offset=0.0):
        self.offset = offset

    def score(self, prompt, positive_text="yes", negative_text="no"):
        return (len(prompt) % 10) / 10.0 + self.offset


def _shadow_with(primary, shadow, n=20, obs=None):
    deployment = ShadowDeployment(shadow.score, window=64, obs=obs or Observability.disabled())
    for i in range(n):
        text = "x" * (i + 1)
        deployment.compare(text, primary.score(text))
    return deployment


def _eval(accuracy, miss=0.0):
    return EvalResult(model="m", dataset="gate", n=10, accuracy=accuracy,
                      f1=accuracy, miss=miss)


class TestPromotionGate:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PromotionGate(min_shadow_requests=0)
        with pytest.raises(ConfigError):
            PromotionGate(min_agreement=1.5)

    def test_too_few_shadow_requests_fails(self):
        shadow = _shadow_with(_EchoScorer(), _EchoScorer(), n=3)
        decision = evaluate_gate(PromotionGate(min_shadow_requests=16), shadow)
        assert not decision.passed
        assert any("shadow requests" in r for r in decision.reasons)

    def test_agreement_pass(self):
        shadow = _shadow_with(_EchoScorer(), _EchoScorer(), n=20)
        decision = evaluate_gate(PromotionGate(min_shadow_requests=8), shadow)
        assert decision.passed
        assert decision.metrics["agreement_rate"] == 1.0

    def test_low_agreement_fails(self):
        shadow = _shadow_with(_ConstScorer(0.9), _ConstScorer(0.1), n=20)
        decision = evaluate_gate(
            PromotionGate(min_shadow_requests=8, min_agreement=0.5), shadow
        )
        assert not decision.passed
        assert any("agreement" in r for r in decision.reasons)

    def test_nan_correlation_fails_explicitly(self):
        # Constant streams: Pearson is undefined (nan), and a gated
        # correlation must treat that as a failure, not a pass.
        shadow = _shadow_with(_ConstScorer(0.4), _ConstScorer(0.4), n=20)
        assert math.isnan(shadow.score_correlation())
        decision = evaluate_gate(
            PromotionGate(min_shadow_requests=8, min_agreement=0.0, min_correlation=0.5),
            shadow,
        )
        assert not decision.passed
        assert any("undefined" in r for r in decision.reasons)

    def test_metric_deltas(self):
        shadow = _shadow_with(_EchoScorer(), _EchoScorer(), n=20)
        gate = PromotionGate(min_shadow_requests=8, min_agreement=0.0,
                             max_accuracy_drop=0.05, max_miss_increase=0.05)
        bad = evaluate_gate(gate, shadow, _eval(0.9), _eval(0.7))
        assert not bad.passed and any("accuracy drop" in r for r in bad.reasons)
        worse_miss = evaluate_gate(gate, shadow, _eval(0.9, miss=0.0), _eval(0.9, miss=0.2))
        assert not worse_miss.passed and any("miss-rate" in r for r in worse_miss.reasons)
        ok = evaluate_gate(gate, shadow, _eval(0.9), _eval(0.89))
        assert ok.passed

    def test_fairness_gaps(self):
        from repro.eval import fairness_report

        shadow = _shadow_with(_EchoScorer(), _EchoScorer(), n=20)
        gate = PromotionGate(min_shadow_requests=8, min_agreement=0.0,
                             max_parity_gap=0.2, max_odds_gap=0.2)
        biased = fairness_report([1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1])
        decision = evaluate_gate(gate, shadow, candidate_fairness=biased)
        assert not decision.passed

    def test_nan_odds_gap_fails_when_gated(self):
        from repro.eval import fairness_report

        shadow = _shadow_with(_EchoScorer(), _EchoScorer(), n=20)
        # Group B has no positives: its TPR (and hence the odds gap) is nan.
        report = fairness_report([1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 1, 1])
        assert math.isnan(report.equalized_odds_difference)
        gated = evaluate_gate(
            PromotionGate(min_shadow_requests=8, min_agreement=0.0, max_odds_gap=0.3),
            shadow, candidate_fairness=report,
        )
        assert not gated.passed
        assert any("no" in r and "support" in r for r in gated.reasons)
        ungated = evaluate_gate(
            PromotionGate(min_shadow_requests=8, min_agreement=0.0),
            shadow, candidate_fairness=report,
        )
        assert ungated.passed


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------


class TestOnlineConfig:
    @pytest.mark.parametrize("overrides", [
        dict(drift_window=4, n_bins=8),
        dict(min_observations=4, n_bins=8),
        dict(keep_fraction=0.0),
        dict(keep_fraction=1.5),
        dict(influence_val_fraction=1.0),
        dict(retrain_epochs=0),
        dict(shadow_requests=0),
        dict(shadow_window=4, shadow_requests=10),
        dict(min_retrain_examples=0),
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ConfigError):
            OnlineConfig(**overrides)

    def test_defaults_valid(self):
        assert OnlineConfig().influence_strategy == "agent"


# ----------------------------------------------------------------------
# Golden end-to-end run
# ----------------------------------------------------------------------


class TestGoldenEndToEnd:
    @pytest.fixture(scope="class")
    def run(self, scenario, tmp_path_factory):
        base, examples, traffic = scenario
        obs = recording_obs()
        work = tmp_path_factory.mktemp("golden")
        pipeline = make_pipeline(base, work, obs=obs)
        pipeline.ingest(examples[48:])
        drive(pipeline, traffic)
        return pipeline, obs, work

    def test_full_phase_sequence(self, run):
        _, obs, _ = run
        assert transition_phases(obs) == [RETRAIN, SHADOW, PROMOTE, MONITOR]

    def test_counters(self, run):
        pipeline, obs, _ = run
        metrics = obs.metrics
        assert metrics.counter("pipeline.drift_trips").value == 1
        assert metrics.counter("pipeline.retrains").value == 1
        assert metrics.counter("pipeline.promotions").value == 1
        assert metrics.counter("pipeline.rollbacks").value == 0
        assert metrics.gauge("pipeline.state").value == PHASE_CODES[MONITOR]
        assert pipeline.state.promotions == 1

    def test_gate_decision_recorded(self, run):
        pipeline, obs, _ = run
        assert pipeline.last_gate is not None and pipeline.last_gate.passed
        gates = [e for e in obs.events.events() if e["kind"] == "pipeline.gate"]
        assert len(gates) == 1 and gates[0]["passed"]

    def test_cluster_serves_candidate_weights(self, run):
        # Post-promotion the cluster's scores match the promoted model's
        # own classifier bit-for-bit (the _verify_deploy contract, but
        # asserted from the outside).
        pipeline, _, _ = run
        from repro.data.templates import CLASSIFICATION_TEMPLATE
        from repro.serving.behavior_card import DEFAULT_QUESTION

        text = "status: months 1-3 paid on time, month 4 overdue"
        [result] = pipeline.cluster.serve([ScoreRequest(user_id="probe", behavior_text=text)])
        prompt = CLASSIFICATION_TEMPLATE.format(sentence=text, question=DEFAULT_QUESTION)
        direct = pipeline.zigong.classifier("probe").score(prompt, "yes", "no")
        assert result.score == pytest.approx(direct, abs=1e-12)

    def test_weight_versions_advanced_on_all_replicas(self, run):
        pipeline, _, _ = run
        versions = pipeline.cluster.weight_versions()
        assert len(versions) == 2
        assert all(v is not None and v > 1 for v in versions.values())

    def test_round_artifacts_persisted(self, run):
        _, _, work = run
        round_dir = work / "round-001"
        assert (round_dir / "selected.jsonl").exists()
        assert (round_dir / "candidate.npz").exists()
        assert (round_dir / "ckpts").is_dir()
        assert (work / "deployed.npz").exists()
        assert (work / "state.json").exists()

    def test_drift_monitor_rebaselined(self, run):
        # After promotion the reference is re-anchored on the approved
        # shadow scores, so the loop does not instantly re-trip.
        pipeline, _, _ = run
        assert pipeline.state.reference_scores != list(DRIFTED_REFERENCE)
        assert pipeline.monitor.n_observed == 0

    def test_influence_filter_kept_fraction(self, run):
        from repro.data import load_jsonl

        pipeline, _, work = run
        selected = load_jsonl(work / "round-001" / "selected.jsonl")
        buffered = min(48, pipeline.config.retrain_window)
        assert len(selected) < buffered
        assert len(selected) >= int(0.5 * pipeline.config.keep_fraction * buffered)


class TestStableStreamNeverTrips:
    def test_matching_reference_stays_in_monitor(self, scenario, tmp_path):
        base, examples, traffic = scenario
        obs = recording_obs()
        # Build the reference from actual live scores: no drift to find.
        probe = make_pipeline(base, tmp_path / "probe", obs=recording_obs())
        live = probe.cluster.serve(traffic[:32])
        reference = [r.score for r in live]
        # Window sized to the reference: once full, the live window holds
        # exactly the reference multiset, so PSI is 0 by construction.
        pipeline = OnlinePipeline.for_zigong(
            clone_model(base),
            reference_scores=reference,
            work_dir=tmp_path / "stable",
            config=loop_config(drift_window=32, min_observations=32),
            cluster_config=ClusterConfig(replicas=2),
            obs=obs,
        )
        pipeline.ingest(examples[48:])
        for _ in range(2):
            for i in range(4):
                pipeline.tick(traffic[8 * i:8 * (i + 1)])
        assert pipeline.phase == MONITOR
        assert obs.metrics.counter("pipeline.drift_trips").value == 0
        assert transition_phases(obs) == []


# ----------------------------------------------------------------------
# Crash-resume (sunny-day restarts; violent kills in test_pipeline_chaos)
# ----------------------------------------------------------------------


class TestResume:
    def test_restart_mid_shadow_recollects_window(self, scenario, tmp_path):
        base, examples, traffic = scenario
        first = make_pipeline(base, tmp_path)
        first.ingest(examples[48:])
        i = 0
        while first.phase != SHADOW:
            first.tick([traffic[(i + j) % len(traffic)] for j in range(8)])
            i += 8
        # A few shadow comparisons land, then the daemon "dies".
        first.tick(traffic[:4])
        assert first.state.shadow_scored > 0

        second = make_pipeline(base, tmp_path)
        assert second.phase == SHADOW
        assert second.state.resumes == 1
        # Shadow evidence is recollected from scratch after a restart.
        assert second.state.shadow_scored == 0
        drive(second, traffic)
        assert second.state.promotions == 1

    def test_restart_after_promotion_serves_promoted_weights(self, scenario, tmp_path):
        base, examples, traffic = scenario
        first = make_pipeline(base, tmp_path)
        first.ingest(examples[48:])
        drive(first, traffic)
        probe = traffic[0]
        [before] = first.cluster.serve([probe])

        # Restart from a stale base clone: the persisted deployed.npz
        # must win over the (pre-promotion) weights the clone carries.
        second = make_pipeline(base, tmp_path)
        [after] = second.cluster.serve([probe])
        assert after.score == pytest.approx(before.score, abs=1e-12)
        assert second.state.promotions == 1

    def test_fresh_workdir_starts_in_monitor(self, scenario, tmp_path):
        base, _, _ = scenario
        pipeline = make_pipeline(base, tmp_path)
        assert pipeline.phase == MONITOR
        assert pipeline.state.resumes == 0


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------


class TestGuards:
    def test_eval_groups_must_align(self, scenario, tmp_path):
        base, _, _ = scenario
        from repro.eval import EvalSample

        samples = [EvalSample(prompt="p", label=1, positive_text="yes", negative_text="no")]
        with pytest.raises(ConfigError):
            make_pipeline(base, tmp_path, eval_samples=samples, eval_groups=[0, 1])

    def test_empty_tick_is_a_noop(self, scenario, tmp_path):
        base, _, _ = scenario
        pipeline = make_pipeline(base, tmp_path)
        assert pipeline.tick([]) == []
        assert pipeline.phase == MONITOR

    def test_ingest_bounded_by_retrain_window(self, scenario, tmp_path):
        base, examples, _ = scenario
        pipeline = make_pipeline(base, tmp_path, config=loop_config(retrain_window=16))
        pipeline.ingest(examples)
        assert len(pipeline._buffer) == 16
        assert pipeline._buffer[-1] is examples[-1]


class TestInfluenceFilterSketch:
    def test_rounds_share_one_sketch(self, scenario, tmp_path, projector_inits, monkeypatch):
        """Every round's influence filter reuses the pipeline's one sketch."""
        from repro.core import DataPruner

        base, examples, _ = scenario
        pipeline = make_pipeline(
            base, tmp_path / "loop", config=loop_config(influence_strategy="tracseq")
        )
        scores = []
        score = DataPruner.score

        def recording(self, *args, **kwargs):
            scores.append(score(self, *args, **kwargs))
            return scores[-1]

        monkeypatch.setattr(DataPruner, "score", recording)
        recent = examples[:20]
        for round_index in range(2):
            round_dir = tmp_path / f"round-{round_index}"
            round_dir.mkdir()
            pipeline._select(recent, round_dir)
        assert len(projector_inits) == 1
        # The first round drew the sketch; the second, over the same
        # buffer, scores exactly as that fresh one did.
        assert len(scores) == 2 and np.array_equal(scores[0], scores[1])
