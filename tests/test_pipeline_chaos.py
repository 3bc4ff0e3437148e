"""Chaos suite for the online-learning pipeline.

Each scenario kills or corrupts the loop at a fault point and asserts
the documented recovery guarantee (``docs/online_learning.md``):

* a daemon killed mid-retrain resumes and finishes **bit-identically**
  to an uninterrupted run (checkpointed optimizer moments + data order
  + the persisted ``selected.jsonl``);
* a forced failure after the rolling deploy rolls the cluster back to
  the **exact prior weights**;
* a shadow-error storm never touches the primary serving path;
* a replica crash mid-promotion still converges on the new weights
  (the cluster's restart-applies-staged-state contract).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InjectedFault, ReplicaCrashedError
from repro.pipeline import MONITOR, PROMOTE, RETRAIN, SHADOW, PromotionGate
from repro.resilience import FaultInjector
from repro.training.checkpoint import load_artifact

from test_pipeline_online import (
    DRIFTED_REFERENCE,
    clone_model,
    drive,
    loop_config,
    make_pipeline,
    recording_obs,
    scenario,
    transition_phases,
)

pytestmark = pytest.mark.chaos


def drive_to(pipeline, traffic, phase, max_ticks=40, batch=8):
    i = 0
    for _ in range(max_ticks):
        pipeline.tick([traffic[(i + j) % len(traffic)] for j in range(batch)])
        i += batch
        if pipeline.phase == phase:
            return i
    raise AssertionError(f"never reached {phase} (at {pipeline.phase})")


def state_of(zigong) -> dict[str, np.ndarray]:
    return {k: np.asarray(v).copy() for k, v in zigong.model.state_dict().items()}


def assert_states_equal(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), f"weights differ at {key}"


class TestKillMidRetrain:
    def test_resume_is_bit_identical(self, scenario, tmp_path):
        """Killing the daemon mid-fine-tune and restarting reproduces the
        uninterrupted candidate weights exactly."""
        base, examples, traffic = scenario

        # Reference run: no faults, capture the finished candidate.
        ref = make_pipeline(base, tmp_path / "ref")
        ref.ingest(examples[48:])
        drive_to(ref, traffic, SHADOW)
        reference_candidate, _ = load_artifact(tmp_path / "ref" / "round-001" / "candidate.npz")

        # Chaos run: die right after the second mid-training checkpoint.
        chaos = make_pipeline(base, tmp_path / "chaos")
        chaos.ingest(examples[48:])
        injector = FaultInjector().fail_nth("training.checkpoint_saved", 2)
        with injector.active():
            with pytest.raises(InjectedFault):
                drive_to(chaos, traffic, SHADOW)
        assert chaos.phase == RETRAIN  # persisted mid-retrain
        assert (tmp_path / "chaos" / "round-001" / "selected.jsonl").exists()
        assert not (tmp_path / "chaos" / "round-001" / "candidate.npz").exists()

        # Restart: a fresh daemon (fresh model object, fresh cluster)
        # over the same work dir resumes the retrain from checkpoints.
        resumed = make_pipeline(base, tmp_path / "chaos")
        assert resumed.phase == RETRAIN
        assert resumed.state.resumes == 1
        resumed.tick([])  # no new traffic needed to finish the retrain
        assert resumed.phase == SHADOW

        survivor, _ = load_artifact(tmp_path / "chaos" / "round-001" / "candidate.npz")
        assert_states_equal(reference_candidate, survivor)

    def test_selected_examples_survive_the_kill(self, scenario, tmp_path):
        """The influence-selected retrain set is persisted before training,
        so the resumed run trains on identical data in identical order."""
        from repro.data import load_jsonl

        base, examples, traffic = scenario
        pipeline = make_pipeline(base, tmp_path)
        pipeline.ingest(examples[48:])
        injector = FaultInjector().fail_nth("training.checkpoint_saved", 1)
        with injector.active():
            with pytest.raises(InjectedFault):
                drive_to(pipeline, traffic, SHADOW)
        before = load_jsonl(tmp_path / "round-001" / "selected.jsonl")

        resumed = make_pipeline(base, tmp_path)
        resumed.tick([])
        after = load_jsonl(tmp_path / "round-001" / "selected.jsonl")
        assert [e.prompt for e in before] == [e.prompt for e in after]
        assert resumed.phase == SHADOW


class TestRollback:
    def test_forced_gate_failure_restores_exact_prior_weights(self, scenario, tmp_path):
        base, examples, traffic = scenario
        obs = recording_obs()
        pipeline = make_pipeline(base, tmp_path, obs=obs)
        pipeline.ingest(examples[48:])
        prior = state_of(pipeline.zigong)
        probe = traffic[0]
        [before] = pipeline.cluster.serve([probe])

        # Post-deploy verification blows up: the pipeline must treat the
        # promotion as failed and roll the cluster back.
        injector = FaultInjector().fail_nth("pipeline.promote.verify", 1)
        with injector.active():
            drive(pipeline, traffic, until="rollbacks")

        assert pipeline.state.rollbacks == 1
        assert pipeline.state.promotions == 0
        assert pipeline.phase == MONITOR
        assert_states_equal(prior, state_of(pipeline.zigong))
        # The cluster serves the exact prior version again.
        [after] = pipeline.cluster.serve([probe])
        assert after.score == before.score
        assert obs.metrics.counter("pipeline.rollbacks").value == 1
        phases = transition_phases(obs)
        assert phases == [RETRAIN, SHADOW, PROMOTE, MONITOR]
        rolled = [e for e in obs.events.events() if e["kind"] == "pipeline.transition"
                  and e.get("rolled_back")]
        assert len(rolled) == 1

    def test_deploy_exception_rolls_back(self, scenario, tmp_path):
        """A failure in the rolling deploy itself (not just verification)
        triggers the same rollback path."""
        base, examples, traffic = scenario
        pipeline = make_pipeline(base, tmp_path)
        pipeline.ingest(examples[48:])
        prior = state_of(pipeline.zigong)
        injector = FaultInjector().fail_nth("pipeline.promote", 1)
        with injector.active():
            drive(pipeline, traffic, until="rollbacks")
        assert pipeline.state.rollbacks == 1
        assert_states_equal(prior, state_of(pipeline.zigong))


class TestShadowErrorStorm:
    def test_primary_serving_unaffected(self, scenario, tmp_path):
        base, examples, traffic = scenario
        obs = recording_obs()
        pipeline = make_pipeline(base, tmp_path, obs=obs)
        pipeline.ingest(examples[48:])
        drive_to(pipeline, traffic, SHADOW)

        # Every shadow evaluation now fails; live answers must not.
        injector = FaultInjector().fail_times("pipeline.shadow.score", 10_000)
        with injector.active():
            shadow_before = pipeline._shadow.n_window
            scores = pipeline.tick(traffic[:8])
            scores += pipeline.tick(traffic[8:16])
        assert len(scores) == 16
        assert all(np.isfinite(s) for s in scores)
        # Storm counted, no comparison records collected, still in shadow.
        assert pipeline._shadow.n_shadow_errors == 16
        assert pipeline._shadow.n_window == shadow_before
        assert pipeline.phase == SHADOW
        assert obs.metrics.counter("monitoring.shadow_errors").value == 16

        # Scores during the storm match the cluster's own answers.
        [direct] = pipeline.cluster.serve([traffic[0]])
        assert scores[0] == direct.score

        # Once the storm clears, the loop completes normally.
        drive(pipeline, traffic)
        assert pipeline.state.promotions == 1

    def test_storm_never_promotes_blind(self, scenario, tmp_path):
        """With the shadow permanently down, the gate can never collect
        its evidence window — the candidate is never promoted."""
        base, examples, traffic = scenario
        pipeline = make_pipeline(base, tmp_path)
        pipeline.ingest(examples[48:])
        drive_to(pipeline, traffic, SHADOW)
        injector = FaultInjector().fail_times("pipeline.shadow.score", 10_000)
        with injector.active():
            for i in range(6):
                pipeline.tick(traffic[8 * i:8 * (i + 1)])
        assert pipeline.phase == SHADOW
        assert pipeline.state.promotions == 0


class TestBreakerMidPromotion:
    def test_replica_crash_during_swap_still_converges(self, scenario, tmp_path):
        """A replica that dies mid-swap is restarted with the staged
        weights — promotion completes and verification passes."""
        base, examples, traffic = scenario
        pipeline = make_pipeline(base, tmp_path)
        pipeline.ingest(examples[48:])
        injector = FaultInjector().fail_nth(
            "cluster.deploy.swap", 1, exc=lambda msg: ReplicaCrashedError(msg)
        )
        with injector.active():
            drive(pipeline, traffic)
        assert pipeline.state.promotions == 1
        assert pipeline.state.rollbacks == 0
        assert pipeline.cluster.stats.restarts >= 1
        # Both replicas serve the same (promoted) scores.
        [a] = pipeline.cluster.serve([traffic[0]])
        [b] = pipeline.cluster.serve([traffic[0]])
        assert a.score == b.score


class TestCrashMidPromotionRestart:
    def test_restart_replays_promotion(self, scenario, tmp_path):
        """Dying between the gate decision and the deploy leaves the state
        machine in PROMOTE; a restarted daemon finishes the promotion
        from the persisted candidate."""
        base, examples, traffic = scenario
        pipeline = make_pipeline(base, tmp_path)
        pipeline.ingest(examples[48:])
        # Abort inside _promote before any deploy work happened, leaving
        # phase=PROMOTE on disk — the injector fault is our "kill".
        injector = FaultInjector().fail_nth(
            "pipeline.promote", 1, exc=lambda msg: KeyboardInterrupt(msg)
        )
        with injector.active():
            with pytest.raises(KeyboardInterrupt):
                drive(pipeline, traffic)
        # KeyboardInterrupt escapes the rollback handler (BaseException):
        # the persisted phase is PROMOTE.
        assert pipeline.state.phase == PROMOTE

        resumed = make_pipeline(base, tmp_path)
        assert resumed.phase == PROMOTE
        resumed.tick([])
        assert resumed.phase == MONITOR
        assert resumed.state.promotions == 1
