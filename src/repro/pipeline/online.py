"""The continuous-learning daemon: drift → retrain → shadow → promote.

ZiGong is deployed as a *continually updated* loan-scoring model: the
live score distribution is watched for drift, a drift trip retrains a
candidate on influence-filtered recent behavior data, the candidate
shadows the production model until a promotion gate passes, and the new
weights roll through the serving cluster's stage→drain→swap deploy with
automatic rollback.  This module wires those existing pieces —
:class:`~repro.serving.DriftMonitor`, :class:`~repro.serving.ShadowDeployment`,
the crash-resumable :class:`~repro.training.Trainer`,
:class:`~repro.core.DataPruner`, and
:class:`~repro.serving.ClusterSupervisor` — into one restartable loop.

Crash safety
------------
Every phase is restartable from the work directory alone:

* the current phase/round live in ``state.json``
  (:class:`~repro.pipeline.PipelineState`, atomic writes);
* the deployed weights live in ``deployed.npz`` (and the pre-promotion
  snapshot in ``prior.npz``) so a restarted daemon rebuilds the exact
  serving model;
* the influence-selected retrain set is persisted to
  ``round-NNN/selected.jsonl`` *before* training starts, and training
  checkpoints land in ``round-NNN/ckpts`` — a daemon killed mid-retrain
  resumes via ``Trainer.resume`` and finishes **bit-identically** to an
  uninterrupted run;
* the finished candidate is persisted to ``round-NNN/candidate.npz``, so
  a crash during shadow or promotion restores it without retraining.
  Shadow comparison records are deliberately *not* persisted: a restart
  recollects the window from live traffic (conservative — the gate only
  ever judges fresh evidence).

Every transition emits a ``pipeline.transition`` obs event and moves the
``pipeline.state`` gauge, so ``repro obs report`` shows the loop's whole
history.  See ``docs/online_learning.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.core.pruning import DataPruner, PrunerConfig
from repro.core.zigong import ZiGong
from repro.data.instruct import InstructExample
from repro.data.serialization import load_jsonl, save_jsonl
from repro.errors import ConfigError, PipelineError
from repro.eval.fairness import FairnessReport, fairness_report
from repro.eval.harness import EvalResult, EvalSample, evaluate
from repro.obs import Observability, get_observability
from repro.pipeline.gate import GateDecision, PromotionGate, evaluate_gate
from repro.pipeline.state import (
    MONITOR,
    PROMOTE,
    RETRAIN,
    SHADOW,
    PipelineState,
)
from repro.resilience.faults import fault_point
from repro.serving.behavior_card import default_scores, zigong_replica_factory
from repro.serving.cluster import ClusterConfig, ClusterSupervisor
from repro.serving.engine import ScoreRequest
from repro.serving.monitoring import DriftMonitor, ShadowDeployment
from repro.training.checkpoint import CheckpointManager

_CHECKPOINT_STRATEGIES = ("tracseq", "tracin", "datainf", "combined", "ppl")
# Recent shadow prompts replayed through the cluster after a deploy.
VERIFY_PROBES = 4


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs for the online-learning loop.

    ``influence_strategy`` accepts any :data:`repro.core.pruning.STRATEGIES`
    entry; checkpoint-based estimators (tracseq / tracin / datainf /
    combined / ppl) run a short warmup fine-tune per round to produce the
    gradient-replay checkpoints, while ``agent`` (the default) and
    ``random`` score without one.
    """

    drift_window: int = 200
    min_observations: int = 40
    n_bins: int = 10
    retrain_window: int = 256
    min_retrain_examples: int = 8
    keep_fraction: float = 0.7
    influence_strategy: str = "agent"
    influence_val_fraction: float = 0.15
    retrain_epochs: int = 2
    warmup_epochs: int = 1
    shadow_requests: int = 24
    shadow_window: int = 256
    gate: PromotionGate = field(default_factory=PromotionGate)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drift_window < self.n_bins:
            raise ConfigError("drift_window must be at least n_bins")
        if self.min_observations < self.n_bins:
            raise ConfigError("min_observations must be at least n_bins")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError(f"keep_fraction must be in (0, 1], got {self.keep_fraction}")
        if not 0.0 < self.influence_val_fraction < 1.0:
            raise ConfigError("influence_val_fraction must be in (0, 1)")
        if self.retrain_epochs < 1 or self.warmup_epochs < 1:
            raise ConfigError("retrain_epochs and warmup_epochs must be at least 1")
        if self.shadow_requests < 1:
            raise ConfigError("shadow_requests must be at least 1")
        if self.shadow_window < self.shadow_requests:
            raise ConfigError("shadow_window must hold at least shadow_requests records")
        if self.min_retrain_examples < 1:
            raise ConfigError("min_retrain_examples must be at least 1")


class _CandidateScorer:
    """The shadow candidate scoring the same raw behavior text.

    Scores through :func:`~repro.serving.behavior_card.default_scores`,
    as :func:`zigong_replica_factory` replicas do, so shadow scores are
    comparable to — and, post-promotion, bit-identical with — cluster
    scores.
    """

    def __init__(self, candidate: ZiGong):
        self.candidate = candidate

    def score(self, behavior_text: str, *_answers: str) -> float:
        # ShadowDeployment passes the Behavior Card answer words, which
        # default_scores reads itself.
        fault_point("pipeline.shadow.score")
        [score] = default_scores(self.candidate.classifier("pipeline-candidate"), [behavior_text])
        return score


class OnlinePipeline:
    """Drift-triggered retrain → shadow → promote over a serving cluster.

    Parameters
    ----------
    zigong:
        The deployed source model.  LoRA adapters are applied up front
        (idempotent) so candidate state dicts always match the replica
        architecture.  On successful promotion this object is updated to
        the candidate's weights — it *is* the deployed model.
    cluster:
        A :class:`ClusterSupervisor` whose replicas were built from
        ``zigong`` **after** LoRA injection (use :meth:`for_zigong` to
        get the ordering right).
    reference_scores:
        Score distribution the deployed model was approved on — the
        drift reference.  Ignored when the work directory already holds
        a persisted state (the persisted reference wins).
    work_dir:
        Directory owning all pipeline persistence.  Reusing a prior
        run's directory resumes that run.
    eval_samples / eval_groups:
        Optional fixed eval set for the gate's Behavior-Card metric
        deltas; ``eval_groups`` (binary protected attribute, aligned
        with ``eval_samples``) additionally enables the fairness gaps.
    """

    def __init__(
        self,
        zigong: ZiGong,
        cluster: ClusterSupervisor,
        reference_scores,
        work_dir: str | Path,
        config: OnlineConfig | None = None,
        eval_samples: Sequence[EvalSample] = (),
        eval_groups=None,
        obs: Observability | None = None,
    ):
        self.config = config or OnlineConfig()
        # One pruner for the pipeline's lifetime, so every round's
        # influence filter reuses its gradient sketch.
        self._pruner = DataPruner(
            PrunerConfig(strategy=self.config.influence_strategy, seed=self.config.seed)
        )
        self.zigong = zigong
        self.zigong.apply_lora()
        self.cluster = cluster
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.obs = obs or get_observability()
        self.eval_samples = list(eval_samples)
        self.eval_groups = None if eval_groups is None else np.asarray(eval_groups, dtype=np.int64)
        if self.eval_groups is not None and len(self.eval_groups) != len(self.eval_samples):
            raise ConfigError("eval_groups must align one-to-one with eval_samples")

        metrics = self.obs.metrics
        self._g_state = metrics.gauge("pipeline.state")
        self._m_drift_trips = metrics.counter("pipeline.drift_trips")
        self._m_retrains = metrics.counter("pipeline.retrains")
        self._m_gate_failures = metrics.counter("pipeline.gate_failures")
        self._m_promotions = metrics.counter("pipeline.promotions")
        self._m_rollbacks = metrics.counter("pipeline.rollbacks")
        self._m_resumes = metrics.counter("pipeline.resumes")

        self._buffer: list[InstructExample] = []
        self._candidate: ZiGong | None = None
        self._shadow: ShadowDeployment | None = None
        self.last_gate: GateDecision | None = None
        self._state_path = self.work_dir / "state.json"

        if self._state_path.exists():
            self.state = PipelineState.load(self._state_path)
            self.state.resumes += 1
            self._m_resumes.inc()
            deployed = self.work_dir / "deployed.npz"
            if deployed.exists():
                state = _load_npz(deployed)
                self.zigong.model.load_state_dict(state)
                # The cluster is rebuilt from the caller's model object,
                # which may predate promotions recorded on disk: push the
                # persisted weights through a rolling deploy so serving
                # matches state.json from the first request.
                self.cluster.deploy({k: v.copy() for k, v in state.items()})
            if self.state.phase in (SHADOW, PROMOTE):
                self._candidate = self._restore_candidate()
                if self._candidate is None:
                    # candidate.npz missing means the crash predated the
                    # candidate snapshot: fall back to finishing the
                    # retrain (selected.jsonl + checkpoints are there).
                    self.state.phase = RETRAIN
                elif self.state.phase == SHADOW:
                    # Shadow records are not persisted: recollect the
                    # window from live traffic before judging the gate.
                    self._arm_shadow()
            self.state.save(self._state_path)
            self.obs.event("pipeline.resumed", phase=self.state.phase,
                           round=self.state.round, resumes=self.state.resumes)
            reference = np.asarray(self.state.reference_scores, dtype=np.float64)
        else:
            reference = np.asarray(reference_scores, dtype=np.float64)
            self.state = PipelineState(
                reference_scores=[float(s) for s in reference],
            )
            self._save_deployed()
            self.state.save(self._state_path)
        self.monitor = self._build_monitor(reference)
        self._g_state.set(self.state.code)

    @classmethod
    def for_zigong(
        cls,
        zigong: ZiGong,
        reference_scores,
        work_dir: str | Path,
        config: OnlineConfig | None = None,
        cluster_config: ClusterConfig | None = None,
        obs: Observability | None = None,
        **kwargs,
    ) -> "OnlinePipeline":
        """Build pipeline + cluster together, in the right order.

        LoRA is applied to ``zigong`` *before* the replica factory
        snapshots its weights, so candidate state dicts (which name LoRA
        params) load one-to-one into every replica.
        """
        config = config or OnlineConfig()
        zigong.apply_lora()
        cluster = ClusterSupervisor(
            zigong_replica_factory(zigong), cluster_config or ClusterConfig(), obs=obs
        )
        return cls(zigong, cluster, reference_scores, work_dir,
                   config=config, obs=obs, **kwargs)

    # -- ingestion and the main loop -----------------------------------

    def ingest(self, examples: Sequence[InstructExample]) -> None:
        """Feed labeled recent behavior examples into the replay buffer.

        The buffer keeps the most recent ``retrain_window`` examples;
        retrains select from it.
        """
        self._buffer.extend(examples)
        overflow = len(self._buffer) - self.config.retrain_window
        if overflow > 0:
            del self._buffer[:overflow]

    def tick(self, requests: Sequence[ScoreRequest] = ()) -> list[float]:
        """Advance the daemon one step over a micro-batch of live traffic.

        Scores the requests on the live path (shadow-compared while a
        candidate is in shadow), feeds the drift monitor, then runs
        whatever phase work is due.  Returns the live scores, in order.
        """
        scores = self._score(list(requests))
        if self.state.phase == MONITOR:
            self._check_drift()
        if self.state.phase == RETRAIN:
            self._retrain()
        if (
            self.state.phase == SHADOW
            and self._shadow is not None
            and self._shadow.n_window >= self.config.shadow_requests
        ):
            self._judge()
        if self.state.phase == PROMOTE:
            self._promote()
        return scores

    @property
    def phase(self) -> str:
        return self.state.phase

    # -- scoring -------------------------------------------------------

    def _score(self, requests: list[ScoreRequest]) -> list[float]:
        if not requests:
            return []
        scores = [float(r.score) for r in self.cluster.serve(requests)]
        if self.state.phase == SHADOW and self._shadow is not None:
            for request, score in zip(requests, scores):
                self._shadow.compare(request.behavior_text, score)
            self.state.shadow_scored = self._shadow.n_window
            self.state.save(self._state_path)
        self.monitor.observe_many(scores)
        return scores

    # -- phase: monitor ------------------------------------------------

    def _check_drift(self) -> None:
        if self.monitor.n_observed < self.config.min_observations:
            return
        status = self.monitor.status()
        if status != "drift":
            return
        psi = float(self.monitor.psi())
        self._m_drift_trips.inc()
        self.state.round += 1
        self.state.drift_psi = psi
        self._transition(RETRAIN, psi=psi)

    # -- phase: retrain ------------------------------------------------

    def _round_dir(self) -> Path:
        directory = self.work_dir / f"round-{self.state.round:03d}"
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    def _retrain(self) -> None:
        round_dir = self._round_dir()
        selected_path = round_dir / "selected.jsonl"
        if selected_path.exists():
            selected = load_jsonl(selected_path)
        else:
            if len(self._buffer) < self.config.min_retrain_examples:
                # Drift tripped but labels have not arrived yet; stay in
                # RETRAIN and try again next tick.
                return
            selected = self._select(list(self._buffer), round_dir)
            # Persisted before training starts: a daemon killed
            # mid-retrain resumes over the *identical* data order, which
            # is what makes kill-and-resume bit-identical.
            save_jsonl(selected, selected_path)
        self._m_retrains.inc()
        candidate = self._clone_deployed()
        with self.obs.span("pipeline.retrain", round=self.state.round,
                           examples=len(selected)):
            candidate.finetune(
                selected,
                checkpoint_dir=round_dir / "ckpts",
                resume=True,
            )
        _save_npz(round_dir / "candidate.npz", candidate.model.state_dict())
        self._candidate = candidate
        self._arm_shadow()
        self._transition(SHADOW, examples=len(selected))

    def _select(self, recent: list[InstructExample], round_dir: Path) -> list[InstructExample]:
        """Influence-filter the replay buffer down to the keep fraction."""
        cfg = self.config
        keep = max(1, int(round(cfg.keep_fraction * len(recent))))
        if keep >= len(recent):
            return recent
        n_val = max(1, int(round(cfg.influence_val_fraction * len(recent))))
        train, val = recent[:-n_val], recent[-n_val:]
        keep = min(keep, len(train))
        checkpoints = ()
        scorer = self.zigong
        if cfg.influence_strategy in _CHECKPOINT_STRATEGIES:
            # Gradient-replay estimators need checkpoints: run a short
            # warmup fine-tune of a deployed-weights clone to produce
            # them (the ZiGongPipeline warmup pattern, per round).
            scorer = self._clone_deployed(epochs=cfg.warmup_epochs)
            warmup_dir = round_dir / "warmup"
            scorer.finetune(train, checkpoint_dir=warmup_dir)
            checkpoints = CheckpointManager(warmup_dir).checkpoints()
        scores = self._pruner.score(scorer, train, val, checkpoints)
        return self._pruner.select(train, scores, keep)

    def _clone_deployed(self, epochs: int | None = None) -> ZiGong:
        """A fresh ZiGong carrying the deployed weights (LoRA applied)."""
        cfg = self.zigong.config
        training = replace(cfg.training, epochs=epochs or self.config.retrain_epochs)
        clone = ZiGong(replace(cfg, training=training), self.zigong.tokenizer)
        clone.apply_lora()
        clone.model.load_state_dict(
            {k: v.copy() for k, v in self.zigong.model.state_dict().items()}
        )
        return clone

    # -- phase: shadow -------------------------------------------------

    def _arm_shadow(self) -> None:
        if self._candidate is None:
            raise PipelineError("cannot arm shadow scoring without a candidate")
        self._shadow = ShadowDeployment(
            None,  # production is the cluster, which _score serves first
            _CandidateScorer(self._candidate),
            window=self.config.shadow_window,
            obs=self.obs,
        )
        self.state.shadow_scored = 0

    def _judge(self) -> None:
        baseline_eval: EvalResult | None = None
        candidate_eval: EvalResult | None = None
        candidate_fairness: FairnessReport | None = None
        if self.eval_samples:
            baseline_eval = evaluate(
                self.zigong.classifier("pipeline-baseline"), self.eval_samples, "gate"
            )
            candidate_eval = evaluate(
                self._candidate.classifier("pipeline-candidate"), self.eval_samples, "gate"
            )
            if self.eval_groups is not None:
                predictions = self._candidate.classifier("pipeline-candidate").predict_many(
                    self.eval_samples
                )
                candidate_fairness = fairness_report(
                    [s.label for s in self.eval_samples],
                    [0 if p.label is None else int(p.label) for p in predictions],
                    self.eval_groups,
                )
        decision = evaluate_gate(
            self.config.gate, self._shadow, baseline_eval, candidate_eval, candidate_fairness
        )
        self.last_gate = decision
        self.obs.event(
            "pipeline.gate",
            round=self.state.round,
            passed=decision.passed,
            reasons=list(decision.reasons),
            metrics=dict(decision.metrics),
        )
        if decision.passed:
            self._transition(PROMOTE, agreement=decision.metrics.get("agreement_rate"))
        else:
            self._m_gate_failures.inc()
            self.state.gate_failures += 1
            self._candidate = None
            self._shadow = None
            self.monitor = self._build_monitor(self._reference())
            self._transition(MONITOR, gate="failed", reasons=list(decision.reasons))

    # -- phase: promote ------------------------------------------------

    def _promote(self) -> None:
        if self._candidate is None:
            raise PipelineError("promotion reached without a candidate")
        round_ = self.state.round
        candidate_state = {
            k: v.copy() for k, v in self._candidate.model.state_dict().items()
        }
        # Snapshot the serving weights first: rollback (and a restarted
        # daemon) must be able to restore the exact prior version.
        _save_npz(self.work_dir / "prior.npz", self.zigong.model.state_dict())
        try:
            fault_point("pipeline.promote", round=round_)
            with self.obs.span("pipeline.promote", round=round_):
                self.cluster.deploy(candidate_state)
            fault_point("pipeline.promote.verify", round=round_)
            self._verify_deploy()
        except Exception as error:  # noqa: BLE001 — any failure rolls back
            self._rollback(error)
            return
        self.zigong.model.load_state_dict(candidate_state)
        self._save_deployed()
        self._rebaseline()
        self._m_promotions.inc()
        self.state.promotions += 1
        self.state.shadow_scored = 0
        self._candidate = None
        self._shadow = None
        self._transition(MONITOR, promoted=True)

    def _verify_deploy(self) -> None:
        """Probe the cluster: served scores must match the candidate's.

        Replays the freshest shadow prompts — the candidate's scores on
        them are known — through the deployed cluster.  A mismatch means
        a replica is serving something other than the promoted weights.
        """
        if self._shadow is None:
            return
        records = self._shadow.records()[-VERIFY_PROBES:]
        if not records:
            return
        results = self.cluster.serve(
            [
                ScoreRequest(user_id=f"pipeline-verify-{i}", behavior_text=r.prompt)
                for i, r in enumerate(records)
            ]
        )
        for result, record in zip(results, records):
            if not np.isclose(result.score, record.shadow_score, atol=1e-9):
                raise PipelineError(
                    f"post-promotion verification failed: replica served "
                    f"{result.score:.6f}, candidate scored {record.shadow_score:.6f}"
                )

    def _rollback(self, error: Exception) -> None:
        prior = _load_npz(self.work_dir / "prior.npz")
        self.cluster.deploy(prior)
        self.zigong.model.load_state_dict(prior)
        self._save_deployed()
        self._m_rollbacks.inc()
        self.state.rollbacks += 1
        self.state.shadow_scored = 0
        self._candidate = None
        self._shadow = None
        self.monitor = self._build_monitor(self._reference())
        self._transition(MONITOR, rolled_back=True, error=repr(error))

    def _rebaseline(self) -> None:
        """Re-anchor the drift reference on the gate-approved candidate scores.

        The promoted model scores differently by construction; without
        re-anchoring, PSI would re-trip on the promotion itself.
        """
        shadow_scores = (
            [r.shadow_score for r in self._shadow.records()] if self._shadow else []
        )
        if len(shadow_scores) >= self.config.n_bins:
            reference = np.asarray(shadow_scores, dtype=np.float64)
            self.state.reference_scores = [float(s) for s in shadow_scores]
        else:
            reference = self._reference()
        self.monitor = self._build_monitor(reference)

    # -- plumbing ------------------------------------------------------

    def _reference(self) -> np.ndarray:
        return np.asarray(self.state.reference_scores, dtype=np.float64)

    def _build_monitor(self, reference: np.ndarray) -> DriftMonitor:
        return DriftMonitor(
            reference,
            window=self.config.drift_window,
            n_bins=self.config.n_bins,
            obs=self.obs,
        )

    def _transition(self, phase: str, **fields) -> None:
        self.state.phase = phase
        self.state.save(self._state_path)
        self._g_state.set(self.state.code)
        self.obs.event("pipeline.transition", phase=phase, round=self.state.round,
                       **{k: v for k, v in fields.items() if v is not None})

    def _save_deployed(self) -> None:
        _save_npz(self.work_dir / "deployed.npz", self.zigong.model.state_dict())

    def _restore_candidate(self) -> ZiGong | None:
        path = self.work_dir / f"round-{self.state.round:03d}" / "candidate.npz"
        if not path.exists():
            return None
        candidate = self._clone_deployed()
        candidate.model.load_state_dict(_load_npz(path))
        return candidate


def _save_npz(path: Path, state: Mapping[str, np.ndarray]) -> None:
    """Atomic state-dict snapshot (tmp file + rename, like checkpoints)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **{k: np.asarray(v) for k, v in state.items()})
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _load_npz(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: data[k].copy() for k in data.files}
