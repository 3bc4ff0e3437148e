"""Data-pruning orchestration: agent scoring + TracSeq + Top-K selection.

Implements Section 3.1 of the paper end to end: a lightweight agent
model scores samples, TracSeq estimates time-decayed gradient influence
against a validation set, and the Top-K by the combined score form the
pruned dataset D (Eq. 2) that :func:`~repro.data.mixing.hybrid_mix`
blends back with the original data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.data.instruct import InstructExample, labels_of, timestamps_of
from repro.influence import make_estimator
from repro.influence.agent import AgentScorer
from repro.influence.gradients import GradientProjector, trainable_parameters
from repro.influence.selection import normalize_scores, select_top_k
from repro.training.checkpoint import CheckpointRecord

STRATEGIES = ("tracseq", "tracin", "datainf", "agent", "combined", "ppl", "random")


@dataclass(frozen=True)
class PrunerConfig:
    """How training samples are scored.

    ``strategy``:
        * ``tracseq``  — time-decayed checkpoint influence (the paper);
        * ``tracin``   — plain TracInCP (gamma = 1 ablation);
        * ``datainf``  — closed-form Hessian-adjusted influence at the
          final checkpoint (Kwon et al., 2023) — no replay, the cheap
          option at scale;
        * ``agent``    — lightweight agent-model confidence only;
        * ``combined`` — mean of normalized agent + TracSeq scores;
        * ``ppl``      — negative perplexity under the last checkpoint
          (the PPL metric of Li et al., 2023);
        * ``random``   — uniform noise (control).

    ``workers`` fans checkpoint replays out across a process pool, and
    ``cache_dir`` adds a disk tier to the gradient store so repeated
    scoring runs (or gamma sweeps) reuse previously computed rows — see
    ``docs/influence.md``.
    """

    strategy: str = "tracseq"
    gamma: float = 0.9
    projection_dim: int | None = 128
    workers: int = 0
    cache_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InfluenceError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        if not 0.0 < self.gamma <= 1.0:
            raise InfluenceError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.workers < 0:
            raise InfluenceError(f"workers must be non-negative, got {self.workers}")


class DataPruner:
    """Scores instruction examples and selects the Top-K (Eq. 2)."""

    def __init__(self, config: PrunerConfig | None = None):
        self.config = config or PrunerConfig()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _tracer(self, zigong, checkpoints: Sequence[CheckpointRecord]):
        """The :class:`~repro.influence.api.DataInfluence` backend in use."""
        cfg = self.config
        projector = None
        if cfg.projection_dim is not None:
            dim = sum(p.size for p in trainable_parameters(zigong.model))
            projector = GradientProjector(dim, cfg.projection_dim, cfg.seed)
        return make_estimator(
            "tracseq" if cfg.strategy == "combined" else cfg.strategy,
            zigong.model,
            checkpoints,
            gamma=cfg.gamma,
            projector=projector,
            workers=cfg.workers,
            cache_dir=cfg.cache_dir,
        )

    def score(
        self,
        zigong,
        train_examples: Sequence[InstructExample],
        val_examples: Sequence[InstructExample],
        checkpoints: Sequence[CheckpointRecord] = (),
    ) -> np.ndarray:
        """Score every training example (higher = keep)."""
        if not train_examples:
            raise InfluenceError("score() received no training examples")
        cfg = self.config
        if cfg.strategy == "random":
            return np.random.default_rng(cfg.seed).random(len(train_examples))
        if cfg.strategy == "agent":
            return self._agent_scores(train_examples)
        if cfg.strategy == "ppl":
            return self._ppl_scores(zigong, train_examples, checkpoints)
        if not checkpoints:
            raise InfluenceError(f"strategy {cfg.strategy!r} requires training checkpoints")
        if not val_examples:
            raise InfluenceError(f"strategy {cfg.strategy!r} requires validation examples")

        tracer = self._tracer(zigong, checkpoints)
        train_tokens = zigong.tokenize(train_examples)
        val_tokens = zigong.tokenize(val_examples)
        influence = tracer.influence(train_tokens, val_tokens).sum(axis=1)
        if cfg.strategy in ("tracseq", "combined"):
            influence = influence * tracer.sample_decay(timestamps_of(train_examples))
        if cfg.strategy == "combined":
            agent = self._agent_scores(train_examples)
            return 0.5 * normalize_scores(influence) + 0.5 * normalize_scores(agent)
        return influence

    def _ppl_scores(self, zigong, examples, checkpoints) -> np.ndarray:
        from repro.influence.ppl import ppl_quality_scores
        from repro.training.checkpoint import CheckpointManager

        if not checkpoints:
            raise InfluenceError("strategy 'ppl' requires training checkpoints")
        saved = zigong.model.state_dict()
        try:
            last = sorted(checkpoints, key=lambda r: r.step)[-1]
            CheckpointManager.restore(zigong.model, last)
            return ppl_quality_scores(zigong.model, zigong.tokenize(examples))
        finally:
            zigong.model.load_state_dict(saved)

    def _agent_scores(self, examples: Sequence[InstructExample]) -> np.ndarray:
        texts = [e.prompt for e in examples]
        labels = labels_of(examples)
        if labels.min() < 0 or labels.max() > 1:
            raise InfluenceError("agent strategy needs binary example labels")
        scorer = AgentScorer()
        scorer.fit(texts, labels)
        return scorer.score(texts, labels)

    # ------------------------------------------------------------------
    # Selection (Eq. 2)
    # ------------------------------------------------------------------

    def select(
        self,
        examples: Sequence[InstructExample],
        scores: np.ndarray,
        k: int,
    ) -> list[InstructExample]:
        """The pruned dataset D: Top-K examples by score."""
        return select_top_k(examples, scores, k)
