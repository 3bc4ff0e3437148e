"""End-to-end ZiGong training pipeline (Figure 1 of the paper).

Stages::

    instruct data -> warmup fine-tune (checkpoints) -> agent + TracSeq
    scoring -> Top-K pruning -> 70/30 hybrid mix -> fresh LoRA fine-tune

The warmup model exists only to produce checkpoints for influence
replay; the deployed model is trained from scratch on the mixed data.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.config import ZiGongConfig, test_config
from repro.core.pruning import DataPruner, PrunerConfig
from repro.core.zigong import ZiGong
from repro.data.instruct import InstructExample
from repro.data.mixing import hybrid_mix
from repro.training.callbacks import History


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration for the full prune-mix-finetune pipeline."""

    zigong: ZiGongConfig = field(default_factory=test_config)
    pruner: PrunerConfig = field(default_factory=PrunerConfig)
    pruned_fraction: float = 0.3
    warmup_epochs: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.pruned_fraction <= 1.0:
            raise ConfigError("pruned_fraction must be in [0, 1]")
        if self.warmup_epochs <= 0:
            raise ConfigError("warmup_epochs must be positive")


@dataclass
class PipelineResult:
    """Everything the pipeline produced."""

    zigong: ZiGong
    scores: np.ndarray
    mixed_examples: list[InstructExample]
    warmup_history: History
    finetune_history: History


class ZiGongPipeline:
    """Runs the paper's full training recipe."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self._pruner = DataPruner(self.config.pruner)

    def run(
        self,
        train_examples: Sequence[InstructExample],
        val_examples: Sequence[InstructExample],
        checkpoint_dir: str | Path | None = None,
    ) -> PipelineResult:
        """Execute all stages and return the trained model + artifacts."""
        if not train_examples:
            raise ConfigError("pipeline needs training examples")
        cfg = self.config

        if checkpoint_dir is None:
            checkpoint_dir = Path(tempfile.mkdtemp(prefix="zigong-ckpt-"))

        # Stage 1: warmup fine-tune to produce checkpoints for replay.
        warmup_cfg = replace(
            cfg.zigong,
            training=replace(cfg.zigong.training, epochs=cfg.warmup_epochs),
            seed=cfg.seed,
        )
        warmup = ZiGong.from_examples(list(train_examples) + list(val_examples), config=warmup_cfg)
        warmup_history = warmup.finetune(train_examples, checkpoint_dir=checkpoint_dir)

        # Stage 2: agent / TracSeq scoring over the warmup checkpoints.
        from repro.training.checkpoint import CheckpointManager

        checkpoints = CheckpointManager(checkpoint_dir).checkpoints()
        scores = self._pruner.score(warmup, train_examples, val_examples, checkpoints)

        # Stage 3: 70/30 hybrid mix (Section 3.2), label-stratified so the
        # Top-K slice keeps the pool's class balance.
        from repro.data.instruct import labels_of

        mixed = hybrid_mix(
            list(train_examples),
            scores,
            pruned_fraction=cfg.pruned_fraction,
            seed=cfg.seed,
            labels=labels_of(train_examples),
        )

        # Stage 4: train the deployable model from scratch on the mix.
        final = ZiGong.from_examples(list(train_examples) + list(val_examples),
                                     config=replace(cfg.zigong, seed=cfg.seed + 1))
        finetune_history = final.finetune(mixed)

        return PipelineResult(
            zigong=final,
            scores=scores,
            mixed_examples=mixed,
            warmup_history=warmup_history,
            finetune_history=finetune_history,
        )
