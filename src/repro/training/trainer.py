"""Supervised fine-tuning loop with gradient accumulation and checkpoints.

Mirrors the paper's training configuration (Table 3): AdamW, cosine-decay
learning rate, batch size with gradient accumulation, periodic
checkpoints consumed later by TracInCP / TracSeq.

Checkpoints capture the **full training state** — model parameters,
optimizer moments, the LR-schedule position and the data-order RNG
state at the start of the current epoch, all in one artifact — so
:meth:`Trainer.resume` continues a crashed run *bit-identically*: the
resumed run's final weights equal an uninterrupted run's, moment decay,
bias correction, shuffle order and all (pinned by the kill-and-resume
chaos test in ``tests/test_resilience.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError, GradientError
from repro.nn.transformer import MistralTiny
from repro.obs import Observability, get_observability
from repro.optim.clip import clip_grad_norm
from repro.optim.optimizer import Optimizer
from repro.optim.schedule import ConstantLR, LRSchedule
from repro.resilience.faults import fault_point
from repro.training.batching import iter_batches
from repro.training.callbacks import History, MetricsLogger, StepLog
from repro.training.checkpoint import CheckpointManager

TokenExample = tuple[list[int], list[int]]

# Global gradient-norm bound applied before every optimizer step.
CLIP_NORM = 1.0


@dataclass(frozen=True)
class TrainingConfig:
    """Loop hyperparameters.

    ``batch_size`` is the *effective* batch; with ``grad_accum_steps > 1``
    it is split into that many micro-batches (paper: batch 32, grad
    accumulation 4).
    """

    epochs: int = 1
    batch_size: int = 8
    grad_accum_steps: int = 1
    checkpoint_every: int | None = None
    pad_id: int = 0
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0:
            raise ConfigError("epochs must be positive")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be positive")
        if self.grad_accum_steps <= 0:
            raise ConfigError("grad_accum_steps must be positive")
        if self.batch_size % self.grad_accum_steps != 0:
            raise ConfigError(
                f"batch_size {self.batch_size} must be divisible by "
                f"grad_accum_steps {self.grad_accum_steps}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ConfigError("checkpoint_every must be positive or None")


class Trainer:
    """Runs supervised fine-tuning over tokenized instruction examples."""

    def __init__(
        self,
        model: MistralTiny,
        optimizer: Optimizer,
        config: TrainingConfig | None = None,
        schedule: LRSchedule | None = None,
        checkpoint_manager: CheckpointManager | None = None,
        obs: Observability | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.model = model
        self.optimizer = optimizer
        self.config = config or TrainingConfig()
        self.schedule = schedule or ConstantLR(optimizer.lr)
        self.checkpoints = checkpoint_manager
        self.history = History()
        self.obs = obs or get_observability()
        self._clock = clock
        # Per-step timing, tokens/sec and the loss gauge publish through
        # a MetricsLogger wired to this trainer's hub.
        self._metrics = MetricsLogger(self.obs)
        self.global_step = 0
        # Position within the epoch loop, captured into checkpoint
        # metadata for exact resume.
        self._epoch = 0
        self._micro_consumed = 0
        self._epoch_rng_state: dict | None = None
        self._resume_state: dict | None = None

    def resume(self) -> int:
        """Restore the latest checkpoint and continue from its step.

        Returns the restored step (0 when no checkpoint exists).
        Restores model parameters, optimizer moments, the LR-schedule
        position (``global_step``) and — via metadata the trainer wrote
        at save time — the epoch, the number of micro-batches already
        consumed in it, and the shuffle RNG state at the epoch's start.
        A subsequent :meth:`train` call with the original examples then
        replays the exact uninterrupted trajectory: same batches, same
        order, same moments, bit-identical final weights.

        A checkpoint saved through :meth:`CheckpointManager.save` without
        an optimizer or trainer metadata still resumes, but restarts the
        optimizer moments and the data order.
        """
        if self.checkpoints is None:
            raise ConfigError("resume() requires a checkpoint manager")
        record = self.checkpoints.latest()
        if record is None:
            return 0
        opt_state = CheckpointManager.restore(self.model, record)
        if opt_state is not None:
            self.optimizer.load_state_dict(opt_state)
        self.global_step = record.step
        trainer_meta = record.extra.get("trainer")
        self._resume_state = dict(trainer_meta) if trainer_meta else None
        return record.step

    def _run_micro_batch(self, batch) -> float:
        loss = self.model.loss(batch.input_ids, batch.labels)
        value = loss.item()
        # Fail loudly on NaN/Inf instead of silently corrupting the
        # weights (and every checkpoint after them).
        if not np.isfinite(value):
            raise GradientError(
                f"non-finite loss ({value}) at step {self.global_step}; "
                "lower the learning rate"
            )
        scaled = loss * (1.0 / self.config.grad_accum_steps)
        scaled.backward()
        return value

    def train(self, examples: Sequence[TokenExample]) -> History:
        """Train over ``examples`` (token id / label pairs); returns history.

        After :meth:`resume` restored a mid-run checkpoint, this picks
        up exactly where the crashed run left off: the shuffle RNG is
        rewound to the interrupted epoch's start, the epoch's order is
        re-derived, and the micro-batches the crashed run already
        consumed are skipped without touching the weights.
        """
        if not examples:
            raise ConfigError("train() received no examples")
        cfg = self.config
        micro = cfg.batch_size // cfg.grad_accum_steps
        rng = np.random.default_rng(cfg.seed)
        max_len = self.model.config.max_seq_len

        start_epoch = 0
        skip_micro = 0
        resume = self._resume_state
        self._resume_state = None
        if resume is not None:
            if resume.get("rng_state") is not None:
                rng.bit_generator.state = resume["rng_state"]
            start_epoch = int(resume.get("epoch", 0))
            skip_micro = int(resume.get("micro_consumed", 0))

        self._epoch = start_epoch
        self._micro_consumed = 0
        self._epoch_rng_state = rng.bit_generator.state

        # Checkpoint 0 captures the initial parameters so influence replay
        # can include the pre-training state.
        if self.checkpoints is not None and self.global_step == 0:
            self._save_checkpoint(step=0, lr=self.schedule.lr_at(0))

        for epoch in range(start_epoch, cfg.epochs):
            self._epoch = epoch
            self._micro_consumed = 0
            # Captured *before* the epoch's shuffle draws, so a resumed
            # run can rewind and re-derive the identical data order.
            self._epoch_rng_state = rng.bit_generator.state
            epoch_losses: list[float] = []
            micro_iter = iter_batches(
                examples,
                batch_size=micro,
                pad_id=cfg.pad_id,
                max_len=max_len,
                shuffle=cfg.shuffle,
                rng=rng,
            )
            pending: list = []
            for batch in micro_iter:
                if skip_micro > 0:
                    # Already consumed by the crashed run before its
                    # last checkpoint; weights must not see it again.
                    skip_micro -= 1
                    self._micro_consumed += 1
                    continue
                pending.append(batch)
                self._micro_consumed += 1
                if len(pending) < cfg.grad_accum_steps:
                    continue
                epoch_losses.append(self._step(pending))
                pending = []
            if pending:
                epoch_losses.append(self._step(pending))
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            self.history.on_epoch_end(epoch, mean_loss)
            self._metrics.on_epoch_end(epoch, mean_loss)
        return self.history

    def _save_checkpoint(self, step: int, lr: float) -> None:
        """Full-state checkpoint: parameters, moments, loop position."""
        assert self.checkpoints is not None
        self.checkpoints.save(
            self.model,
            step=step,
            lr=lr,
            extra={
                "trainer": {
                    "epoch": self._epoch,
                    "micro_consumed": self._micro_consumed,
                    "rng_state": self._epoch_rng_state,
                }
            },
            optimizer=self.optimizer,
        )
        # Chaos tests arm this to kill the run right after checkpoint k.
        fault_point("training.checkpoint_saved", step=step)

    def _step(self, micro_batches) -> float:
        started = self._clock()
        tokens = int(sum(batch.input_ids.size for batch in micro_batches))
        fault_point("training.step", step=self.global_step + 1)
        with self.obs.span(
            "training.step", step=self.global_step + 1, tokens=tokens
        ):
            lr = self.schedule.lr_at(self.global_step)
            self.optimizer.lr = lr
            self.optimizer.zero_grad()
            losses = [self._run_micro_batch(batch) for batch in micro_batches]
            grad_norm = clip_grad_norm(self.optimizer.params, CLIP_NORM)
            if not np.isfinite(grad_norm):
                raise GradientError(
                    f"non-finite gradient norm at step {self.global_step}; "
                    "check inputs and learning rate"
                )
            self.optimizer.step()
            self.model.bump_weight_version()
        self.global_step += 1
        loss = float(np.mean(losses))
        log = StepLog(
            step=self.global_step,
            loss=loss,
            lr=lr,
            grad_norm=grad_norm,
            step_s=max(0.0, self._clock() - started),
            tokens=tokens,
        )
        self.history.on_step(log)
        self._metrics.on_step(log)
        if (
            self.checkpoints is not None
            and self.config.checkpoint_every is not None
            and self.global_step % self.config.checkpoint_every == 0
        ):
            self._save_checkpoint(step=self.global_step, lr=lr)
        return loss
