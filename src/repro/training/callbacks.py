"""Trainer callbacks: logging, history, metrics publishing, early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import Observability, get_observability


@dataclass
class StepLog:
    """One optimizer step's telemetry.

    ``step_s`` (wall time on the trainer's injectable clock) and
    ``tokens`` (input tokens consumed, padding included) feed the
    tokens/sec throughput metric.
    """

    step: int
    loss: float
    lr: float
    grad_norm: float
    step_s: float = 0.0
    tokens: int = 0

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / self.step_s if self.step_s > 0 else 0.0


class Callback:
    """Hook interface; all methods are optional no-ops."""

    def on_step(self, log: StepLog) -> None:
        """Called after every optimizer step."""

    def on_epoch_end(self, epoch: int, mean_loss: float) -> None:
        """Called after each pass over the training data."""

    def should_stop(self) -> bool:
        """Return True to stop training after the current step."""
        return False


@dataclass
class History(Callback):
    """Records every step; the trainer installs one automatically."""

    steps: list[StepLog] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)

    def on_step(self, log: StepLog) -> None:
        self.steps.append(log)

    def on_epoch_end(self, epoch: int, mean_loss: float) -> None:
        self.epoch_losses.append(mean_loss)

    @property
    def losses(self) -> list[float]:
        return [s.loss for s in self.steps]


class MetricsLogger(Callback):
    """Publish step telemetry into the observability layer.

    The trainer installs one automatically (wired to its own hub), so
    ``training.steps`` / ``training.tokens`` counters, the
    ``training.step_s`` histogram and the ``training.loss`` /
    ``training.lr`` / ``training.grad_norm`` / ``training.tokens_per_s``
    gauges stay fresh during any ``train()`` call; each step and epoch
    also emits a structured event when the hub has a sink.  Standalone
    use (e.g. a custom registry): pass it via ``callbacks=[...]``.
    """

    def __init__(self, obs: Observability | None = None):
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_steps = metrics.counter("training.steps")
        self._m_tokens = metrics.counter("training.tokens")
        self._h_step_s = metrics.histogram("training.step_s")
        self._g_loss = metrics.gauge("training.loss")
        self._g_lr = metrics.gauge("training.lr")
        self._g_grad_norm = metrics.gauge("training.grad_norm")
        self._g_tokens_per_s = metrics.gauge("training.tokens_per_s")

    def on_step(self, log: StepLog) -> None:
        self._m_steps.inc()
        self._m_tokens.inc(log.tokens)
        self._h_step_s.observe(log.step_s)
        self._g_loss.set(log.loss)
        self._g_lr.set(log.lr)
        self._g_grad_norm.set(log.grad_norm)
        if log.step_s > 0:
            self._g_tokens_per_s.set(log.tokens_per_s)
        self.obs.event(
            "training.step",
            step=log.step,
            loss=log.loss,
            lr=log.lr,
            grad_norm=log.grad_norm,
            tokens=log.tokens,
            step_s=log.step_s,
        )

    def on_epoch_end(self, epoch: int, mean_loss: float) -> None:
        self.obs.event("training.epoch", epoch=epoch, mean_loss=mean_loss)


class ValidationLoss(Callback):
    """Tracks loss on a held-out set at each epoch end.

    Combine with :class:`EarlyStopping` by passing ``watch=val`` — the
    stopper then reacts to validation (not training) loss, the usual
    guard against overfitting small instruction sets.
    """

    def __init__(self, model, val_examples, pad_id: int = 0, max_len: int | None = None):
        if not val_examples:
            raise ValueError("ValidationLoss needs a non-empty validation set")
        self.model = model
        self.val_examples = list(val_examples)
        self.pad_id = pad_id
        self.max_len = max_len
        self.losses: list[float] = []

    def _compute(self) -> float:
        import numpy as np

        from repro.tensor import no_grad
        from repro.training.batching import collate

        batch = collate(self.val_examples, pad_id=self.pad_id, max_len=self.max_len)
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                value = self.model.loss(batch.input_ids, batch.labels).item()
        finally:
            if was_training:
                self.model.train()
        return float(value)

    def on_epoch_end(self, epoch: int, mean_loss: float) -> None:
        self.losses.append(self._compute())

    @property
    def best(self) -> float:
        if not self.losses:
            raise ValueError("no validation losses recorded yet")
        return min(self.losses)


class EarlyStopping(Callback):
    """Stop when the watched loss fails to improve ``patience`` times.

    By default watches the training epoch loss; pass a
    :class:`ValidationLoss` callback as ``watch`` (installed *before*
    this one in the trainer's callback list) to stop on validation loss.
    """

    def __init__(self, patience: int = 3, min_delta: float = 1e-4,
                 watch: "ValidationLoss | None" = None):
        self.patience = patience
        self.min_delta = min_delta
        self.watch = watch
        self.best = float("inf")
        self.bad_epochs = 0
        self._stop = False

    def on_epoch_end(self, epoch: int, mean_loss: float) -> None:
        value = self.watch.losses[-1] if self.watch is not None else mean_loss
        if value < self.best - self.min_delta:
            self.best = value
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self._stop = True

    def should_stop(self) -> bool:
        return self._stop
