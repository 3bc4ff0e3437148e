"""What the trainer does after each step and epoch: keep history, publish metrics."""

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


@dataclass
class History:
    """Records every step and epoch loss; ``Trainer.train`` returns it."""

    steps: list[StepLog] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)

    def on_step(self, log: StepLog) -> None:
        self.steps.append(log)

    def on_epoch_end(self, epoch: int, mean_loss: float) -> None:
        self.epoch_losses.append(mean_loss)

    @property
    def losses(self) -> list[float]:
        return [s.loss for s in self.steps]


class MetricsLogger:
    """Publish step telemetry into the observability layer.

    The trainer keeps one wired to its own hub, so
    ``training.steps`` / ``training.tokens`` counters, the
    ``training.step_s`` histogram and the ``training.loss`` /
    ``training.lr`` / ``training.grad_norm`` / ``training.tokens_per_s``
    gauges stay fresh during any ``train()`` call; each step and epoch
    also emits a structured event when the hub has a sink.
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
