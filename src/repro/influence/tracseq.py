"""TracSeq: TracInCP with temporal decay (the paper's Eq. 1).

Financial behavior data is sequential: a user's past behavior influences
future predictions, and recent behavior matters more.  TracSeq weights
each checkpoint term by a time-decay factor

    TracSeq(z_t, z'_T) = sum_i  gamma^(T - t_i) * eta_i *
                         grad(w_{t_i}, z_t) . grad(w_{t_i}, z'_T)

with ``gamma in (0, 1]``.  ``gamma == 1`` recovers plain TracInCP.

Two notions of time are supported:

* **checkpoint time** ``t_i`` — by default the checkpoint's ordinal
  position, so later checkpoints (trained on more recent data under the
  paper's sequential training regime) receive higher weight.  Explicit
  ``checkpoint_times`` may be supplied instead.
* **sample time** — optionally, per-sample timestamps further decay the
  contribution of *old training samples* relative to the test horizon
  (:meth:`TracSeq.sample_decay`, multiplied into an ``influence()``
  aggregate), implementing the paper's remark that "more recent samples
  receive higher weights".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.influence.tracin import TracInCP
from repro.training.checkpoint import CheckpointRecord


class TracSeq(TracInCP):
    """Time-decayed checkpoint influence estimation.

    ``checkpoint_times[i]`` is the time of ``checkpoints[i]`` (default:
    each checkpoint's ordinal in step order); the decay horizon is the
    newest checkpoint time.  Other keyword arguments are those of
    :class:`~repro.influence.api.DataInfluence`.
    """

    estimator_name = "tracseq"

    def __init__(
        self,
        model,
        checkpoints: Sequence[CheckpointRecord],
        gamma: float = 0.9,
        checkpoint_times: Sequence[float] | None = None,
        **kwargs,
    ):
        super().__init__(model, checkpoints, **kwargs)
        if not 0.0 < gamma <= 1.0:
            raise InfluenceError(f"gamma must be in (0, 1], got {gamma}")
        self.gamma = gamma
        if checkpoint_times is None:
            self.checkpoint_times = [float(i) for i in range(len(self.checkpoints))]
        else:
            if len(checkpoint_times) != len(self.checkpoints):
                raise InfluenceError(
                    f"{len(checkpoint_times)} checkpoint_times for "
                    f"{len(self.checkpoints)} checkpoints"
                )
            # Each time belongs to its checkpoint: apply the same stable
            # step sort that ordered self.checkpoints.
            order = sorted(range(len(checkpoints)), key=lambda i: checkpoints[i].step)
            self.checkpoint_times = [float(checkpoint_times[i]) for i in order]
        self.horizon = max(self.checkpoint_times)

    def _checkpoint_weight(self, index: int, record: CheckpointRecord) -> float:
        decay = self.gamma ** (self.horizon - self.checkpoint_times[index])
        return decay * record.lr

    def sample_decay(
        self,
        sample_times: Sequence[float],
        test_time: float | None = None,
    ) -> np.ndarray:
        """Per-sample age-decay weights ``gamma ** (test_time - t_j)``.

        ``test_time`` defaults to the newest sample time.  Multiply an
        ``influence()`` aggregate by these weights to implement the
        paper's remark that recent training samples receive higher
        weight.  Validates in microseconds — before any gradient work a
        caller might chain after it.
        """
        times = np.asarray(sample_times, dtype=np.float64)
        horizon = float(test_time) if test_time is not None else float(times.max())
        ages = horizon - times
        if (ages < 0).any():
            raise InfluenceError("sample_times contains timestamps after test_time")
        return self.gamma**ages
