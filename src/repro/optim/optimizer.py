"""Optimizer base class."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigError
from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list.

    Only parameters with ``requires_grad=True`` are updated, so a model
    with frozen base weights and LoRA adapters can hand its full
    parameter list to the optimizer.

    Optimizers are checkpointable: :meth:`state_dict` captures the step
    count plus every moment buffer a subclass reports through
    :meth:`_state_buffers`, and :meth:`load_state_dict` restores them
    in place.  Restoring makes a resumed run *bit-identical* to an
    uninterrupted one — AdamW's bias correction and moment decay depend
    on both the buffers and ``step_count``.
    """

    def __init__(self, params: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ConfigError("optimizer received no trainable parameters")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    # -- checkpointable state ------------------------------------------

    def _state_buffers(self) -> dict[str, list[np.ndarray]]:
        """Per-parameter moment buffers, keyed by buffer name.

        Subclasses with state (AdamW's ``m``/``v``)
        override this; each list must be parallel to ``self.params``.
        """
        return {}

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat array mapping suitable for ``np.savez``."""
        state: dict[str, np.ndarray] = {
            "step_count": np.asarray(self.step_count, dtype=np.int64)
        }
        for key, buffers in self._state_buffers().items():
            for index, buffer in enumerate(buffers):
                state[f"{key}.{index:04d}"] = buffer
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output in place (buffers stay aliased)."""
        if "step_count" not in state:
            raise CheckpointError("optimizer state missing 'step_count'")
        for key, buffers in self._state_buffers().items():
            for index, buffer in enumerate(buffers):
                name = f"{key}.{index:04d}"
                if name not in state:
                    raise CheckpointError(f"optimizer state missing buffer {name!r}")
                value = np.asarray(state[name])
                if value.shape != buffer.shape:
                    raise CheckpointError(
                        f"optimizer buffer {name!r} shape {value.shape} != {buffer.shape}"
                    )
                buffer[...] = value
        self.step_count = int(np.asarray(state["step_count"]))
