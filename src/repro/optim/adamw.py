"""AdamW — the paper's optimizer (Table 3)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer

# The paper's moment decays (Table 3) and the usual denominator guard.
BETAS = (0.9, 0.999)
EPS = 1e-8


class AdamW(Optimizer):
    """AdamW (Loshchilov & Hutter) with the paper's ``beta1=0.9``, ``beta2=0.999``.

    The paper's recipe sets no weight decay, so the decoupled decay term
    is zero and the update is Adam's.
    """

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3):
        super().__init__(params, lr)
        self.beta1, self.beta2 = BETAS
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _state_buffers(self) -> dict[str, list[np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(np.float32)
