"""Feed-forward block: SwiGLU (Mistral's)."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor
from repro.tensor.random import default_rng
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module


def swiglu_np(gate: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw SwiGLU gate ``silu(gate) * up``; returns ``(out, sigmoid(gate))``.

    Shared by the fused inference kernel and :func:`swiglu`.
    """
    sig = 1.0 / (1.0 + np.exp(-gate))
    out = gate * sig
    out *= up
    return out, sig


def swiglu(gate: Tensor, up: Tensor) -> Tensor:
    """One graph node for ``silu(gate) * up``; forward is :func:`swiglu_np`."""
    data, sig = swiglu_np(gate.data, up.data)
    out = Tensor._result(data, (gate, up))
    if out.requires_grad:

        def _backward():
            grad = out.grad
            if gate.requires_grad:
                gate._accumulate(grad * up.data * (sig * (1.0 + gate.data * (1.0 - sig))))
            if up.requires_grad:
                up._accumulate(grad * (gate.data * sig))

        out._backward = _backward
    return out


class SwiGLU(Module):
    """Gated feed-forward: ``W2( SiLU(W1 x) * W3 x )``.

    This is the FFN used by Mistral/Llama; the gate uses the SiLU
    activation named in Table 3 of the paper.
    """

    def __init__(self, d_model: int, d_ff: int, dropout: float = 0.0, rng=None):
        super().__init__()
        rng = default_rng(rng)
        self.w1 = Linear(d_model, d_ff, bias=False, rng=rng)  # gate projection
        self.w3 = Linear(d_model, d_ff, bias=False, rng=rng)  # up projection
        self.w2 = Linear(d_ff, d_model, bias=False, rng=rng)  # down projection
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.dropout(self.w2(swiglu(self.w1(x), self.w3(x))))
