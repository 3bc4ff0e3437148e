"""Minimal reverse-mode autodiff engine over numpy.

This subpackage is the computational substrate for the whole reproduction:
the MistralTiny language model (:mod:`repro.nn`), LoRA fine-tuning
(:mod:`repro.lora`) and per-sample gradient extraction for TracInCP /
TracSeq (:mod:`repro.influence`) are all built on :class:`Tensor`.

The engine is deliberately small and explicit — a :class:`Tensor` wraps a
``float32`` numpy array, records its parents and a backward closure, and
``backward()`` runs reverse-mode accumulation over a topological sort.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.ops import (
    concat,
    cross_entropy,
    embedding,
    row_cross_entropy,
    softmax,
)
from repro.tensor.random import Initializer, default_rng, uniform_init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concat",
    "softmax",
    "cross_entropy",
    "row_cross_entropy",
    "embedding",
    "default_rng",
    "Initializer",
    "uniform_init",
]
