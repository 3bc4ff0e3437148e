"""Per-sample gradient extraction and random-projection sketching.

TracInCP needs, at each stored checkpoint, the gradient of the loss for
every candidate training sample and every test sample.  Gradients are
flattened over the *trainable* parameters only — with LoRA applied this
is the adapter subspace, which is exactly the space fine-tuning moves in.
"""

from __future__ import annotations

import hashlib
import warnings
from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.nn.module import Module, Parameter

TokenExample = tuple[list[int], list[int]]


def trainable_parameters(model: Module) -> list[Parameter]:
    """The parameters gradients are traced over, in a stable order."""
    params = [p for _, p in sorted(model.named_parameters()) if p.requires_grad]
    if not params:
        raise InfluenceError("model has no trainable parameters to trace")
    return params


def trainable_parameter_slices(model: Module) -> list[tuple[str, slice]]:
    """``(name, slice)`` per trainable parameter into the flat gradient.

    The slices partition the vectors produced by :func:`flatten_grads`
    (same stable name order), giving estimators that reason per layer —
    DataInf's per-layer Hessian adjustment — the block structure of the
    flattened gradient.  With LoRA applied, each ``lora_a`` / ``lora_b``
    factor is its own block, exactly the granularity the DataInf paper
    computes its closed form at.
    """
    named = [(n, p) for n, p in sorted(model.named_parameters()) if p.requires_grad]
    if not named:
        raise InfluenceError("model has no trainable parameters to trace")
    slices = []
    offset = 0
    for name, param in named:
        slices.append((name, slice(offset, offset + param.size)))
        offset += param.size
    return slices


IGNORE_INDEX = -100


def per_token_examples(
    example: TokenExample,
) -> tuple[list[TokenExample], tuple[int, ...]]:
    """Single-supervised-position variants of one token example.

    Returns ``(variants, positions)``: for each supervised label
    position ``t`` (label not ``-100``; position 0 can never be
    supervised because labels are next-token shifted), a copy of the
    example with every *other* label masked to ``-100``.  The loss of
    variant ``t`` is exactly the token-level loss ``l_t``, so — the
    full loss being the mean over supervised positions — the variants'
    gradients divided by ``len(positions)`` sum to the example's
    gradient.  That identity is what makes token-wise influence an
    exact decomposition of the sequence-level score.

    Variants are ordinary :data:`TokenExample` values, so their
    gradient rows are content-addressed and cached in the
    :class:`~repro.influence.store.GradientStore` like any other row.
    """
    input_ids, labels = example
    input_ids = list(input_ids)
    labels = list(labels)
    positions = tuple(
        t for t in range(1, len(labels)) if labels[t] != IGNORE_INDEX
    )
    if not positions:
        raise InfluenceError("example has no supervised label positions to attribute")
    variants = []
    for position in positions:
        masked = [IGNORE_INDEX] * len(labels)
        masked[position] = labels[position]
        variants.append((list(input_ids), masked))
    return variants, positions


def flatten_grads(params: Sequence[Parameter]) -> np.ndarray:
    """Concatenate parameter gradients into one float64 vector.

    Parameters that received no gradient contribute zeros, keeping the
    layout stable across samples.
    """
    chunks = []
    for p in params:
        if p.grad is None:
            chunks.append(np.zeros(p.size, dtype=np.float64))
        else:
            chunks.append(p.grad.reshape(-1).astype(np.float64))
    return np.concatenate(chunks)


def _clear_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.grad = None


def _loss_gradient(model, params: Sequence[Parameter], example: TokenExample) -> np.ndarray:
    """One backward pass; ``params`` must hold no gradient on entry.

    Only trainable parameters accumulate gradients, so clearing
    ``params`` afterwards leaves the model as clean as ``zero_grad()``
    would, without walking the module tree.
    """
    input_ids, labels = example
    loss = model.loss(
        np.asarray(input_ids, dtype=np.int64)[None, :],
        np.asarray(labels, dtype=np.int64)[None, :],
    )
    loss.backward()
    grad = flatten_grads(params)
    _clear_grads(params)
    return grad


def per_sample_gradient(model, example: TokenExample) -> np.ndarray:
    """Gradient of the LM loss for a single tokenized example."""
    params = trainable_parameters(model)
    model.zero_grad()
    return _loss_gradient(model, params, example)


class GradientProjector:
    """Random Gaussian projection of gradient vectors to ``k`` dimensions.

    Johnson–Lindenstrauss: dot products are preserved in expectation, so
    projected TracIn scores approximate the exact ones at a fraction of
    the memory.  Deterministic given ``seed`` — including *across
    processes*: the matrix is derived solely from
    ``numpy.random.default_rng(seed)``, never from process state, so the
    parallel influence engine's workers reproduce the parent's sketch
    exactly (pinned by a subprocess test via :meth:`fingerprint`).

    A ``k`` larger than ``dim`` is clamped to ``dim`` with a
    ``RuntimeWarning`` — two runs configured with different over-large
    ``k`` would otherwise silently produce identical sketches.  The
    requested value stays available as :attr:`requested_k`.
    """

    def __init__(self, dim: int, k: int = 256, seed: int = 0):
        if k <= 0 or dim <= 0:
            raise InfluenceError("projection dims must be positive")
        self.dim = dim
        self.seed = seed
        self.requested_k = k
        if k > dim:
            warnings.warn(
                f"projection k={k} exceeds gradient dim={dim}; clamping to k={dim} "
                "(sketches with any k >= dim are identical)",
                RuntimeWarning,
                stacklevel=2,
            )
        self.k = min(k, dim)
        rng = np.random.default_rng(seed)
        self._matrix = rng.standard_normal((dim, self.k)) / np.sqrt(self.k)

    def key(self) -> str:
        """Cache-key component: effective projection identity."""
        return f"p{self.seed}-k{self.k}-d{self.dim}"

    def fingerprint(self) -> str:
        """Content hash of the projection matrix (determinism checks)."""
        return hashlib.sha1(np.ascontiguousarray(self._matrix).tobytes()).hexdigest()

    def project(self, vec: np.ndarray) -> np.ndarray:
        if vec.shape[-1] != self.dim:
            raise InfluenceError(
                f"vector dim {vec.shape[-1]} does not match projector dim {self.dim}"
            )
        return vec @ self._matrix


def gradient_matrix(
    model,
    examples: Sequence[TokenExample],
    projector: GradientProjector | None = None,
) -> np.ndarray:
    """Stack per-sample gradients into an ``(n, d)`` (or ``(n, k)``) matrix.

    Each row equals :func:`per_sample_gradient` on its example; the
    trainable parameter list is resolved once for the whole call.
    """
    if not examples:
        raise InfluenceError("gradient_matrix() received no examples")
    params = trainable_parameters(model)
    _clear_grads(params)
    rows = []
    for example in examples:
        grad = _loss_gradient(model, params, example)
        rows.append(projector.project(grad) if projector is not None else grad)
    return np.stack(rows)
