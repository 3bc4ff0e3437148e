"""Per-sample gradient extraction and random-projection sketching.

TracInCP needs, at each stored checkpoint, the gradient of the loss for
every candidate training sample and every test sample.  Gradients are
flattened over the *trainable* parameters only — with LoRA applied this
is the adapter subspace, which is exactly the space fine-tuning moves in.

:func:`per_sample_gradient` is the reference: one forward and one
backward pass for one example.  :func:`gradient_matrix` produces the
same rows, bit for bit, with far fewer passes.  Examples of one token
length share a pass, for which every trainable parameter is swapped for
a per-row copy (``(B, *shape)``; 1-D weights ``(B, 1, n)``) that is the
gradient leaf.  Every layer node takes such copies and keeps row
``b``'s weight gradient in ``copy.grad[b]`` instead of summing it over
the batch, and the loss is the sum of per-row mean cross entropies, so every
row is seeded exactly as a one-row pass seeds it (the per-example
gradient trick, Goodfellow 2015).  Examples of different lengths never
share a pass: right-padding changes the rows' low bits.

A :class:`TracePlan` resolves a model's trainable parameters, and the
module attributes that hold them, once; a caller that traces one model
many times (the influence engine's replay model) keeps its plan, so a
pass does not walk the module tree.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import warnings
from typing import Iterator, Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.nn.module import Module, Parameter
from repro.nn.transformer import MistralTiny
from repro.obs import get_observability
from repro.tensor import row_cross_entropy

TokenExample = tuple[list[int], list[int]]

# Token budget of one batched gradient pass: a pass holds at most
# ``max(1, PASS_TOKENS // length)`` examples of one token length.
PASS_TOKENS = 256

# Rows per projection GEMM.  Not derived: in tiles of 8 a row's output
# bits came out identical at every tile position and beside any other
# rows, over 300 random (dim, k) shapes up to 12,000 x 600 on OpenBLAS
# 0.3.31 (a Xeon with the Sapphire Rapids instruction set); in 16-row
# tiles they did not.
PROJECTION_TILE = 8


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


@functools.lru_cache(maxsize=4)
def _sketch(dim: int, k: int, seed: int) -> np.ndarray:
    """The read-only scaled ``(dim, k)`` Gaussian sketch of ``seed``.

    Drawn once per key per process, so every projector of that key (one
    per pruning run) shares it; ``influence.projector_draws`` counts
    the draws.
    """
    matrix = np.random.default_rng(seed).standard_normal((dim, k))
    matrix /= np.sqrt(k)
    matrix.flags.writeable = False
    get_observability().metrics.counter("influence.projector_draws").inc()
    return matrix


class GradientProjector:
    """Random Gaussian projection of gradient vectors to ``k`` dimensions.

    Johnson–Lindenstrauss: dot products are preserved in expectation, so
    projected TracIn scores approximate the exact ones at a fraction of
    the memory.  Deterministic given ``seed`` — including *across
    processes*: the matrix is derived solely from
    ``numpy.random.default_rng(seed)``, never from process state, so the
    parallel influence engine's workers reproduce the parent's sketch
    exactly (pinned by a subprocess test via :meth:`fingerprint`).  The
    matrix is drawn once per ``(dim, k, seed)`` per process and shared,
    read-only, by every projector of that key.

    :meth:`project` multiplies rows by the sketch in zero-padded tiles of
    :data:`PROJECTION_TILE` rows, so every row, alone or in any batch and
    at any position in it, goes through the same ``(8, dim) @ (dim, k)``
    GEMM.  A row's projection is then a function of the row alone: BLAS
    picks its kernel and summation order by the operand shapes, and a
    plain ``rows @ matrix`` would change both with the row count.

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
        self._matrix = _sketch(dim, self.k, seed)

    def key(self) -> str:
        """Cache-key component: effective projection identity.

        The ``t`` part names the tile height, since rows projected in
        other tiles (or one by one) differ in their low bits.
        """
        return f"p{self.seed}-k{self.k}-d{self.dim}-t{PROJECTION_TILE}"

    def fingerprint(self) -> str:
        """Content hash of the projection matrix (determinism checks)."""
        return hashlib.sha1(np.ascontiguousarray(self._matrix).tobytes()).hexdigest()

    def project(self, rows: np.ndarray) -> np.ndarray:
        """Project a ``(dim,)`` vector to ``(k,)`` or ``(n, dim)`` rows to ``(n, k)``.

        Rows run through the sketch :data:`PROJECTION_TILE` at a time; the
        last, partial tile is zero-padded, so each output row is
        ``np.array_equal`` to the projection of that row alone.
        """
        rows = np.asarray(rows)
        if rows.ndim not in (1, 2):
            raise InfluenceError(f"project() takes (dim,) or (n, dim) rows, got shape {rows.shape}")
        if rows.shape[-1] != self.dim:
            raise InfluenceError(
                f"vector dim {rows.shape[-1]} does not match projector dim {self.dim}"
            )
        if rows.ndim == 1:
            return self.project(rows[None, :])[0]
        out = np.empty((len(rows), self.k))
        for start in range(0, len(rows), PROJECTION_TILE):
            tile = rows[start : start + PROJECTION_TILE]
            filled = len(tile)
            if filled < PROJECTION_TILE or tile.dtype != np.float64 or not tile.flags.c_contiguous:
                # Pad (and lay out as C-order float64), so BLAS sees one operand shape.
                tile = np.zeros((PROJECTION_TILE, self.dim))
                tile[:filled] = rows[start : start + filled]
            out[start : start + filled] = (tile @ self._matrix)[:filled]
        return out


def _modules(model: Module) -> Iterator[Module]:
    stack = [model]
    while stack:
        module = stack.pop()
        yield module
        stack.extend(child for _, child in module.named_children())


class TracePlan:
    """A model's trainable parameters and the attributes holding them.

    ``params`` is :func:`trainable_parameters` of ``model``; ``sites``
    lists ``(module, attribute, index into params)`` for every module
    attribute that holds one of them, which :func:`_per_row_parameters`
    swaps.  ``load_state_dict`` writes parameter data in place, so a
    plan stays valid across checkpoint restores; a model whose
    parameters or modules are replaced (LoRA injection) needs a new plan.
    """

    def __init__(self, model: Module):
        self.model = model
        self.params = trainable_parameters(model)
        index = {id(param): i for i, param in enumerate(self.params)}
        self.sites = [
            (module, key, index[id(value)])
            for module in _modules(model)
            for key, value in vars(module).items()
            if id(value) in index
        ]


def pass_plan(model, examples: Sequence[TokenExample]) -> list[list[int]]:
    """Indices of ``examples`` in each pass of :func:`gradient_matrix`.

    Examples are grouped by exact token length (in order of first
    appearance) and each group is split into passes of at most
    ``max(1, PASS_TOKENS // length)`` examples.  The batched loss is
    :class:`~repro.nn.transformer.MistralTiny`'s next-token loss, so any
    other model takes one pass per example.
    """
    if not isinstance(model, MistralTiny):
        return [[index] for index in range(len(examples))]
    groups: dict[int, list[int]] = {}
    for index, (input_ids, _) in enumerate(examples):
        groups.setdefault(len(input_ids), []).append(index)
    passes = []
    for length, indices in groups.items():
        size = max(1, PASS_TOKENS // length)
        passes.extend(indices[start : start + size] for start in range(0, len(indices), size))
    return passes


@contextlib.contextmanager
def _per_row_parameters(plan: TracePlan, batch: int):
    """Swap the plan's parameters for ``batch``-row copies; yield the copies.

    2-D weights become ``(batch, *shape)`` and 1-D weights
    ``(batch, 1, n)``, so each broadcasts against ``(batch, T, ...)``
    activations row by row.  The copies are read-only broadcast views
    of the parameter data.  Every site is restored on exit, also when
    the pass raises.
    """
    copies = []
    for param in plan.params:
        shape = (batch, 1) + param.shape if param.ndim == 1 else (batch,) + param.shape
        copies.append(Parameter(np.broadcast_to(param.data, shape)))
    try:
        for module, key, index in plan.sites:
            setattr(module, key, copies[index])
        yield copies
    finally:
        for module, key, index in plan.sites:
            setattr(module, key, plan.params[index])


def _batched_gradients(plan: TracePlan, examples: Sequence[TokenExample]) -> np.ndarray:
    """Per-example gradients of equal-length ``examples`` in one pass, ``(B, d)``."""
    batch = len(examples)
    input_ids = np.array([example[0] for example in examples], dtype=np.int64)
    labels = np.array([example[1] for example in examples], dtype=np.int64)
    with _per_row_parameters(plan, batch) as copies:
        logits = plan.model(input_ids)
        row_cross_entropy(logits[:, :-1, :], labels[:, 1:]).backward()
    params = plan.params
    rows = np.zeros((batch, sum(param.size for param in params)))
    offset = 0
    for param, copy in zip(params, copies):
        if copy.grad is not None:
            rows[:, offset : offset + param.size] = copy.grad.reshape(batch, -1)
        offset += param.size
    return rows


def _passes(plan: TracePlan, examples: Sequence[TokenExample]):
    """Yield ``(indices, rows)`` for each pass of :func:`pass_plan`.

    A pass of one example takes the plain one-example path: per-row
    copies buy nothing there.
    """
    for indices in pass_plan(plan.model, examples):
        if len(indices) == 1:
            yield indices, [_loss_gradient(plan.model, plan.params, examples[indices[0]])]
        else:
            yield indices, _batched_gradients(plan, [examples[i] for i in indices])


def gradient_matrix(
    plan: TracePlan,
    examples: Sequence[TokenExample],
    projector: GradientProjector | None = None,
) -> np.ndarray:
    """Stack per-sample gradients into an ``(n, d)`` (or ``(n, k)``) matrix.

    Row ``i`` is ``np.array_equal`` to :func:`per_sample_gradient` on
    ``examples[i]`` (projected, ``projector.project`` of it), but
    examples of one token length share a forward and backward pass (see
    the module docstring and :func:`pass_plan`).  With a projector, each
    row is copied into one :data:`PROJECTION_TILE`-row staging tile as
    its pass produces it; every full tile is projected at once and the
    last, partial one on return, so the raw ``(n, d)`` rows are never
    stacked and every projected row keeps the bits ``projector.project``
    gives it alone.  The model's parameters are left without gradient.
    During a pass they are swapped out for per-row copies, so the model
    must not run in another thread meanwhile; the influence engine only
    traces its private replay model, and this function is not
    re-exported from :mod:`repro.influence`.  The model is given as its
    :class:`TracePlan`, so a caller tracing one model many times resolves
    its parameters once.
    """
    if not examples:
        raise InfluenceError("gradient_matrix() received no examples")
    _clear_grads(plan.params)
    dim = sum(param.size for param in plan.params)
    if projector is None:
        out = np.empty((len(examples), dim))
        for indices, grads in _passes(plan, examples):
            for index, grad in zip(indices, grads):
                out[index] = grad
        return out
    out = np.empty((len(examples), projector.k))
    tile = np.empty((PROJECTION_TILE, dim))
    staged: list[int] = []
    for indices, grads in _passes(plan, examples):
        for index, grad in zip(indices, grads):
            tile[len(staged)] = grad
            staged.append(index)
            if len(staged) == PROJECTION_TILE:
                out[staged] = projector.project(tile)
                staged.clear()
    if staged:
        out[staged] = projector.project(tile[: len(staged)])
    return out
