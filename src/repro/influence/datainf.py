"""DataInf: closed-form Hessian-adjusted influence at the final checkpoint.

Kwon et al. (2023): for LoRA-tuned models the influence-function
Hessian can be approximated *per layer* and inverted in closed form.
Swapping the order of the average and the inverse,

    H_l^{-1}  ~=  (1/n) sum_i (lam_l I + g_il g_il^T)^{-1}

and each rank-one term inverts exactly via Sherman-Morrison:

    (lam I + g g^T)^{-1} v = (1/lam) (v - (g.v) / (lam + |g|^2) g)

so the adjustment never materializes a ``d x d`` matrix — only dot
products against the ``n`` training gradients.  The influence of
training sample ``z_j`` on test sample ``z'`` is then

    DataInf(z_j, z') = sum_l  g_jl . H_l^{-1} v_l  =  sum_l  (H_l^{-1} g_jl) . v_l

with ``v`` the test gradient; ``H_l^{-1}`` is symmetric, so the
adjustment can move onto the training side.  Signs follow the repo's
TracIn convention: positive scores are proponents.  Unlike TracInCP's
checkpoint replay (``n x n_ckpt`` gradient rows), DataInf needs one
gradient row per example at the *final* checkpoint only — the source
of its speedup — at the cost of a curvature approximation that is
tightest in low-rank (LoRA) subspaces.

The regularizer defaults to the paper's heuristic
``lam_l = lam_scale * mean_i |g_il|^2 / d_l``; pass an explicit ``lam``
to pin it (the golden test compares against an explicit
``np.linalg.inv`` construction at a fixed ``lam``).

Raw gradient rows come from the shared
:class:`~repro.influence.engine.ParallelInfluenceEngine` /
:class:`~repro.influence.store.GradientStore` machinery, so a store
warmed by TracInCP already holds every row DataInf needs at the final
step.  The last training set is kept as a resident training block:
its hashes in row order and the adjusted rows ``A = H^{-1} g_train``,
stored transposed and read-only.  A query against it replays and looks
up only its test rows (inside an explain request they are the
request's and never enter the store), and its scores are one matrix
product ``(g_test @ A^T)^T``, so a score depends on the training set and the
test row alone, never on which queries came before.  Building ``A``
costs about ``2 n d_l min(n, d_l)`` multiply-adds per layer once per
training set, with ``min(n, d_l)^2`` floats of scratch, and holds ``A``
beside the stacked ``g_train`` while it runs; adjusting the ``m`` test
rows of each call instead would cost ``3 n d m`` per call.  So a
one-shot caller with ``n >> m`` and exact gradients (DataInf pruning
or ``repro influence`` without a sketch) pays more time and peak
memory than a per-query adjustment would; ``docs/influence.md`` gives
measured costs.  Pass the training set as a
:class:`~repro.influence.store.TokenSet` to hash it once, not per call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.influence.api import DataInfluence, TokenInfluence
from repro.influence.gradients import (
    TokenExample,
    per_token_examples,
    trainable_parameter_slices,
)
from repro.influence.store import TokenSet
from repro.training.checkpoint import CheckpointRecord


class DataInf(DataInfluence):
    """Closed-form influence over the final checkpoint's LoRA gradients.

    Parameters
    ----------
    model / checkpoints:
        As in :class:`~repro.influence.api.DataInfluence`; only the
        *last* checkpoint (highest step) is kept and ever replayed.
    lam:
        Explicit Hessian regularizer applied to every layer.  Default
        ``None`` uses the paper's per-layer heuristic
        ``lam_scale * mean_i |g_il|^2 / d_l``.
    lam_scale:
        Scale of the per-layer heuristic; the paper uses ``0.1``.
    projector:
        Optional gradient sketch.  Projection mixes layers, so the
        per-layer closed form collapses to a single block over the
        sketched vector — still Sherman-Morrison, just one "layer".
    normalize:
        Unit-normalize raw gradient rows before the adjustment
        (cosine-style).  Note token-wise attribution is only an exact
        decomposition with ``normalize=False``.
    store / cache_dir / workers / obs:
        As in :class:`~repro.influence.api.DataInfluence`.  Share the
        ``store`` with a TracIn tracer and DataInf reuses its raw rows
        at the final step without a single new backward pass.  With one
        checkpoint there is one replay job, so ``workers`` never forks.
    """

    estimator_name = "datainf"

    def __init__(
        self,
        model,
        checkpoints: Sequence[CheckpointRecord],
        lam: float | None = None,
        lam_scale: float = 0.1,
        **kwargs,
    ):
        if lam is not None and lam <= 0:
            raise InfluenceError(f"lam must be positive, got {lam}")
        if lam_scale <= 0:
            raise InfluenceError(f"lam_scale must be positive, got {lam_scale}")
        super().__init__(model, sorted(checkpoints, key=lambda r: r.step)[-1:], **kwargs)
        self.checkpoint = self.checkpoints[0]
        self.lam = float(lam) if lam is not None else None
        self.lam_scale = float(lam_scale)
        # The resident training block, see _train_block.
        self._resident: tuple | None = None

    # -- internals -----------------------------------------------------

    def _layer_slices(self, dim: int) -> list[tuple[str, slice]]:
        """Block structure the closed form runs over.

        Without a projector, blocks are the trainable (LoRA) parameters;
        a projector mixes layers, leaving one block over the sketch.
        """
        if self.projector is not None:
            return [("projected", slice(0, dim))]
        return trainable_parameter_slices(self.model)

    def layer_lambdas(self, g_train: np.ndarray) -> list[float]:
        """Per-layer regularizer actually used for a train gradient matrix."""
        lams = []
        for _, layer in self._layer_slices(g_train.shape[1]):
            if self.lam is not None:
                lams.append(self.lam)
                continue
            block = g_train[:, layer]
            d_l = max(block.shape[1], 1)
            mean_sq = float((block * block).sum(axis=1).mean())
            # An all-zero block (untouched adapter) would make lam 0 and
            # the inverse blow up; fall back to a unit regularizer.
            lams.append(self.lam_scale * mean_sq / d_l if mean_sq > 0 else 1.0)
        return lams

    def _train_block(self, train: TokenSet) -> np.ndarray:
        """``A^T``, the resident train set's adjusted rows, ``(dim, n_train)``.

        The one resident entry holds the train hashes in row order and
        ``A = H^{-1} g_train`` transposed, C-contiguous and read-only,
        so a query's product reads it row-major.  ``A`` depends on the
        train rows alone, so every query against the same train set
        reuses it and another train set replaces it.  ``H^{-1}`` sums
        over rows in row order, so the entry is keyed on row order: a
        permuted train set rebuilds it.
        """
        if self._resident is None or self._resident[0] != train.hashes:
            adjusted_t = self._adjust(self._rows(train)).T
            adjusted_t.setflags(write=False)
            self._resident = (train.hashes, adjusted_t)
        return self._resident[1]

    def _rows(self, examples: Sequence[TokenExample]) -> np.ndarray:
        """Raw (or unit-normalized) gradient rows at the final checkpoint."""
        return self.engine.stacked_rows(examples, span_name="influence.datainf.rows")

    def _adjust(self, g_train: np.ndarray) -> np.ndarray:
        """``H^{-1} g_j`` for every training row ``g_j``, per layer.

        ``H_l^{-1} g_j = (g_j - (1/n) sum_i g_i (g_i . g_j) / w_i) / lam``
        with ``w_i = lam + |g_i|^2``: the sum is the rows of
        ``g_l g_l^T diag(1/w) g_l``.  A layer at least as wide as the
        training set multiplies it through the ``(n, n)`` matrix
        ``g_l g_l^T``, a narrower one through the ``(d_l, d_l)`` matrix
        ``g_l^T diag(1/w) g_l``, so a layer costs about
        ``2 n d_l min(n, d_l)`` multiply-adds and ``min(n, d_l)^2``
        floats of scratch.  Fortran-ordered, so its transpose is
        C-contiguous.
        """
        n = g_train.shape[0]
        adjusted = np.empty_like(g_train, order="F")
        layers = self._layer_slices(g_train.shape[1])
        for (_, layer), lam in zip(layers, self.layer_lambdas(g_train)):
            g_l = g_train[:, layer]  # (n, d_l)
            w = lam + (g_l * g_l).sum(axis=1)
            if n <= g_l.shape[1]:
                weighted = ((g_l @ g_l.T) / w) @ g_l
            else:
                weighted = g_l @ ((g_l.T / w) @ g_l)
            weighted /= n
            np.subtract(g_l, weighted, out=weighted)
            np.divide(weighted, lam, out=adjusted[:, layer])
        return adjusted

    # -- DataInfluence interface ---------------------------------------

    def influence(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
    ) -> np.ndarray:
        """Pairwise Hessian-adjusted influence, shape ``(n_train, n_test)``."""
        if not train_examples or not test_examples:
            raise InfluenceError("influence() needs non-empty train and test sets")
        with self.obs.span(
            "influence.datainf.matrix",
            n_train=len(train_examples),
            n_test=len(test_examples),
            step=self.checkpoint.step,
        ):
            adjusted_t = self._train_block(TokenSet.of(train_examples))
            return (self._rows(test_examples) @ adjusted_t).T

    def self_influence(self, train_examples: Sequence[TokenExample]) -> np.ndarray:
        """``g_j . H^{-1} g_j`` per training example, shape ``(n_train,)``."""
        if not train_examples:
            raise InfluenceError("self_influence() needs a non-empty train set")
        with self.obs.span(
            "influence.datainf.self",
            n_train=len(train_examples),
            step=self.checkpoint.step,
        ):
            train = TokenSet.of(train_examples)
            adjusted_t = self._train_block(train)
            return (self._rows(train) * adjusted_t.T).sum(axis=1)

    def token_influence(
        self,
        train_examples: Sequence[TokenExample],
        test_example: TokenExample,
    ) -> TokenInfluence:
        """Per-token decomposition of the test example's influence column.

        ``H^{-1}`` is linear in the test gradient and the sequence loss
        is the mean over supervised positions, so with ``normalize=False``
        the token scores sum to ``influence(train, [test_example])[:, 0]``
        exactly — the same identity TracIn enjoys, surviving the
        Hessian adjustment because the adjustment is linear.
        """
        variants, positions = per_token_examples(test_example)
        with self.obs.span(
            "influence.tokens",
            n_train=len(train_examples),
            n_positions=len(positions),
            step=self.checkpoint.step,
        ):
            adjusted_t = self._train_block(TokenSet.of(train_examples))
            # The example rides along: its raw row comes out of the
            # variants' batched pass (same input ids), so a following
            # influence() on it finds the row (in an explain request's
            # rows, else in the store).  It is not scored here:
            # a product row's low bits can depend on which rows share
            # its matmul, and the variants' must not depend on the
            # example.
            rows = self._rows(TokenSet.of(variants) + [test_example])
            matrix = (rows[: len(variants)] @ adjusted_t).T
        return TokenInfluence(positions=positions, scores=matrix / len(positions))
