"""DataInf: closed-form Hessian-adjusted influence at the final checkpoint.

Kwon et al. (2023): for LoRA-tuned models the influence-function
Hessian can be approximated *per layer* and inverted in closed form.
Swapping the order of the average and the inverse,

    H_l^{-1}  ~=  (1/n) sum_i (lam_l I + g_il g_il^T)^{-1}

and each rank-one term inverts exactly via Sherman-Morrison:

    (lam I + g g^T)^{-1} v = (1/lam) (v - (g.v) / (lam + |g|^2) g)

so the adjusted test gradient never materializes a ``d x d`` matrix —
only dot products against the ``n`` training gradients.  The influence
of training sample ``z_j`` on test sample ``z'`` is then

    DataInf(z_j, z') = sum_l  g_jl . H_l^{-1} v_l

with ``v`` the test gradient.  Signs follow the repo's TracIn
convention: positive scores are proponents.  Unlike TracInCP's
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
step.  Hessian-*adjusted* test rows are themselves cached under a
:func:`~repro.influence.store.row_cache_key` that folds in the
regularizer and a train-set fingerprint — they can never collide with
raw rows or with adjustments against a different training set.  The
curvature terms the adjustment needs (per-layer ``lam_l`` and
``lam_l + |g_il|^2``) are kept for the last training set, keyed on its
hashes in row order, so a new test row costs two small matmuls per layer.
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
from repro.influence.store import example_content_hash, row_cache_key, train_set_hash
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
        at the final step without a single new backward pass.  The
        Hessian-adjusted test rows are cached in the same store (keyed
        by estimator, regularizer and train-set fingerprint), so
        repeated serving queries against a fixed train set skip even
        the adjustment.
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
        # ((config key, ordered train hashes), per-layer terms) of the
        # last train set seen.
        self._curvature_entry: tuple[tuple | None, list] = (None, [])

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

    def _curvature(
        self, train_hashes: Sequence[str], g_train: np.ndarray
    ) -> list[tuple[slice, float, np.ndarray]]:
        """Per-layer ``(slice, lam_l, lam_l + |g_i|^2)`` for one train set.

        These terms depend on the train rows alone, so the one cached
        entry serves every query against the same train set; another
        train set replaces it.  ``lam_l + |g_i|^2`` is indexed by row, so
        unlike the adjusted rows (a sum over ``i``) the entry is keyed on
        the hashes in row order: a permuted train set recomputes it.
        """
        key = (self._config_key(train_hashes), tuple(train_hashes))
        cached_key, terms = self._curvature_entry
        if cached_key != key:
            terms = []
            lams = self.layer_lambdas(g_train)
            for (_, layer), lam in zip(self._layer_slices(g_train.shape[1]), lams):
                g_l = g_train[:, layer]
                terms.append((layer, lam, lam + (g_l * g_l).sum(axis=1)))
            self._curvature_entry = (key, terms)
        return terms

    def _adjust(
        self, train_hashes: Sequence[str], g_train: np.ndarray, g_test: np.ndarray
    ) -> np.ndarray:
        """Apply ``H^{-1}`` to every test gradient row, per layer."""
        n = g_train.shape[0]
        adjusted = np.empty_like(g_test)
        for layer, lam, denominator in self._curvature(train_hashes, g_train):
            g_l = g_train[:, layer]  # (n, d_l)
            v_l = g_test[:, layer]  # (m, d_l)
            # coef[i, t] = (g_i . v_t) / (lam + |g_i|^2)
            coef = (g_l @ v_l.T) / denominator[:, None]
            adjusted[:, layer] = (v_l - (coef.T @ g_l) / n) / lam
        return adjusted

    def _config_key(self, train_hashes: Sequence[str]) -> str:
        base = f"l{self.lam:g}" if self.lam is not None else f"ls{self.lam_scale:g}"
        if self.normalize:
            base += "-n"
        return f"{base}-t{train_set_hash(train_hashes)}"

    def _adjusted_rows(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
        unadjusted: Sequence[TokenExample] = (),
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(g_train, adjusted_test)`` with the adjusted tier cached.

        ``unadjusted`` examples only join the replay: their raw rows are
        computed and stored in the same batched passes, nothing more.
        """
        examples = list(train_examples) + list(test_examples) + list(unadjusted)
        rows = self.engine.stacked_rows(examples, span_name="influence.datainf.rows")
        n_train = len(train_examples)
        g_train = rows[:n_train]
        g_test = rows[n_train : n_train + len(test_examples)]
        train_hashes = [example_content_hash(e) for e in train_examples]
        adjusted_key = row_cache_key(
            self.engine._pkey, self.estimator_name, self._config_key(train_hashes)
        )
        step = self.checkpoint.step
        test_hashes = [example_content_hash(e) for e in test_examples]
        adjusted = np.empty_like(g_test)
        missing: list[int] = []
        for index, example_hash in enumerate(test_hashes):
            row = self.store.get(step, example_hash, adjusted_key)
            if row is None:
                missing.append(index)
            else:
                adjusted[index] = row
        if missing:
            fresh = self._adjust(train_hashes, g_train, g_test[missing])
            for row, index in zip(fresh, missing):
                adjusted[index] = row
                self.store.put(step, test_hashes[index], adjusted_key, row)
            self.store.flush()
        return g_train, adjusted

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
            g_train, adjusted = self._adjusted_rows(train_examples, test_examples)
            return g_train @ adjusted.T

    def self_influence(self, train_examples: Sequence[TokenExample]) -> np.ndarray:
        """``g_j . H^{-1} g_j`` per training example, shape ``(n_train,)``."""
        if not train_examples:
            raise InfluenceError("self_influence() needs a non-empty train set")
        with self.obs.span(
            "influence.datainf.self",
            n_train=len(train_examples),
            step=self.checkpoint.step,
        ):
            g_train = self.engine.stacked_rows(
                train_examples, span_name="influence.datainf.rows"
            )
            train_hashes = [example_content_hash(e) for e in train_examples]
            adjusted = self._adjust(train_hashes, g_train, g_train)
            return (g_train * adjusted).sum(axis=1)

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
            # The example rides along: its raw row comes out of the
            # variants' batched pass (same input ids), so a following
            # influence() on it hits the store.  It is not adjusted here:
            # an adjusted row's low bits depend on which rows share its
            # _adjust call, and the variants' must not depend on whether
            # the example's adjusted row is already cached.
            g_train, adjusted = self._adjusted_rows(
                train_examples, variants, unadjusted=[test_example]
            )
            matrix = g_train @ adjusted.T
        return TokenInfluence(positions=positions, scores=matrix / len(positions))
