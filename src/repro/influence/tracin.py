"""TracInCP: influence of training samples via checkpoint gradients.

Pruthi et al. (2020): the influence of training sample ``z`` on test
sample ``z'`` is approximated by replaying stored checkpoints,

    TracInCP(z, z') = sum_i  eta_i * grad(w_i, z) . grad(w_i, z')

where ``eta_i`` is the learning rate in effect at checkpoint ``i``.
:class:`~repro.influence.tracseq.TracSeq` extends this with the paper's
time-decay factor.

All gradient work routes through a
:class:`~repro.influence.engine.ParallelInfluenceEngine` backed by a
:class:`~repro.influence.store.GradientStore`: each ``(checkpoint,
example)`` gradient row is computed at most once per store, so repeated
``influence()`` calls, ``checkpoint_products`` and gamma sweeps reuse the
cached rows instead of redoing the backward passes
(``benchmarks/bench_influence.py`` measures the effect).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.influence.api import DataInfluence, TokenInfluence
from repro.influence.gradients import TokenExample, per_token_examples
from repro.training.checkpoint import CheckpointRecord


class TracInCP(DataInfluence):
    """Replay checkpoints and accumulate gradient dot products.

    Constructor parameters are those of
    :class:`~repro.influence.api.DataInfluence`.
    """

    estimator_name = "tracin"

    def _checkpoint_weight(self, index: int, record: CheckpointRecord) -> float:
        """Multiplier for checkpoint ``index``; TracInCP uses ``eta_i`` only."""
        return record.lr

    def _weights(self) -> np.ndarray:
        return np.array(
            [
                self._checkpoint_weight(index, record)
                for index, record in enumerate(self.checkpoints)
            ],
            dtype=np.float64,
        )

    def influence(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
    ) -> np.ndarray:
        """Pairwise influence, shape ``(n_train, n_test)``."""
        return self.engine.influence_matrix(train_examples, test_examples, self._weights())

    def token_influence(
        self,
        train_examples: Sequence[TokenExample],
        test_example: TokenExample,
    ) -> TokenInfluence:
        """Per-token decomposition of the test example's influence column.

        Each supervised position of the test example becomes a
        single-position variant (its gradient is an ordinary cached
        row), and the sequence loss being the mean over supervised
        positions, the variant columns divided by their count sum to
        exactly ``influence(train, [test_example])[:, 0]`` — with raw
        (unnormalized) gradients.  Under ``normalize=True`` the cosine
        rescaling is per-row and nonlinear, so token scores remain a
        ranking signal but no longer a strict decomposition.
        """
        variants, positions = per_token_examples(test_example)
        # The example rides along: its row comes out of the variants'
        # batched pass (same input ids), so a following influence() on
        # it hits the store.
        matrix = self.engine.influence_matrix(
            train_examples,
            [test_example] + variants,
            self._weights(),
            span_name="influence.tokens",
        )[:, 1:]
        return TokenInfluence(positions=positions, scores=matrix / len(positions))

    def checkpoint_products(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
    ) -> np.ndarray:
        """Raw per-checkpoint gradient dot products, shape ``(n_ckpt, n_train)``.

        Entry ``[i, j]`` is ``grad(w_i, z_j) . sum_test grad(w_i, z')`` with
        *no* learning-rate or decay weighting applied.  Callers can then
        recombine with arbitrary checkpoint weights — e.g. to sweep the
        TracSeq gamma without recomputing gradients:

            products = tracer.checkpoint_products(train, test)
            lrs = np.array([r.lr for r in tracer.checkpoints])
            scores = (weights * lrs) @ products

        With the gradient store this really is recomputation-free: the
        rows behind the products are cached, so a following
        ``influence()`` call (or another tracer sharing the store) reuses
        them.
        """
        return self.engine.checkpoint_products(train_examples, test_examples)

    def self_influence(self, train_examples: Sequence[TokenExample]) -> np.ndarray:
        """TracIn self-influence (diagonal); high values flag outliers."""
        return self.engine.self_influence(train_examples, self._weights())
