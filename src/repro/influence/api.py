"""The unified attribution interface: one API, swappable estimators.

Captum frames data attribution as an abstract ``DataInfluence`` class
(``influence()``, self-influence, k-most-influential) with concrete
estimators behind it; Bergson makes the same argument at library scale.
This module is that interface for the repo's estimators:

* :class:`~repro.influence.tracin.TracInCP` — checkpoint-replay
  gradient dot products (Pruthi et al., 2020);
* :class:`~repro.influence.tracseq.TracSeq` — TracInCP with the paper's
  temporal decay (Eq. 1);
* :class:`~repro.influence.datainf.DataInf` — closed-form
  Hessian-adjusted scores over the *final* checkpoint only (Kwon et
  al., 2023), dramatically cheaper for LoRA-tuned models.

All three share the same :class:`~repro.influence.store.GradientStore`
rows and :class:`~repro.influence.engine.ParallelInfluenceEngine`
machinery, so swapping estimators never recomputes gradients the store
already holds.  Every estimator also supports **token-wise
attribution** (:meth:`DataInfluence.token_influence`): the per-position
decomposition of a test example's influence scores, which is what the
served "why was this applicant declined" query
(:class:`~repro.serving.explain.ExplainService`) returns to a
regulator.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.influence.engine import ParallelInfluenceEngine
from repro.influence.gradients import GradientProjector, TokenExample
from repro.influence.selection import bottom_k_indices, top_k_indices
from repro.influence.store import GradientStore
from repro.obs import Observability, get_observability
from repro.training.checkpoint import CheckpointRecord

class KMostInfluential(NamedTuple):
    """Result of :meth:`DataInfluence.k_most_influential`.

    ``indices[i, j]`` is the train-set index of the ``j``-th most
    influential example for test example ``i`` (proponents in
    descending influence order, opponents ascending);
    ``scores[i, j]`` is its influence on that test example.
    """

    indices: np.ndarray  # (n_test, k) int
    scores: np.ndarray  # (n_test, k) float


@dataclass(frozen=True)
class TokenInfluence:
    """Per-token attribution of one test example's influence scores.

    ``scores[i, t]`` is the contribution of the test example's token at
    sequence position ``positions[t]`` to training example ``i``'s
    influence.  Positions cover the *supervised* label positions (the
    answer span; prompt positions masked to ``-100`` carry no loss and
    therefore no attribution).  ``scores.sum(axis=1)`` equals the
    sequence-level ``influence()`` column for this test example (up to
    backward-pass roundoff) — attribution is a decomposition, not a
    heuristic.
    """

    positions: tuple[int, ...]
    scores: np.ndarray  # (n_train, n_positions)

    def totals(self) -> np.ndarray:
        """Sequence-level influence per training example."""
        return self.scores.sum(axis=1)

    def position_totals(self) -> np.ndarray:
        """Aggregate influence per token position, summed over train."""
        return self.scores.sum(axis=0)


class DataInfluence(abc.ABC):
    """Abstract interface every influence estimator implements.

    Concrete estimators differ only in *how* a pairwise influence score
    is computed; everything above — Top-K retrieval, token-wise
    attribution, the serving explain path, the pruning pipeline — is
    written against this interface and works with any of them.

    Parameters
    ----------
    model:
        The model whose architecture matches the checkpoints.  The
        engine replays on a private copy made at construction, so this
        model's parameters are never written by scoring.
    checkpoints:
        Checkpoint records (from :class:`CheckpointManager`) to replay;
        kept sorted by step.
    projector:
        Optional :class:`GradientProjector`; with many samples the
        sketched computation is much cheaper and near-identical in
        ranking.
    store / cache_dir:
        Gradient row cache.  By default each estimator gets a private
        in-memory :class:`GradientStore`; pass an explicit ``store`` to
        share rows across estimators (e.g. a gamma sweep), or
        ``cache_dir`` to add a disk tier next to the checkpoints.
    workers:
        ``> 1`` fans the missing rows of two or more checkpoints out
        across a process pool, one job per checkpoint (see
        :class:`ParallelInfluenceEngine`); a single-checkpoint
        estimator (DataInf) computes in-process.
    obs:
        Observability hub; every checkpoint replay is timed in an
        ``influence.checkpoint`` span (child of the surrounding
        ``influence.matrix`` / ``influence.self`` span) and counted,
        so the dominant cost of attribution — gradient passes — shows
        up in traces and metrics, alongside ``influence.store.*`` cache
        hit/miss/byte counts.
    """

    #: short identifier used in cache keys, CLI flags and audit entries
    estimator_name: str = "abstract"

    def __init__(
        self,
        model,
        checkpoints: Sequence[CheckpointRecord],
        projector: GradientProjector | None = None,
        obs: Observability | None = None,
        store: GradientStore | None = None,
        cache_dir=None,
        workers: int = 0,
    ):
        if not checkpoints:
            raise InfluenceError(f"{type(self).__name__} requires at least one checkpoint")
        self.model = model
        self.checkpoints = sorted(checkpoints, key=lambda r: r.step)
        self.projector = projector
        self.obs = obs or get_observability()
        if store is None and cache_dir is not None:
            store = GradientStore(cache_dir=cache_dir, obs=self.obs)
        self.engine = ParallelInfluenceEngine(
            model,
            self.checkpoints,
            projector=projector,
            store=store,
            workers=workers,
            obs=self.obs,
        )
        self.store = self.engine.store

    @abc.abstractmethod
    def influence(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
    ) -> np.ndarray:
        """Pairwise influence scores, shape ``(n_train, n_test)``.

        Positive scores mark proponents (training examples that push
        the model toward its behavior on the test example), negative
        scores opponents.
        """

    @abc.abstractmethod
    def self_influence(self, train_examples: Sequence[TokenExample]) -> np.ndarray:
        """Influence of each training example on itself, shape ``(n_train,)``.

        High self-influence flags memorized / outlier samples.
        """

    @abc.abstractmethod
    def token_influence(
        self,
        train_examples: Sequence[TokenExample],
        test_example: TokenExample,
    ) -> TokenInfluence:
        """Per-token decomposition of ``influence(train, [test_example])``."""

    def k_most_influential(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
        k: int = 5,
        proponents: bool = True,
    ) -> KMostInfluential:
        """Top-``k`` influential training examples per test example.

        ``proponents=True`` returns the highest-influence examples in
        descending order; ``proponents=False`` the lowest (opponents)
        in ascending order — the examples that most *oppose* the
        model's behavior on the test example.
        """
        if k <= 0 or k > len(train_examples):
            raise InfluenceError(
                f"k={k} out of range for {len(train_examples)} train examples"
            )
        matrix = self.influence(train_examples, test_examples)
        pick = top_k_indices if proponents else bottom_k_indices
        indices = np.stack([pick(matrix[:, j], k) for j in range(matrix.shape[1])])
        scores = np.take_along_axis(matrix.T, indices, axis=1)
        return KMostInfluential(indices=indices, scores=scores)
