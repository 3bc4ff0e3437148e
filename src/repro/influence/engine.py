"""Influence computation engine: cached gradient rows, parallel replay.

The engine owns the expensive half of TracInCP / TracSeq: producing a
projected gradient row per ``(checkpoint, example)`` pair.  Rows are
cached in a :class:`~repro.influence.store.GradientStore`, so only the
pairs the store has never seen take a backward pass; everything else —
repeated ``influence()`` calls, ``checkpoint_products``, gamma sweeps — is
recombination of stored rows via chunked matmuls that keep peak memory
at ``CHUNK_SIZE × n_test`` floats regardless of corpus size.

Gradient rows are computed on a resident replay model: one private
copy of the caller's model, made when the engine is built, that keeps
whichever checkpoint it last loaded.  A checkpoint is read from disk
only when a miss needs a different one than the copy holds, so a
single-checkpoint estimator (DataInf) loads once per engine, and the
caller's model — possibly one that is serving — is never written.

With ``workers > 1`` the missing checkpoint replays fan out across a
``multiprocessing`` pool (fork start method): each worker inherits the
replay copy, restores its assigned checkpoint from the ``.npz`` on
disk, and streams gradient rows back to the parent, which records an
``influence.worker`` span per completed job.  Workers rely on
:class:`~repro.influence.gradients.GradientProjector` being
deterministic for a given seed across processes, which is pinned by
test.

Numerics are identical to the serial in-process path: rows are computed
by the same :func:`~repro.influence.gradients.gradient_matrix` either
way, and the recombination applies weights per checkpoint exactly as
the unbatched implementation did.

Within one checkpoint, the missing examples of one token length share
batched forward/backward passes of at most
:data:`~repro.influence.gradients.PASS_TOKENS` tokens (see
:func:`~repro.influence.gradients.pass_plan`); each row is still
bit-identical to a one-example pass.  ``influence.gradient_passes``
counts rows computed, ``influence.gradient_batches`` the passes that
computed them.
"""

from __future__ import annotations

import copy
import multiprocessing
import time
from typing import Callable, Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.influence.gradients import (
    GradientProjector,
    TokenExample,
    gradient_matrix,
    pass_plan,
)
from repro.influence.store import GradientStore, example_content_hash
from repro.obs import Observability, get_observability
from repro.resilience import RetryPolicy
from repro.resilience.faults import fault_point
from repro.training.checkpoint import CheckpointManager, CheckpointRecord

# Train rows per matmul block during recombination.
CHUNK_SIZE = 256

# Worker-process state, installed by the pool initializer.  With the
# fork start method the initargs are inherited, not pickled.
_WORKER: dict = {}


def _worker_init(model, projector) -> None:
    _WORKER["model"] = model
    _WORKER["projector"] = projector


def _worker_replay(payload):
    """Restore one checkpoint in this worker and compute gradient rows."""
    step, path, examples = payload
    # Fault injectors installed in the parent are inherited by fork;
    # chaos tests arm this point to crash a worker's chunk.
    fault_point("influence.worker", step=step)
    started = time.perf_counter()
    model = _WORKER["model"]
    with np.load(path) as data:
        model.load_state_dict({name: data[name] for name in data.files})
    rows = gradient_matrix(model, examples, _WORKER["projector"])
    return step, rows, time.perf_counter() - started


def projector_key(projector: GradientProjector | None) -> str:
    """Cache-key component identifying the projection (or its absence)."""
    if projector is None:
        return "exact"
    return projector.key()


class ParallelInfluenceEngine:
    """Computes influence quantities through a gradient store.

    Parameters
    ----------
    model / checkpoints / projector / normalize:
        As in :class:`~repro.influence.tracin.TracInCP`.  The model is
        copied once here; every replay runs on that copy, so the
        caller's model is read at construction and never written.
    store:
        Gradient row cache; defaults to a fresh in-memory
        :class:`GradientStore`.  Pass one store to several engines (or
        tracers) to share rows across gamma sweeps and repeated calls.
    workers:
        ``0`` or ``1`` computes in-process; ``> 1`` fans missing
        checkpoint replays out across a fork-based process pool.
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy` for requeued
        worker chunks: when a pool worker raises (crash, injected
        fault), its chunk is recomputed in-process under this policy
        instead of losing the work; without a policy the chunk is
        recomputed once.
    """

    def __init__(
        self,
        model,
        checkpoints: Sequence[CheckpointRecord],
        projector: GradientProjector | None = None,
        normalize: bool = False,
        store: GradientStore | None = None,
        workers: int = 0,
        retry_policy: RetryPolicy | None = None,
        obs: Observability | None = None,
    ):
        if not checkpoints:
            raise InfluenceError("influence engine requires at least one checkpoint")
        if workers < 0:
            raise InfluenceError(f"workers must be non-negative, got {workers}")
        # The resident replay model and the checkpoint path it holds
        # (``None``: none yet, or a load that did not finish).
        self._replay_model = copy.deepcopy(model)
        self._replay_model.zero_grad()
        self._loaded = None
        self.checkpoints = sorted(checkpoints, key=lambda r: r.step)
        self.projector = projector
        self.normalize = normalize
        self.obs = obs or get_observability()
        self.store = store if store is not None else GradientStore(obs=self.obs)
        self.workers = workers
        self.retry_policy = retry_policy
        self._pkey = projector_key(projector)
        metrics = self.obs.metrics
        self._m_replays = metrics.counter("influence.checkpoints_replayed")
        self._m_loads = metrics.counter("influence.checkpoint_loads")
        self._m_gradient_passes = metrics.counter("influence.gradient_passes")
        self._m_gradient_batches = metrics.counter("influence.gradient_batches")
        self._m_requeued = metrics.counter("influence.worker_requeued")
        self._h_worker = metrics.histogram("influence.worker_s")

    # -- row production ------------------------------------------------

    def _hashes(self, examples: Sequence[TokenExample]) -> list[str]:
        return [example_content_hash(example) for example in examples]

    def _unique(self, examples, hashes) -> dict[str, TokenExample]:
        unique: dict[str, TokenExample] = {}
        for example, example_hash in zip(examples, hashes):
            unique.setdefault(example_hash, example)
        return unique

    def _count_replay(self, examples: Sequence[TokenExample]) -> None:
        """Count one checkpoint replay that computed rows for ``examples``."""
        self._m_replays.inc()
        self._m_gradient_passes.inc(len(examples))
        self._m_gradient_batches.inc(len(pass_plan(self._replay_model, examples)))

    def _checkpoint_rows(
        self, record: CheckpointRecord, unique: dict[str, TokenExample]
    ) -> dict[str, np.ndarray]:
        """Rows for every unique example at one checkpoint (compute missing)."""
        fetched: dict[str, np.ndarray] = {}
        missing: dict[str, TokenExample] = {}
        for example_hash, example in unique.items():
            row = self.store.get(record.step, example_hash, self._pkey)
            if row is None:
                missing[example_hash] = example
            else:
                fetched[example_hash] = row
        if missing:
            if self._loaded != record.path:
                self._loaded = None
                CheckpointManager.restore(self._replay_model, record)
                self._loaded = record.path
                self._m_loads.inc()
            examples = list(missing.values())
            rows = gradient_matrix(self._replay_model, examples, self.projector)
            for example_hash, row in zip(missing, rows):
                self.store.put(record.step, example_hash, self._pkey, row)
                fetched[example_hash] = row
            self._count_replay(examples)
        return fetched

    def _prefetch(self, unique: dict[str, TokenExample]) -> None:
        """Fan missing checkpoint replays out across a process pool."""
        if self.workers <= 1:
            return
        if "fork" not in multiprocessing.get_all_start_methods():
            return  # platform without fork: fall back to in-process replay
        jobs = []
        for record in self.checkpoints:
            missing = {
                example_hash: example
                for example_hash, example in unique.items()
                if not self.store.contains(record.step, example_hash, self._pkey)
            }
            if missing:
                jobs.append((record, missing))
        if not jobs:
            return
        ctx = multiprocessing.get_context("fork")
        payloads = [
            (record.step, str(record.path), list(missing.values()))
            for record, missing in jobs
        ]
        failed: list[tuple[CheckpointRecord, dict[str, TokenExample]]] = []
        with self.obs.span(
            "influence.prefetch", n_jobs=len(jobs), workers=self.workers
        ):
            with ctx.Pool(
                processes=min(self.workers, len(jobs)),
                initializer=_worker_init,
                initargs=(self._replay_model, self.projector),
            ) as pool:
                replies = pool.imap(_worker_replay, payloads)
                for record, missing in jobs:
                    try:
                        step, rows, worker_s = next(replies)
                    except Exception as error:
                        # A crashed worker loses its chunk, not the run:
                        # the job is requeued for in-process recompute
                        # below, under the retry policy if one is set.
                        self._m_requeued.inc()
                        self.obs.event(
                            "influence.worker_requeued",
                            step=record.step,
                            error=type(error).__name__,
                        )
                        failed.append((record, missing))
                        continue
                    with self.obs.span(
                        "influence.worker",
                        step=step,
                        n_rows=len(missing),
                        worker_s=worker_s,
                    ):
                        for example_hash, row in zip(missing, rows):
                            self.store.put(record.step, example_hash, self._pkey, row)
                    self._h_worker.observe(worker_s)
                    self._count_replay(list(missing.values()))
        for record, missing in failed:
            # _checkpoint_rows loads the checkpoint into the parent's
            # replay model (if it holds another) and computes + stores
            # the rows.
            if self.retry_policy is not None:
                self.retry_policy.call(self._checkpoint_rows, record, missing)
            else:
                self._checkpoint_rows(record, missing)
        self.store.flush()

    def _replay(
        self,
        examples: Sequence[TokenExample],
        records: Sequence[CheckpointRecord],
        visit: Callable[[int, np.ndarray], object],
        span_name: str,
        **attrs,
    ) -> list:
        """Replay ``records`` for ``examples``; ``visit`` each checkpoint's rows.

        Examples are deduped by content hash, so one appearing twice
        gets one gradient row.  ``visit(index, rows)`` gets the
        checkpoint's ``(len(examples), dim)`` row matrix in example
        order (unit-normalized when the engine normalizes) inside an
        ``influence.checkpoint`` span; its return values come back as a
        list.  Misses are computed on the resident replay model, never
        on the caller's; the store is flushed after the whole replay.
        """
        hashes = self._hashes(examples)
        unique = self._unique(examples, hashes)
        try:
            out = []
            with self.obs.span(span_name, **attrs):
                self._prefetch(unique)
                for index, record in enumerate(records):
                    with self.obs.span("influence.checkpoint", step=record.step):
                        rows = self._checkpoint_rows(record, unique)
                        out.append(visit(index, self._stack(rows, hashes)))
            return out
        finally:
            self.store.flush()

    def stacked_rows(
        self,
        examples: Sequence[TokenExample],
        span_name: str = "influence.rows",
    ) -> np.ndarray:
        """Gradient rows for ``examples`` at the final checkpoint.

        The final model is the only checkpoint single-model estimators
        like DataInf look at.  Rows are unit-normalized when the engine
        normalizes, raw otherwise.  They come from the store when
        present; misses are computed (fanned out across workers when
        configured) and cached, so any estimator sharing this store
        reuses them.
        """
        if not examples:
            raise InfluenceError("stacked_rows() needs a non-empty example list")
        record = self.checkpoints[-1]
        (rows,) = self._replay(
            examples,
            [record],
            lambda _, rows: rows,
            span_name,
            n_examples=len(examples),
            step=record.step,
        )
        return rows

    def _stack(self, rows: dict[str, np.ndarray], hashes: Sequence[str]) -> np.ndarray:
        matrix = np.stack([rows[example_hash] for example_hash in hashes])
        if self.normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            matrix = matrix / np.maximum(norms, 1e-12)
        return matrix

    # -- recombination -------------------------------------------------

    def _accumulate_outer(self, total, g_train, g_test, weight) -> None:
        """``total += weight * g_train @ g_test.T`` in bounded-memory chunks."""
        for start in range(0, g_train.shape[0], CHUNK_SIZE):
            stop = start + CHUNK_SIZE
            total[start:stop] += weight * (g_train[start:stop] @ g_test.T)

    def influence_matrix(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
        weights: Sequence[float],
        span_name: str = "influence.matrix",
    ) -> np.ndarray:
        """Weighted pairwise influence, shape ``(n_train, n_test)``."""
        if not train_examples or not test_examples:
            raise InfluenceError("influence_matrix() needs non-empty train and test sets")
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != len(self.checkpoints):
            raise InfluenceError(
                f"{weights.shape[0]} weights for {len(self.checkpoints)} checkpoints"
            )
        n_train = len(train_examples)
        total = np.zeros((n_train, len(test_examples)))
        self._replay(
            list(train_examples) + list(test_examples),
            self.checkpoints,
            lambda index, rows: self._accumulate_outer(
                total, rows[:n_train], rows[n_train:], weights[index]
            ),
            span_name,
            n_train=n_train,
            n_test=len(test_examples),
            n_checkpoints=len(self.checkpoints),
        )
        return total

    def checkpoint_products(
        self,
        train_examples: Sequence[TokenExample],
        test_examples: Sequence[TokenExample],
    ) -> np.ndarray:
        """Unweighted per-checkpoint products, shape ``(n_ckpt, n_train)``."""
        if not train_examples or not test_examples:
            raise InfluenceError("checkpoint_products() needs non-empty train and test sets")
        n_train = len(train_examples)
        products = self._replay(
            list(train_examples) + list(test_examples),
            self.checkpoints,
            lambda _, rows: rows[:n_train] @ rows[n_train:].sum(axis=0),
            "influence.products",
            n_train=n_train,
            n_test=len(test_examples),
            n_checkpoints=len(self.checkpoints),
        )
        return np.stack(products)

    def self_influence(
        self,
        train_examples: Sequence[TokenExample],
        weights: Sequence[float],
    ) -> np.ndarray:
        """Weighted self-influence diagonal, shape ``(n_train,)``."""
        if not train_examples:
            raise InfluenceError("self_influence() needs a non-empty train set")
        weights = np.asarray(weights, dtype=np.float64)
        terms = self._replay(
            train_examples,
            self.checkpoints,
            lambda index, rows: weights[index] * (rows * rows).sum(axis=1),
            "influence.self",
            n_train=len(train_examples),
            n_checkpoints=len(self.checkpoints),
        )
        return sum(terms, np.zeros(len(train_examples)))
