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

Each ``(checkpoint, example)`` row is looked up once, and each
checkpoint's misses are one job whose rows go straight to the
recombination and into the store.  With ``workers > 1``, two or more
jobs fan out across a fork ``multiprocessing`` pool: each worker
inherits the replay copy and the jobs, restores its checkpoint as the
parent does, and sends the rows back in job order (an
``influence.worker`` span each); a job whose worker fails is recomputed
in-process, once.  Workers rely on
:class:`~repro.influence.gradients.GradientProjector` being
deterministic for a given seed across processes, which is pinned by
test.

Inside an explain request (:meth:`ParallelInfluenceEngine._request`)
the query's rows belong to the request: the calls that answer it share
them, and they are dropped when it ends instead of entering the store,
so a serving store holds training rows only.

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

import contextlib
import copy
import multiprocessing
import time
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from repro.errors import InfluenceError
from repro.influence.gradients import (
    GradientProjector,
    TokenExample,
    TracePlan,
    gradient_matrix,
    pass_plan,
)
from repro.influence.store import GradientStore, TokenSet
from repro.obs import Observability, get_observability
from repro.resilience.faults import fault_point
from repro.training.checkpoint import CheckpointManager, CheckpointRecord

# Train rows per matmul block during recombination.
CHUNK_SIZE = 256

# Worker-process state, installed by the pool initializer.  With the
# fork start method the initargs are inherited, not pickled: the jobs'
# records carry a read-only ``extra`` mapping that pickle refuses, so a
# task is the index of its job.
_WORKER: dict = {}


def _worker_init(plan, projector, jobs) -> None:
    _WORKER["plan"] = plan
    _WORKER["projector"] = projector
    _WORKER["jobs"] = jobs


def _worker_replay(index: int):
    """Restore one job's checkpoint in this worker and compute its rows."""
    record, examples = _WORKER["jobs"][index]
    # Fault injectors installed in the parent are inherited by fork;
    # chaos tests arm this point to crash a worker's job.
    fault_point("influence.worker", step=record.step)
    started = time.perf_counter()
    plan = _WORKER["plan"]
    CheckpointManager.restore(plan.model, record)
    rows = gradient_matrix(plan, examples, _WORKER["projector"])
    return rows, time.perf_counter() - started


def projector_key(projector: GradientProjector | None) -> str:
    """Cache-key component identifying the projection (or its absence)."""
    if projector is None:
        return "exact"
    return projector.key()


class ParallelInfluenceEngine:
    """Computes influence quantities through a gradient store.

    Parameters
    ----------
    model / checkpoints / projector:
        As in :class:`~repro.influence.tracin.TracInCP`.  The model is
        copied once here; every replay runs on that copy, so the
        caller's model is read at construction and never written.
    store:
        Gradient row cache; defaults to a fresh in-memory
        :class:`GradientStore`.  Pass one store to several engines (or
        tracers) to share rows across gamma sweeps and repeated calls.
    workers:
        ``0`` or ``1`` computes in-process; ``> 1`` fans the missing
        rows of two or more checkpoints out across a fork-based process
        pool, one job per checkpoint.  A single-checkpoint engine
        (DataInf) never forks.
    """

    def __init__(
        self,
        model,
        checkpoints: Sequence[CheckpointRecord],
        projector: GradientProjector | None = None,
        store: GradientStore | None = None,
        workers: int = 0,
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
        # The replay model's trainable parameters and the attributes
        # holding them, resolved once: a restore loads parameter data in
        # place, so the plan holds for every checkpoint.
        self._plan = TracePlan(self._replay_model)
        self.checkpoints = sorted(checkpoints, key=lambda r: r.step)
        self.projector = projector
        self.obs = obs or get_observability()
        self.store = store if store is not None else GradientStore(obs=self.obs)
        self.workers = workers
        self._pkey = projector_key(projector)
        # The request in progress: its training hashes and its own rows
        # by (step, example hash), see _request.
        self._scope: tuple[Collection[str], dict] | None = None
        metrics = self.obs.metrics
        self._m_replays = metrics.counter("influence.checkpoints_replayed")
        self._m_loads = metrics.counter("influence.checkpoint_loads")
        self._m_gradient_passes = metrics.counter("influence.gradient_passes")
        self._m_gradient_batches = metrics.counter("influence.gradient_batches")
        self._m_requeued = metrics.counter("influence.worker_requeued")
        self._h_worker = metrics.histogram("influence.worker_s")

    # -- row production ------------------------------------------------

    @contextlib.contextmanager
    def _request(self, train_hashes: Collection[str]):
        """Keep the rows of one request's query examples to the request.

        Inside the scope, rows of examples whose hash is in
        ``train_hashes`` go through the store as always.  Every other
        row is the query's: it is looked up in the request's own map
        before the store, a computed one goes into that map and never
        into the store, and the map is dropped when the scope ends.
        Scopes do not nest: the engine serves one request at a time, as
        its replay model does.
        """
        self._scope = (train_hashes, {})
        try:
            yield
        finally:
            self._scope = None

    def _request_rows(self, example_hash: str) -> dict | None:
        """The request's row map if it owns ``example_hash``'s rows, else ``None``."""
        if self._scope is None or example_hash in self._scope[0]:
            return None
        return self._scope[1]

    def _get(self, step: int, example_hash: str) -> np.ndarray | None:
        request = self._request_rows(example_hash)
        if request is not None and (step, example_hash) in request:
            return request[step, example_hash]
        return self.store.get(step, example_hash, self._pkey)

    def _keep(self, step: int, example_hash: str, row: np.ndarray) -> None:
        request = self._request_rows(example_hash)
        if request is None:
            self.store.put(step, example_hash, self._pkey, row)
        else:
            request[step, example_hash] = row

    def _count_replay(self, examples: Sequence[TokenExample]) -> None:
        """Count one checkpoint replay that computed rows for ``examples``."""
        self._m_replays.inc()
        self._m_gradient_passes.inc(len(examples))
        self._m_gradient_batches.inc(len(pass_plan(self._replay_model, examples)))

    def _lookup(
        self, step: int, unique: dict[str, TokenExample]
    ) -> tuple[dict[str, np.ndarray], dict[str, TokenExample]]:
        """Split ``unique`` at ``step`` into found rows and missing examples."""
        rows: dict[str, np.ndarray] = {}
        missing: dict[str, TokenExample] = {}
        for example_hash, example in unique.items():
            row = self._get(step, example_hash)
            if row is None:
                missing[example_hash] = example
            else:
                rows[example_hash] = row
        return rows, missing

    def _compute(
        self, record: CheckpointRecord, examples: list[TokenExample]
    ) -> np.ndarray:
        """Rows for ``examples`` at ``record``, on the resident replay model."""
        if self._loaded != record.path:
            self._loaded = None
            CheckpointManager.restore(self._replay_model, record)
            self._loaded = record.path
            self._m_loads.inc()
        rows = gradient_matrix(self._plan, examples, self.projector)
        self._count_replay(examples)
        return rows

    def _run(self, jobs: list, stack: contextlib.ExitStack) -> Iterator[np.ndarray]:
        """Each ``(record, examples)`` job's rows, lazily, in job order.

        Two or more jobs with ``workers > 1`` run in a fork pool that
        ``stack`` closes; otherwise (one job would only add a fork) they
        run in-process.
        """
        if (
            self.workers <= 1
            or len(jobs) < 2
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            return (self._compute(record, examples) for record, examples in jobs)
        stack.enter_context(
            self.obs.span("influence.prefetch", n_jobs=len(jobs), workers=self.workers)
        )
        pool = stack.enter_context(
            multiprocessing.get_context("fork").Pool(
                processes=min(self.workers, len(jobs)),
                initializer=_worker_init,
                initargs=(self._plan, self.projector, jobs),
            )
        )
        return self._pooled(jobs, pool.imap(_worker_replay, range(len(jobs))))

    def _pooled(self, jobs: list, replies: Iterator) -> Iterator[np.ndarray]:
        for record, examples in jobs:
            try:
                rows, worker_s = next(replies)
            except Exception as error:
                # A crashed worker loses its job, not the run: the job
                # is recomputed in-process, once.
                self._m_requeued.inc()
                self.obs.event(
                    "influence.worker_requeued",
                    step=record.step,
                    error=type(error).__name__,
                )
                rows = self._compute(record, examples)
            else:
                with self.obs.span(
                    "influence.worker",
                    step=record.step,
                    n_rows=len(examples),
                    worker_s=worker_s,
                ):
                    self._h_worker.observe(worker_s)
                    self._count_replay(examples)
            yield rows

    def _replay(
        self,
        examples: Sequence[TokenExample],
        records: Sequence[CheckpointRecord],
        visit: Callable[[int, np.ndarray], object],
        span_name: str,
        **attrs,
    ) -> list:
        """Replay ``records`` for ``examples``; ``visit`` each checkpoint's rows.

        Examples are a :class:`~repro.influence.store.TokenSet` or are
        made one (which hashes them), and are deduped by content hash,
        so one appearing twice gets one gradient row.  ``visit(index, rows)`` gets the
        checkpoint's ``(len(examples), dim)`` row matrix in example
        order inside an
        ``influence.checkpoint`` span; its return values come back as a
        list.  Each row is looked up once (see :meth:`_get`); each
        checkpoint's misses are one job, computed on the resident replay
        model or a pool worker, never on the caller's model, and a
        computed row goes to ``visit`` and :meth:`_keep`.  The store is
        flushed after the whole replay.
        """
        examples = TokenSet.of(examples)
        # Equal hashes mean equal content, so keeping any one is exact.
        unique = dict(zip(examples.hashes, examples))
        try:
            with self.obs.span(span_name, **attrs), contextlib.ExitStack() as stack:
                lookups = [self._lookup(record.step, unique) for record in records]
                computed = self._run(
                    [(r, list(m.values())) for r, (_, m) in zip(records, lookups) if m],
                    stack,
                )
                out = []
                for index, record in enumerate(records):
                    # Popped, so a checkpoint's rows are dropped once visited.
                    rows, missing = lookups.pop(0)
                    with self.obs.span("influence.checkpoint", step=record.step):
                        if missing:
                            for example_hash, row in zip(missing, next(computed)):
                                self._keep(record.step, example_hash, row)
                                rows[example_hash] = row
                        out.append(visit(index, self._stack(rows, examples.hashes)))
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
        like DataInf look at.  Rows come from the store when
        present; misses are computed (fanned out across workers when
        configured) and cached, so any estimator sharing this store
        reuses them.  Inside a request, a query's rows are the
        request's instead (see :meth:`_request`).
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
        return np.stack([rows[example_hash] for example_hash in hashes])

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
            TokenSet.of(train_examples) + test_examples,
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
            TokenSet.of(train_examples) + test_examples,
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
