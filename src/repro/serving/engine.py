"""Micro-batching serving engine for the Behavior Card service.

Production inference stacks (Xinference, vLLM, Triton) get their
throughput from *dynamic batching*: requests land in a bounded FIFO
queue, a single worker loop assembles batches of up to
``max_batch_size`` (waiting at most ``MAX_WAIT_S`` for stragglers) and
scores each batch through one padded forward pass.  This module brings
that architecture to the laptop-scale reproduction:

* :class:`ScoreRequest` / :class:`ScoreResult` — the unified
  request/response API shared by every serving entry point.
* :class:`ServingEngine` — the one serving core.  Admission control is
  explicit: a full queue rejects with :class:`~repro.errors.QueueFullError`
  (backpressure), per-request deadlines expire stale traffic in-queue
  with :class:`~repro.errors.DeadlineExceededError`, and withdrawal,
  ``serve``/``drain`` and the threaded worker live here too.  Each
  engine is this core plus one step policy (its ``pump``).
* :class:`MicroBatchEngine` — the scoring step policy: one padded
  forward per batch; when the model path raises, the batch's requests
  fail with that error.
  :class:`~repro.serving.continuous.ContinuousEngine` is the other
  step policy (streaming decode).
* :class:`PendingResult` — the future ``submit`` returns, finalized
  exactly once.  It guards itself with one of a fixed stripe of shared
  locks, and its ``threading.Event`` is made only by a
  ``result(timeout)`` call that has to wait.
* :class:`EngineStats` — throughput / queue-depth counters.

Every batch ends in one **settle step**: the engine stamps each
:class:`ScoreResult` once (latency, batch size, replica), records the
batch's metrics once, and hands the batch's outcomes to
:attr:`ServingEngine.settle` — ``settle(done, failed)``, with ``done``
a list of ``(pending, result)`` and ``failed`` a list of
``(pending, error)``.  The default settle resolves and rejects each
caller in order; the cluster supervisor replaces it on its replica
engines to write the batch's audit records, feed the replica's breaker
and redispatch crashed traffic before any caller resolves.  Every
finalization the engine makes (scored, failed, expired, withdrawn)
goes through ``settle``.

The engine is instrumented through :class:`repro.obs.Observability`
(metric names in ``docs/observability.md``): admission / expiry /
failure counters, a queue-depth gauge, batch-size and latency
histograms, and ``serving.batch`` / ``serving.forward`` trace spans.
It records per batch, not per request: counters take ``inc(n)``,
latencies go through one ``observe_many``, and the admission counter
and queue-depth gauge are brought up to date once per pump.
Pass ``Observability.disabled()`` to turn it off entirely.

The engine is transport-agnostic: it schedules any
``batch_fn(list[ScoreRequest]) -> list[ScoreResult]`` that returns one
fresh :class:`ScoreResult` per request.  The serving cluster
(:mod:`repro.serving.cluster`) runs one per replica, writes each
resolved decision's audit record and contains faults: a circuit
breaker per replica and redispatch off crashed replicas
(``docs/resilience.md``).  The engine itself only fails a batch's
requests with its scorer's error.

Two drive modes:

* **Synchronous** — ``submit()`` then ``pump()``/``drain()`` (or the
  ``serve()`` convenience).  Deterministic; what the tests use.
  Nothing blocks: finished requests are read with ``result(timeout=0)``.
* **Threaded** — ``start()`` spins a daemon worker that batches
  concurrent ``submit()`` traffic; callers block on
  ``PendingResult.result()``, the one place a pending makes an Event.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServingError,
    ServingTimeout,
)
from repro.obs import Observability, get_observability
from repro.resilience.faults import fault_point

# How long the threaded worker holds an underfull batch open for stragglers.
MAX_WAIT_S = 0.005


@dataclass(frozen=True, slots=True)
class ScoreRequest:
    """One scoring request: who is asking and what to score.

    ``deadline`` is an *absolute* time on the engine's (injectable)
    clock; a queued request whose deadline passes is expired instead of
    scored, so the worker never burns a forward pass on traffic the
    caller has already abandoned.
    """

    user_id: str
    behavior_text: str
    deadline: float | None = None


@dataclass(frozen=True, slots=True)
class ScoreResult:
    """Unified response: decision fields plus serving metadata.

    A scorer builds one per request; the engine fills in the serving
    metadata once, in place, before the result reaches anyone (see
    :meth:`ServingEngine._stamp`).  To every caller it is immutable.
    """

    user_id: str
    score: float  # P(default)
    approved: bool
    threshold: float
    latency_s: float = 0.0  # enqueue -> completion on the engine clock
    batch_size: int = 1  # size of the batch this request rode in
    replica: int | None = None  # which cluster replica scored it (None: single engine)


@dataclass(frozen=True)
class EngineConfig:
    """Batching and admission-control knobs.

    max_batch_size:
        Largest batch the worker assembles per forward pass.
    queue_capacity:
        Bound on the FIFO queue; admissions beyond it raise
        :class:`QueueFullError`.
    """

    max_batch_size: int = 8
    queue_capacity: int = 64

    def __post_init__(self):
        if self.max_batch_size <= 0:
            raise ServingError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.queue_capacity <= 0:
            raise ServingError(f"queue_capacity must be positive, got {self.queue_capacity}")


@dataclass
class EngineStats:
    """Counters the engine maintains; cheap enough to read at any time."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0  # QueueFullError admissions
    expired: int = 0  # deadline passed in-queue
    failed: int = 0  # model path raised
    batches: int = 0
    max_queue_depth: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.completed / self.batches if self.batches else 0.0


# The one writer of a frozen ScoreResult's serving fields (the engine's stamp).
_set_field = object.__setattr__

# The locks pendings guard themselves with, picked by the pending's
# hash.  A pending holds its stripe's lock only for a few attribute
# writes and never takes another pending's lock while holding its own,
# so sharing cannot deadlock; a lock per pending would cost two
# allocations (~90 B) per request that a caller keeping its futures holds.
_PENDING_LOCKS = tuple(threading.Lock() for _ in range(64))


class PendingResult:
    """A slot for one in-flight request (a minimal, thread-safe future).

    Finalization is **exactly-once**: a second ``_finalize`` (the one
    way in, which every settle step uses) raises :class:`ServingError`
    instead of silently overwriting the first outcome.  The serving-tier
    property suite leans on this guard — any scheduler interleaving that
    double-completes a request fails loudly rather than corrupting a
    caller's result.

    One lock guards the slot: a shared stripe lock (see
    ``_PENDING_LOCKS``), never held while another pending's is taken or
    a callback runs.  ``done`` is a plain bool set under it, and the
    callback, stream and token-callback lists are made on first use.
    A ``threading.Event`` exists only once a :meth:`result` call finds
    the request unfinished and has to wait, so a request whose caller
    reads it after completion (the synchronous drive, a callback) never
    builds one.
    """

    __slots__ = (
        "request",
        "done",
        "_lock",
        "_result",
        "_error",
        "_event",
        "_callbacks",
        "_stream",
        "_token_callbacks",
    )

    def __init__(self, request: ScoreRequest):
        self.request = request
        self.done = False
        self._lock = _PENDING_LOCKS[hash(self) % len(_PENDING_LOCKS)]
        self._result: ScoreResult | None = None
        self._error: BaseException | None = None
        self._event: threading.Event | None = None
        self._callbacks: list[Callable[["PendingResult"], None]] | None = None
        self._stream: list[int] | None = None
        self._token_callbacks: list[Callable[["PendingResult", int], None]] | None = None

    @property
    def error(self) -> BaseException | None:
        """The stored failure, if this request completed with one."""
        return self._error

    def add_done_callback(self, fn: Callable[["PendingResult"], None]) -> None:
        """Run ``fn(self)`` when the request finalizes (immediately if done).

        Callbacks fire on the finalizing thread, after the result/error
        is stored and waiters are released.  A request the cluster moves
        off a crashed replica is the same pending on its next replica,
        so a callback fires once, at the final outcome.  A callback that
        raises stops neither the pending's later callbacks nor the rest
        of a settle step's batch; the first error is re-raised after
        them.
        """
        with self._lock:
            if not self.done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        fn(self)

    def _finalize(self, result: ScoreResult | None, error: BaseException | None) -> None:
        with self._lock:
            if self.done:
                raise ServingError(
                    f"request for {self.request.user_id!r} finalized twice"
                )
            self._result = result
            self._error = error
            self.done = True
            if self._event is not None:
                self._event.set()
            callbacks, self._callbacks = self._callbacks, None
        raised: list[Exception] = []
        for fn in callbacks or ():
            try:
                fn(self)
            except Exception as error:
                raised.append(error)
        if raised:
            raise raised[0]

    # -- token streaming (continuous engine) ---------------------------

    @property
    def stream(self) -> tuple[int, ...]:
        """Tokens streamed so far — a prefix of the final decode output.

        Populated only by generation engines (:class:`ContinuousEngine`);
        micro-batch scoring leaves it empty.
        """
        with self._lock:
            return tuple(self._stream or ())

    def add_token_callback(self, fn: Callable[["PendingResult", int], None]) -> None:
        """Run ``fn(self, token_id)`` for every streamed token.

        Fires synchronously on the decoding thread, in emission order.
        Tokens emitted before registration are not replayed — read
        :attr:`stream` for the full prefix.
        """
        with self._lock:
            if self._token_callbacks is None:
                self._token_callbacks = []
            self._token_callbacks.append(fn)

    def _emit_token(self, token_id: int) -> None:
        with self._lock:
            if self.done:
                raise ServingError(
                    f"request for {self.request.user_id!r} streamed a token "
                    "after finalization"
                )
            if self._stream is None:
                self._stream = []
            self._stream.append(token_id)
            callbacks = tuple(self._token_callbacks or ())
        for fn in callbacks:
            fn(self, token_id)

    def result(self, timeout: float | None = None) -> ScoreResult:
        """Block until scored; re-raise the stored error if the request failed.

        Raises :class:`~repro.errors.ServingTimeout` (not a generic
        :class:`ServingError`) when the wait expires: the request is
        **still queued / in flight** and may complete later — retry
        :meth:`result` or abandon the answer, but do not assume scoring
        failed.  ``result(timeout=0)`` on an unfinished request raises
        at once without waiting.
        """
        with self._lock:
            wait = not self.done and (timeout is None or timeout > 0)
            if wait and self._event is None:
                self._event = threading.Event()
            event = self._event
        if wait:
            event.wait(timeout)
        if not self.done:
            raise ServingTimeout(
                f"result for {self.request.user_id!r} not ready within "
                f"{timeout}s; the request is still queued"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


Settle = Callable[
    [list[tuple[PendingResult, ScoreResult]], list[tuple[PendingResult, BaseException]]], None
]


def settle_batch(
    done: list[tuple[PendingResult, ScoreResult]],
    failed: list[tuple[PendingResult, BaseException]],
) -> None:
    """The default settle step: resolve, then reject, each caller in order.

    A done-callback that raises does not stop the step: every caller in
    the batch is finalized first, then the first such error is raised.
    """
    raised: list[Exception] = []
    for pending, result in done:
        try:
            pending._finalize(result, None)
        except Exception as error:
            raised.append(error)
    for pending, failure in failed:
        try:
            pending._finalize(None, failure)
        except Exception as error:
            raised.append(error)
    if raised:
        raise raised[0]


class ServingEngine:
    """The admission core both engines share; subclasses supply ``pump``.

    Owns the bounded FIFO queue (its lock and condition), the
    ``serving.*`` metrics, :class:`EngineStats`, admission with
    backpressure, the strict ``clock() > deadline`` expiry, withdrawal,
    the synchronous ``drain``/``serve`` drive and the threaded worker.
    A subclass is one *step policy*: ``pump`` takes what it can run
    with :meth:`_take`, runs one step and returns the work it did
    (0 means idle).

    ``settle`` (default :func:`settle_batch`) finalizes every outcome
    the engine produces, one call per batch; ``replica`` is the id the
    engine stamps on its results (``None`` outside a cluster).  The
    cluster supervisor sets both on its replica engines.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        clock: Callable[[], float] = time.time,
        obs: Observability | None = None,
    ):
        self.config = config or EngineConfig()
        self._clock = clock
        self._queue: deque[tuple[PendingResult, float]] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_submitted = metrics.counter("serving.submitted")
        self._m_rejected = metrics.counter("serving.rejected")
        self._m_expired = metrics.counter("serving.expired")
        self._m_failed = metrics.counter("serving.failed")
        self._m_completed = metrics.counter("serving.completed")
        self._m_withdrawn = metrics.counter("serving.withdrawn")
        self._m_worker_errors = metrics.counter("serving.worker_errors")
        self._g_queue_depth = metrics.gauge("serving.queue_depth")
        self._h_latency = metrics.histogram("serving.latency_s")
        self._h_forward = metrics.histogram("serving.forward_s")
        self._h_batch_size = metrics.histogram("serving.batch_size")
        self.stats = EngineStats()
        self.settle: Settle = settle_batch
        self.replica: int | None = None
        self._admitted = 0  # admissions not yet added to serving.submitted
        self._worker: threading.Thread | None = None
        self._running = False
        self._idle_wakeups = 0

    @property
    def idle_wakeups(self) -> int:
        """Times the worker woke with nothing to do (should stay 0)."""
        return self._idle_wakeups

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def has_work(self) -> bool:
        """Whether a pump would make progress (queued or in-flight work)."""
        with self._lock:
            return self._has_work()

    def submit(self, request: ScoreRequest) -> PendingResult:
        """Enqueue one request; raises :class:`QueueFullError` when full."""
        if not request.behavior_text.strip():
            raise ServingError("behavior_text must be non-empty")
        pending = PendingResult(request)
        self.enqueue(pending)
        return pending

    def enqueue(self, pending: PendingResult) -> None:
        """Queue an existing, unfinished pending; raises :class:`QueueFullError` when full.

        ``submit`` is this plus a new pending.  The cluster supervisor
        calls it directly to move a request off a crashed replica, so
        the caller keeps the one pending it was handed.
        """
        with self._lock:
            if len(self._queue) >= self.config.queue_capacity:
                self.stats.rejected += 1
                self._m_rejected.inc()
                raise QueueFullError(
                    f"queue at capacity ({self.config.queue_capacity}); retry later"
                )
            self._queue.append((pending, self._clock()))
            self.stats.submitted += 1
            self._admitted += 1
            if len(self._queue) > self.stats.max_queue_depth:
                self.stats.max_queue_depth = len(self._queue)
            if self._running:  # only a running worker waits for work
                self._not_empty.notify()

    def _take(self, limit: int) -> list[tuple[PendingResult, float]]:
        """Pop up to ``limit`` live requests, expiring stale ones.

        The deadline boundary is inclusive: a request whose deadline
        equals the current clock is still admitted, and once admitted it
        always gets its one attempt (a scoring, or a decode).  Brings
        ``serving.submitted`` and ``serving.queue_depth`` up to date:
        they are recorded once per pump, not per admission.
        """
        taken: list[tuple[PendingResult, float]] = []
        expired: list[PendingResult] = []
        with self._lock:
            while self._queue and len(taken) < limit:
                pending, enqueued_at = self._queue.popleft()
                deadline = pending.request.deadline
                if deadline is not None and self._clock() > deadline:
                    expired.append(pending)
                    continue
                taken.append((pending, enqueued_at))
            self.stats.expired += len(expired)
            admitted, self._admitted = self._admitted, 0
            depth = len(self._queue)
        if admitted:
            self._m_submitted.inc(admitted)
        self._g_queue_depth.set(depth)
        # Settle outside the lock: the cluster's settle re-enters an
        # engine's enqueue() to redispatch, which takes the lock.
        if expired:
            self._m_expired.inc(len(expired))
            message = "request for {!r} expired in queue"
            failed = [(p, DeadlineExceededError(message.format(p.request.user_id))) for p in expired]
            try:
                self.settle([], failed)
            except Exception:  # a done-callback raised: requeue what was taken
                with self._lock:
                    self._queue.extendleft(reversed(taken))
                raise
        return taken

    def _fail(self, pendings: list[PendingResult], error: BaseException) -> None:
        """Finalize admitted requests with ``error``, counted as failed."""
        if not pendings:
            return
        self.stats.failed += len(pendings)
        self._m_failed.inc(len(pendings))
        self.settle([], [(pending, error) for pending in pendings])

    def _stamp(self, results: list[ScoreResult], latencies: list[float], batch_size: int) -> None:
        """Fill in each result's serving metadata, once, before anyone sees it."""
        replica = self.replica
        for result, latency in zip(results, latencies):
            _set_field(result, "latency_s", latency)
            _set_field(result, "batch_size", batch_size)
            _set_field(result, "replica", replica)

    def _complete(
        self,
        done: list[tuple[PendingResult, ScoreResult]],
        latencies: list[float],
        failed: list[tuple[PendingResult, BaseException]] | None = None,
    ) -> None:
        """Record one batch's outcomes once, then settle them."""
        failed = failed or []
        if done:
            self.stats.completed += len(done)
            self._m_completed.inc(len(done))
            self._h_latency.observe_many(latencies)
        if failed:
            self.stats.failed += len(failed)
            self._m_failed.inc(len(failed))
        self.settle(done, failed)

    def withdraw_all(self, error: BaseException) -> int:
        """Empty the queue, rejecting every queued request with ``error``.

        The cluster supervisor calls this when it declares a replica
        dead: queued traffic is settled with a
        :class:`~repro.errors.ReplicaCrashedError`, which the
        supervisor's settle re-dispatches to a healthy replica instead
        of leaving it stranded behind a corpse.  Every withdrawn request
        counts once in ``stats.failed``, ``serving.failed`` and
        ``serving.withdrawn``.  Returns the number withdrawn.
        """
        with self._lock:
            withdrawn = [pending for pending, _ in self._queue]
            self._queue.clear()
        self._g_queue_depth.set(0)
        if withdrawn:
            self._m_withdrawn.inc(len(withdrawn))
        self._fail(withdrawn, error)
        return len(withdrawn)

    def withdraw(self, pendings: Sequence[PendingResult], error: BaseException) -> int:
        """Take back those of ``pendings`` still queued, rejecting each with ``error``.

        The all-or-nothing half of both ``serve`` entry points: a
        withdrawn request never runs, so it leaves ``stats.submitted``
        again and counts once in ``serving.withdrawn`` (not in
        ``failed``).  Its settling is how the cluster supervisor lowers
        the replica's outstanding count and releases the tenant quota.
        Requests a worker has already taken into a batch are left to
        finish.  Returns the number withdrawn.
        """
        mine = {id(pending) for pending in pendings}
        with self._lock:
            withdrawn = [pending for pending, _ in self._queue if id(pending) in mine]
            if not withdrawn:
                return 0
            self._queue = deque(item for item in self._queue if id(item[0]) not in mine)
            self.stats.submitted -= len(withdrawn)
            depth = len(self._queue)
        self._g_queue_depth.set(depth)
        self._m_withdrawn.inc(len(withdrawn))
        self.settle([], [(pending, error) for pending in withdrawn])
        return len(withdrawn)

    # ------------------------------------------------------------------
    # Synchronous drive
    # ------------------------------------------------------------------

    def pump(self) -> int:
        """Run one step; returns the work it did (0 when idle)."""
        raise NotImplementedError

    def drain(self) -> None:
        """Pump until no queued or in-flight work remains (no trailing idle pump)."""
        while self.pump() and self.has_work:
            pass

    def serve(self, requests: Sequence[ScoreRequest]) -> list[ScoreResult]:
        """Submit, drain, and collect — the synchronous batched entry point.

        Admission control still applies: with more requests than
        ``queue_capacity`` the overflow raises :class:`QueueFullError`
        (submit in capacity-sized waves, or use the threaded worker,
        for larger bursts).  Admission is all-or-nothing here: on
        overflow, requests this call already enqueued are withdrawn, so
        none of a failed ``serve()`` is ever run behind the caller's
        back.
        """
        pending = []
        try:
            for request in requests:
                pending.append(self.submit(request))
        except QueueFullError as error:
            self.withdraw(pending, error)
            raise
        self.drain()
        return [p.result(timeout=0) for p in pending]

    # ------------------------------------------------------------------
    # Threaded worker
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the background worker loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self._worker = threading.Thread(target=self._worker_loop, daemon=True)
        self._worker.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; by default finish whatever is still pending."""
        if self._running:
            self._running = False
            with self._not_empty:
                self._not_empty.notify_all()
            if self._worker is not None:
                self._worker.join()
                self._worker = None
        if drain:
            self.drain()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _has_work(self) -> bool:
        """Whether a pump would make progress (called under the lock)."""
        return bool(self._queue)

    def _hold(self) -> None:
        """Wait, if the step policy wants to, before the worker's pump."""

    def _worker_loop(self) -> None:
        while True:
            with self._not_empty:
                # Idle wait: no timeout, so a quiet engine does zero
                # periodic wakeups — submit() and stop() notify.  Any
                # return with nothing to do is a spurious wakeup,
                # counted so tests can pin the no-polling guarantee.
                while self._running and not self._has_work():
                    self._not_empty.wait()
                    if self._running and not self._has_work():
                        self._idle_wakeups += 1
                if not self._running:
                    return
            self._hold()
            try:
                self.pump()
            except Exception as error:  # e.g. a done-callback's, raised once its batch settled
                self._m_worker_errors.inc()
                self.obs.event("serving.worker_error", error=repr(error))
                traceback.print_exception(error)


BatchFn = Callable[[list[ScoreRequest]], list["ScoreResult"]]


class MicroBatchEngine(ServingEngine):
    """Bounded-queue dynamic batcher in front of a batch scoring function.

    Parameters
    ----------
    batch_fn:
        Scores a non-empty list of requests and returns one new
        :class:`ScoreResult` per request, in order (the engine stamps
        each in place, so a batch that repeats an object fails with
        :class:`ServingError`).  When it raises, the error propagates
        to each caller's :class:`PendingResult`.
    config:
        Batching / admission knobs (:class:`EngineConfig`).
    clock:
        Injected time source — deadlines and latency accounting are
        deterministic under test.
    obs:
        Observability hub; defaults to the process-wide hub from
        :func:`repro.obs.get_observability`.  Pass
        ``Observability.disabled()`` to serve uninstrumented.
    """

    def __init__(
        self,
        batch_fn: BatchFn,
        config: EngineConfig | None = None,
        clock: Callable[[], float] = time.time,
        obs: Observability | None = None,
    ):
        super().__init__(config, clock, obs)
        self._batch_fn = batch_fn

    def pump(self) -> int:
        """Synchronously assemble and score one batch; returns its size."""
        batch = self._take(self.config.max_batch_size)
        if batch:
            self._score_batch(batch)
        return len(batch)

    def _hold(self) -> None:
        # Hold the batch open for stragglers: condition-timed waits
        # computed from MAX_WAIT_S, woken early by submit() when the
        # batch fills — never a sleep/poll spin.
        deadline = time.monotonic() + MAX_WAIT_S
        with self._not_empty:
            while self._running and len(self._queue) < self.config.max_batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._not_empty.wait(timeout=remaining)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def _score_batch(self, batch: list[tuple[PendingResult, float]]) -> None:
        size = len(batch)
        pendings = [pending for pending, _ in batch]
        with self.obs.span("serving.batch", batch_size=size):
            forward_start = self._clock()
            try:
                with self.obs.span("serving.forward", batch_size=size):
                    fault_point("serving.forward", batch_size=size)
                    results = self._batch_fn([pending.request for pending in pendings])
            except Exception as error:
                self._fail(pendings, error)
                return
            now = self._clock()
            self._h_forward.observe(max(0.0, now - forward_start))
            if len(results) != size:
                self._fail(
                    pendings,
                    ServingError(f"batch_fn returned {len(results)} results for {size} requests"),
                )
                return
            if len(set(map(id, results))) != size:
                # Each result is stamped in place: a shared one would
                # carry another caller's latency, batch and replica.
                self._fail(
                    pendings,
                    ServingError("batch_fn returned one ScoreResult object for several requests"),
                )
                return
            latencies = [max(0.0, now - enqueued_at) for _, enqueued_at in batch]
            self._stamp(results, latencies, size)
            self.stats.batches += 1
            self._h_batch_size.observe(size)
            self.obs.event("serving.batch", size=size, queue_depth=self.queue_depth)
            self._complete(list(zip(pendings, results)), latencies)
