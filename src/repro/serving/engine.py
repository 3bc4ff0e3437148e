"""Micro-batching serving engine for the Behavior Card service.

Production inference stacks (Xinference, vLLM, Triton) get their
throughput from *dynamic batching*: requests land in a bounded FIFO
queue, a single worker loop assembles batches of up to
``max_batch_size`` (waiting at most ``max_wait_s`` for stragglers) and
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
* :class:`PendingResult` — the future ``submit`` returns: one lock per
  request, finalized exactly once.  Its ``threading.Event`` is made
  only by a ``result(timeout)`` call that has to wait.
* :class:`EngineStats` — throughput / queue-depth counters.

The engine is instrumented through :class:`repro.obs.Observability`
(metric names in ``docs/observability.md``): admission / expiry /
failure counters, a queue-depth gauge, batch-size and latency
histograms, and ``serving.batch`` / ``serving.forward`` trace spans.
Instrumentation is on by default; over 40 alternating pairs of
64-request runs on a 2-core host it added a median +7.9 % to serving
time (the traffic and classifier of ``benchmarks/bench_obs_overhead.py``).
Pass ``Observability.disabled()`` to turn it off entirely.

The engine is transport-agnostic: it schedules any
``batch_fn(list[ScoreRequest]) -> list[ScoreResult]``.  The serving
cluster (:mod:`repro.serving.cluster`) runs one per replica, writes
each resolved decision's audit record and contains faults: a circuit
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
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.errors import (
    DeadlineExceededError,
    QueueFullError,
    ServingError,
    ServingTimeout,
)
from repro.obs import Observability, get_observability
from repro.resilience.faults import fault_point


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ScoreResult:
    """Unified response: decision fields plus serving metadata."""

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
    max_wait_s:
        How long the threaded worker holds an underfull batch open for
        stragglers.  Synchronous ``pump()`` never waits.
    queue_capacity:
        Bound on the FIFO queue; admissions beyond it raise
        :class:`QueueFullError`.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.005
    queue_capacity: int = 64

    def __post_init__(self):
        if self.max_batch_size <= 0:
            raise ServingError(f"max_batch_size must be positive, got {self.max_batch_size}")
        if self.max_wait_s < 0:
            raise ServingError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
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


class PendingResult:
    """A slot for one in-flight request (a minimal, thread-safe future).

    Finalization is **exactly-once**: a second ``_resolve``/``_reject``
    raises :class:`ServingError` instead of silently overwriting the
    first outcome.  The serving-tier property suite leans on this guard
    — any scheduler interleaving that double-completes a request fails
    loudly rather than corrupting a caller's result.

    One lock guards the slot.  ``done`` is a plain bool set under it,
    and the callback, stream and token-callback lists are made on first
    use.  A ``threading.Event`` exists only once a :meth:`result` call
    finds the request unfinished and has to wait, so a request whose
    caller reads it after completion (the cluster supervisor, the
    synchronous drive, a callback) never builds one.
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
        self._lock = threading.Lock()
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
        is stored and waiters are released.  This is the engine hook the
        cluster supervisor uses to propagate per-replica completions —
        and to re-dispatch requests off a crashed replica.  Exceptions
        raised by a callback propagate to the finalizer.
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
        for fn in callbacks or ():
            fn(self)

    def _resolve(self, result: ScoreResult) -> None:
        self._finalize(result, None)

    def _reject(self, error: BaseException) -> None:
        self._finalize(None, error)

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


class ServingEngine:
    """The admission core both engines share; subclasses supply ``pump``.

    Owns the bounded FIFO queue (its lock and condition), the
    ``serving.*`` metrics, :class:`EngineStats`, admission with
    backpressure, the strict ``clock() > deadline`` expiry, withdrawal,
    the synchronous ``drain``/``serve`` drive and the threaded worker.
    A subclass is one *step policy*: ``pump`` takes what it can run
    with :meth:`_take`, runs one step and returns the work it did
    (0 means idle).
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
        self._g_queue_depth = metrics.gauge("serving.queue_depth")
        self._h_latency = metrics.histogram("serving.latency_s")
        self._h_forward = metrics.histogram("serving.forward_s")
        self._h_batch_size = metrics.histogram("serving.batch_size")
        self.stats = EngineStats()
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

    def submit(self, request: ScoreRequest) -> PendingResult:
        """Enqueue one request; raises :class:`QueueFullError` when full."""
        if not request.behavior_text.strip():
            raise ServingError("behavior_text must be non-empty")
        with self._not_empty:
            if len(self._queue) >= self.config.queue_capacity:
                self.stats.rejected += 1
                self._m_rejected.inc()
                raise QueueFullError(
                    f"queue at capacity ({self.config.queue_capacity}); retry later"
                )
            pending = PendingResult(request)
            self._queue.append((pending, self._clock()))
            self.stats.submitted += 1
            self._m_submitted.inc()
            self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
            self._g_queue_depth.set(len(self._queue))
            self._not_empty.notify()
        return pending

    def _take(self, limit: int) -> list[tuple[PendingResult, float]]:
        """Pop up to ``limit`` live requests, expiring stale ones.

        The deadline boundary is inclusive: a request whose deadline
        equals the current clock is still admitted, and once admitted it
        always gets its one attempt (a scoring, or a decode).
        """
        taken: list[tuple[PendingResult, float]] = []
        expired: list[PendingResult] = []
        with self._lock:
            while self._queue and len(taken) < limit:
                pending, enqueued_at = self._queue.popleft()
                deadline = pending.request.deadline
                if deadline is not None and self._clock() > deadline:
                    self.stats.expired += 1
                    self._m_expired.inc()
                    expired.append(pending)
                    continue
                taken.append((pending, enqueued_at))
            self._g_queue_depth.set(len(self._queue))
        # Reject outside the lock: _reject runs done-callbacks on this
        # thread, and a callback may re-enter submit() (the cluster
        # supervisor's redispatch hook does exactly that) — finalizing
        # while holding self._lock would deadlock on the re-entry.
        for pending in expired:
            pending._reject(
                DeadlineExceededError(
                    f"request for {pending.request.user_id!r} expired in queue"
                )
            )
        return taken

    def _fail(self, pendings: list[PendingResult], error: BaseException) -> None:
        """Finalize admitted requests with ``error``, counted as failed."""
        self.stats.failed += len(pendings)
        self._m_failed.inc(len(pendings))
        for pending in pendings:
            pending._reject(error)

    def withdraw_all(self, error: BaseException) -> int:
        """Empty the queue, rejecting every queued request with ``error``.

        The cluster supervisor calls this when it declares a replica
        dead: queued traffic is finalized with a
        :class:`~repro.errors.ReplicaCrashedError` so done-callbacks can
        re-dispatch it to a healthy replica instead of leaving it
        stranded behind a corpse.  Every withdrawn request counts once in
        ``stats.failed``, ``serving.failed`` and ``serving.withdrawn``.
        Returns the number withdrawn.
        """
        with self._lock:
            withdrawn = [pending for pending, _ in self._queue]
            self._queue.clear()
            self._g_queue_depth.set(0)
        self._m_withdrawn.inc(len(withdrawn))
        self._fail(withdrawn, error)
        return len(withdrawn)

    def withdraw(self, pendings: Sequence[PendingResult], error: BaseException) -> int:
        """Take back those of ``pendings`` still queued, rejecting each with ``error``.

        The all-or-nothing half of both ``serve`` entry points: a
        withdrawn request never runs, so it leaves ``stats.submitted``
        again and counts once in ``serving.withdrawn`` (not in
        ``failed``).  Rejecting it runs its done-callbacks, which is how
        the cluster supervisor lowers the replica's outstanding count
        and releases the tenant quota.  Requests a worker has already
        taken into a batch are left to finish.  Returns the number
        withdrawn.
        """
        mine = {id(pending) for pending in pendings}
        with self._lock:
            withdrawn = [pending for pending, _ in self._queue if id(pending) in mine]
            self._queue = deque(item for item in self._queue if id(item[0]) not in mine)
            self.stats.submitted -= len(withdrawn)
            self._g_queue_depth.set(len(self._queue))
        self._m_withdrawn.inc(len(withdrawn))
        for pending in withdrawn:
            pending._reject(error)
        return len(withdrawn)

    # ------------------------------------------------------------------
    # Synchronous drive
    # ------------------------------------------------------------------

    def pump(self) -> int:
        """Run one step; returns the work it did (0 when idle)."""
        raise NotImplementedError

    def drain(self) -> None:
        """Pump until no queued or in-flight work remains."""
        while self.pump():
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
            self.pump()


BatchFn = Callable[[list[ScoreRequest]], list["ScoreResult"]]


class MicroBatchEngine(ServingEngine):
    """Bounded-queue dynamic batcher in front of a batch scoring function.

    Parameters
    ----------
    batch_fn:
        Scores a non-empty list of requests and returns one
        :class:`ScoreResult` per request, in order.  When it raises,
        the error propagates to each caller's :class:`PendingResult`.
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
        # computed from max_wait_s, woken early by submit() when the
        # batch fills — never a sleep/poll spin.
        deadline = time.monotonic() + self.config.max_wait_s
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
        with self.obs.span("serving.batch", batch_size=len(batch)):
            requests = [pending.request for pending, _ in batch]
            pendings = [pending for pending, _ in batch]
            forward_start = self._clock()
            try:
                with self.obs.span("serving.forward", batch_size=len(batch)):
                    fault_point("serving.forward", batch_size=len(batch))
                    results = self._batch_fn(requests)
            except Exception as error:
                self._fail(pendings, error)
                return
            self._h_forward.observe(max(0.0, self._clock() - forward_start))
            if len(results) != len(batch):
                self._fail(
                    pendings,
                    ServingError(
                        f"batch_fn returned {len(results)} results for {len(batch)} requests"
                    ),
                )
                return
            now = self._clock()
            self.stats.batches += 1
            self._h_batch_size.observe(len(batch))
            for (pending, enqueued_at), result in zip(batch, results):
                latency = max(0.0, now - enqueued_at)
                result = replace(result, latency_s=latency, batch_size=len(batch))
                self.stats.completed += 1
                self._m_completed.inc()
                self._h_latency.observe(latency)
                pending._resolve(result)
            self.obs.event("serving.batch", size=len(batch), queue_depth=self.queue_depth)
