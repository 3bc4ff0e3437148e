"""Continuous-batching serving engine: streaming decode behind the
``submit``/``PendingResult`` contract.

:class:`~repro.serving.engine.MicroBatchEngine` schedules *scoring*
(one forward per batch); this module schedules *generation*.  Both are
the same :class:`~repro.serving.engine.ServingEngine` core — bounded
queue, backpressure, deadline expiry, withdrawal, ``serve``/``drain``
and the threaded worker — with a different step policy.  A
:class:`ContinuousEngine` keeps one
:class:`~repro.nn.continuous.ContinuousScheduler` loop alive and, per
:meth:`~ContinuousEngine.pump`:

1. takes as many queued requests as the admission policy has free rows
   for (``max_live_rows`` is the config's ``max_batch_size``), expiring
   stale ones on the way (the core's inclusive deadline boundary — once
   admitted, a request always decodes),
2. runs **one** decode step, streaming every generated token to its
   caller through ``PendingResult._emit_token`` (its token callbacks and
   ``stream`` prefix), and settles the rows that step finished — built
   through the app's ``finish`` hook, recorded and handed to the engine's
   ``settle`` as one batch, exactly once.

Because the core is shared, a :class:`~repro.serving.cluster.ClusterSupervisor`
replica can run either engine unchanged: redispatch-off-crashed-replica,
rolling deploys and the chaos suite all apply.  The per-step
``cluster.scheduler`` fault point is the chaos hook; an injected
:class:`~repro.errors.ReplicaCrashedError` aborts live streams (their
``PendingResult`` carries the error, partial tokens stay readable) and
the supervisor's redispatch callback moves the traffic elsewhere.

Failure semantics differ from micro-batch scoring on purpose: there is
no retry, because a half-decoded stream is not
re-enterable — a mid-decode fault fails the affected streams and the
caller (or the cluster's redispatch) decides whether to resubmit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ServingError
from repro.nn.cache import PrefixCache
from repro.nn.continuous import AdmissionPolicy, ContinuousScheduler, GenerationStream
from repro.nn.generation import GenerationConfig
from repro.obs import Observability
from repro.resilience.faults import fault_point
from repro.serving.engine import (
    EngineConfig,
    PendingResult,
    ScoreRequest,
    ScoreResult,
    ServingEngine,
)


@dataclass
class GenerationApp:
    """What a continuous replica runs: a model plus request codecs.

    ``encode`` turns a :class:`ScoreRequest` into prompt token ids;
    ``finish`` turns the request and its generated tokens into a fresh
    :class:`ScoreResult` for the caller (the engine stamps its latency /
    batch-size / replica metadata).
    """

    model: object  # MistralTiny (duck-typed: anything generate() accepts)
    encode: Callable[[ScoreRequest], np.ndarray]
    finish: Callable[[ScoreRequest, list[int]], ScoreResult]
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    prefix_cache: PrefixCache | None = None


AppProvider = Callable[[], GenerationApp]


class ContinuousEngine(ServingEngine):
    """Bounded-queue continuous batcher over a generation app.

    Parameters
    ----------
    app:
        A :class:`GenerationApp`, or a zero-arg provider returning one.
        A provider is re-consulted every pump — the cluster supervisor
        passes the replica transport's accessor, so a restarted replica
        (fresh model instance) is picked up automatically, and a dead
        one raises :class:`~repro.errors.ReplicaCrashedError` which
        fails the in-flight streams for redispatch.
    config:
        :class:`~repro.serving.engine.EngineConfig`; ``queue_capacity``
        bounds admission exactly like the micro-batch engine, and
        ``max_batch_size`` is the admission policy's ``max_live_rows``.
        A decode step, not a timer, is the batching heartbeat.
    clock / obs:
        As on :class:`~repro.serving.engine.MicroBatchEngine`.
    """

    def __init__(
        self,
        app: GenerationApp | AppProvider,
        config: EngineConfig | None = None,
        clock: Callable[[], float] = time.time,
        obs: Observability | None = None,
    ):
        super().__init__(config, clock, obs)
        self.policy = AdmissionPolicy(max_live_rows=self.config.max_batch_size)
        self._provider: AppProvider = app if callable(app) else (lambda: app)
        self._scheduler: ContinuousScheduler | None = None
        self._scheduler_app: GenerationApp | None = None
        # Admitted requests by their scheduler stream: (pending, enqueued_at).
        self._flights: dict[GenerationStream, tuple[PendingResult, float]] = {}

    @property
    def queue_depth(self) -> int:
        """Requests waiting for admission (queued + scheduler-waiting)."""
        depth = super().queue_depth
        if self._scheduler is not None:
            depth += self._scheduler.waiting
        return depth

    @property
    def live_rows(self) -> int:
        """Rows currently decoding."""
        return self._scheduler.live_rows if self._scheduler is not None else 0

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _ensure_scheduler(self) -> ContinuousScheduler:
        """The live scheduler, rebuilt when the app instance changed.

        An app change (replica restart, weight swap that rebuilt the
        model) can only be observed between pumps; at that point any
        in-flight rows of the old app have already been failed, so a
        fresh loop is safe.
        """
        app = self._provider()
        if self._scheduler is None or self._scheduler_app is not app:
            if self._scheduler is not None and (
                self._scheduler.live_rows or self._scheduler.waiting
            ):
                raise ServingError(
                    "generation app changed with streams in flight; "
                    "withdraw them before swapping the app"
                )
            self._scheduler = ContinuousScheduler(
                app.model,
                config=app.generation,
                policy=self.policy,
                prefix_cache=app.prefix_cache,
                obs=self.obs,
            )
            self._scheduler_app = app
        return self._scheduler

    def pump(self) -> int:
        """Admit what fits, decode one step, finalize finished streams.

        Returns the number of work units this pump performed (rows
        admitted plus rows decoded); 0 means the engine is idle.
        """
        try:
            scheduler = self._ensure_scheduler()
            app = self._scheduler_app
        except Exception as error:
            # No app means no progress is possible: withdraw the
            # in-flight streams AND the queue, or the supervisor's drain
            # would stall on a queue nobody will ever decode.
            self.withdraw_all(error)
            return 0
        room = max(0, self.policy.max_live_rows - scheduler.live_rows - scheduler.waiting)
        for pending, enqueued_at in self._take(room):
            try:
                prompt = app.encode(pending.request)
            except Exception as error:
                self._fail([pending], error)
                continue
            stream = scheduler.submit(
                prompt,
                on_token=lambda _s, token, p=pending: p._emit_token(token),
                request_id=pending.request.user_id,
            )
            self._flights[stream] = (pending, enqueued_at)
        if not scheduler.has_work:
            return 0
        rows = scheduler.live_rows + scheduler.waiting
        try:
            fault_point("cluster.scheduler", live=scheduler.live_rows, waiting=scheduler.waiting)
            with self.obs.span("serving.batch", batch_size=rows):
                scheduler.step()
        except Exception as error:
            self._crash(scheduler, error)
            return rows
        self.stats.batches += 1
        self._h_batch_size.observe(max(1, scheduler.live_rows))
        self._finalize_done(app)
        return rows

    def _finalize_done(self, app: GenerationApp) -> None:
        """Settle the streams this step finished, as one batch."""
        finished = [stream for stream in self._flights if stream.done]
        if not finished:
            return
        now = self._clock()
        batch_size = max(1, self.live_rows + len(finished))
        done, failed, results, latencies = [], [], [], []
        for stream in finished:
            pending, enqueued_at = self._flights.pop(stream)
            if stream.error is not None:
                failed.append((pending, stream.error))
                continue
            try:
                result = app.finish(pending.request, list(stream.tokens))
            except Exception as error:
                failed.append((pending, error))
                continue
            if any(result is kept for kept in results):  # stamped in place: one each
                error = ServingError("finish returned a ScoreResult given to another request")
                failed.append((pending, error))
                continue
            done.append((pending, result))
            results.append(result)
            latencies.append(max(0.0, now - enqueued_at))
        self._stamp(results, latencies, batch_size)
        self._complete(done, latencies, failed)

    def _crash(self, scheduler: ContinuousScheduler | None, error: BaseException) -> None:
        """Fail every in-flight stream with ``error`` and reset the loop."""
        if scheduler is not None:
            scheduler.abort_all(error)
        flights, self._flights = self._flights, {}
        self._scheduler = None
        self._scheduler_app = None
        self._fail([pending for pending, _ in flights.values()], error)

    def withdraw_all(self, error: BaseException) -> int:
        """Reject every queued *and* in-flight request with ``error``.

        The supervisor's dead-replica path: unlike the micro-batch
        engine, live decodes are also withdrawn — a dead model cannot
        finish them — so redispatch callbacks can move everything.
        """
        count = super().withdraw_all(error)
        in_flight = len(self._flights)
        if in_flight:
            self._m_withdrawn.inc(in_flight)
            self._crash(self._scheduler, error)
        return count + in_flight

    def _has_work(self) -> bool:
        if self._scheduler is not None and self._scheduler.has_work:
            return True
        return super()._has_work()
