"""Nestable trace spans forming a per-thread trace tree.

``tracer.span("serving.batch", batch_size=4)`` times a block on the
tracer's injectable clock and records where it sat in the call tree:
spans opened while another span is active become its children, so one
engine pump produces ``serving.batch`` with a ``serving.forward`` child,
and a TracSeq scoring run produces ``influence.matrix`` with one
``influence.checkpoint`` child per replayed checkpoint.

Completed root spans land in ``tracer.roots`` (a bounded deque); every
finished span also feeds

* the ``span.duration_s{name=...}`` histogram (count / sum / mean / max
  per span name) when the tracer has a metrics registry, and
* a ``kind="span"`` event when it has an event sink,

so traces are queryable live, from metrics, or from a recorded run.

``span()`` returns a context manager, not a generator: an enabled span
builds one small scope object, and a disabled tracer hands back one
shared inert span, so a disabled span allocates nothing per call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.events import EventSink
    from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass(slots=True)
class Span:
    """One timed block; ``attrs`` may be filled in while the span is open."""

    name: str
    start_s: float
    end_s: float = 0.0
    status: str = "ok"
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)


class _NullSpan:
    """Shared inert span handed out by a disabled tracer (its own context)."""

    name = "null"
    duration_s = 0.0
    status = "ok"
    children: list = []

    @property
    def attrs(self) -> dict[str, object]:
        return {}  # fresh throwaway dict: attr writes on a null span vanish

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Builds trace trees; thread-safe via a per-thread span stack.

    Parameters
    ----------
    clock:
        Injected time source (defaults to ``time.perf_counter``); tests
        pass a fake clock for deterministic durations.
    metrics / events:
        Optional :class:`MetricsRegistry` / :class:`EventSink` that every
        finished span is mirrored into.
    max_roots:
        Bound on retained completed root spans (oldest evicted first).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        enabled: bool = True,
        metrics: "MetricsRegistry | None" = None,
        events: "EventSink | None" = None,
        max_roots: int = 256,
    ):
        self.enabled = enabled
        self._clock = clock
        self._metrics = metrics
        self._events = events
        self.roots: deque[Span] = deque(maxlen=max_roots)
        self._local = threading.local()
        # span name -> its span.duration_s histogram, looked up once per name
        self._durations: dict[str, "Histogram"] = {}

    def span(self, name: str, **attrs):
        """Time a block; nested calls become children of the open span."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanScope(self, name, attrs)

    def _finish(self, record: Span) -> None:
        """Mirror a finished span into the metrics registry and event sink."""
        if self._metrics is not None:
            durations = self._durations.get(record.name)
            if durations is None:
                durations = self._durations[record.name] = self._metrics.histogram(
                    "span.duration_s", name=record.name
                )
            durations.observe(record.duration_s)
        if self._events is not None:
            self._events.emit(
                "span",
                name=record.name,
                duration_s=record.duration_s,
                status=record.status,
                attrs=record.attrs,
                n_children=len(record.children),
            )


class _SpanScope:
    """The context manager of one enabled span: opens it on enter, files it on exit."""

    __slots__ = ("_tracer", "_record", "_stack")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, object]):
        self._tracer = tracer
        self._record = Span(name, 0.0, attrs=attrs)

    def __enter__(self) -> Span:
        tracer, record = self._tracer, self._record
        stack = getattr(tracer._local, "stack", None)
        if stack is None:
            stack = tracer._local.stack = []
        self._stack = stack  # this thread's: a span is entered and exited on one thread
        record.start_s = tracer._clock()
        stack.append(record)
        return record

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer, record, stack = self._tracer, self._record, self._stack
        if exc_type is not None:
            record.status = "error"
        record.end_s = tracer._clock()
        stack.pop()
        if stack:
            stack[-1].children.append(record)
        else:
            tracer.roots.append(record)
        tracer._finish(record)
