"""Observability: metrics, trace spans and structured events.

The production story of the paper — a Behavior Card service inside a
live loan pipeline — needs more than correct scores: queue depths,
latency histograms, per-checkpoint influence timings and structured
events a dashboard or regression test can consume.  This package is that
layer, wired through ``repro.serving``, ``repro.training`` and
``repro.influence`` (metric names and schemas in
``docs/observability.md``):

* :class:`MetricsRegistry` — counters, gauges, labeled histograms with
  quantile summaries (:mod:`repro.obs.metrics`).
* :class:`Tracer` / ``span()`` — nestable timers forming a trace tree on
  an injectable clock (:mod:`repro.obs.trace`).
* :class:`EventSink` — JSON-lines structured events, replayable via
  ``repro obs report`` (:mod:`repro.obs.events`, :mod:`repro.obs.report`).

Instrumented components take an :class:`Observability` hub (or fall back
to the process-wide default from :func:`get_observability`).  Passing
``Observability.disabled()`` turns the whole layer into no-ops;
``benchmarks/bench_obs_overhead.py`` holds the overhead of enabled vs
disabled under ~3 % on the serving hot path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.events import EventSink, read_events
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import render_registry, render_report, render_snapshot
from repro.obs.trace import Span, Tracer


@dataclass
class Observability:
    """One handle bundling the three write paths.

    ``metrics`` and ``tracer`` are always present (possibly disabled);
    ``events`` is optional — most processes only record events when
    asked to produce a run file.  ``span(name, **attrs)`` is
    ``tracer.span``.
    """

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    events: EventSink | None = None

    @classmethod
    def create(
        cls,
        events_path=None,
        clock: Callable[[], float] = time.perf_counter,
        wall_clock: Callable[[], float] = time.time,
    ) -> "Observability":
        """A fully wired hub: spans feed metrics and (optional) events."""
        metrics = MetricsRegistry()
        events = EventSink(events_path, clock=wall_clock) if events_path is not None else None
        tracer = Tracer(clock=clock, metrics=metrics, events=events)
        return cls(metrics=metrics, tracer=tracer, events=events)

    @classmethod
    def disabled(cls) -> "Observability":
        """All-no-op hub; instrumented code runs identically, records nothing."""
        return cls(
            metrics=MetricsRegistry(enabled=False),
            tracer=Tracer(enabled=False),
            events=None,
        )

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled

    def __post_init__(self):
        # ``span(name, **attrs)`` is the tracer's own method, bound once: a
        # span costs one call, and a disabled one returns the shared inert
        # span from it.
        self.span = self.tracer.span

    def event(self, kind: str, **fields) -> dict | None:
        """Emit a structured event if a sink is attached (else no-op)."""
        if self.events is None:
            return None
        return self.events.emit(kind, **fields)


_default: Observability | None = None


def get_observability() -> Observability:
    """The process-wide default hub (created enabled, no event sink).

    Process-wide on purpose, unlike the per-thread grad mode in
    :mod:`repro.tensor`: spans and counters recorded on serving and
    engine worker threads must land in the same hub as the caller's.
    """
    global _default
    if _default is None:
        _default = Observability.create()
    return _default


__all__ = [
    "Observability",
    "get_observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "EventSink",
    "read_events",
    "render_report",
    "render_registry",
    "render_snapshot",
]
