"""Process-local metrics: counters, gauges and windowed histograms.

The registry is the write side of the observability layer: hot paths
(serving engine, trainer, influence replay) hold direct references to
their instruments and update them with one attribute write per event, so
instrumentation stays well under the ~3 % overhead budget enforced by
``benchmarks/bench_obs_overhead.py``.  A disabled registry hands out
shared no-op instruments, making the instrumented code identical in both
modes — there are no ``if obs:`` branches on the hot paths.

Metric names are dotted strings (``serving.latency_s``); labels are
keyword arguments (``registry.counter("serving.requests", path="batch")``)
and every distinct label set is its own time series.  Histograms keep
exact running ``count / sum / min / max`` plus a bounded window of recent
observations for quantile summaries, so long-running processes stay
bounded in memory.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Mapping

from repro.errors import ObservabilityError

LabelItems = tuple[tuple[str, str], ...]


def _series_key(name: str, labels: Mapping[str, object]) -> str:
    """Render ``name{k=v,...}``, the stable key used in snapshots."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (requests, tokens, expiries)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, object] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins level (queue depth, loss, PSI)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, object] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Distribution summary: exact count/sum/min/max, windowed quantiles.

    The window (default 2048 observations) bounds memory on long runs;
    quantiles therefore describe *recent* behavior, which is what a
    latency dashboard wants anyway.
    """

    __slots__ = ("name", "labels", "window", "_lock", "_count", "_sum", "_min", "_max", "_recent")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, object] | None = None,
        window: int = 2048,
    ):
        if window <= 0:
            raise ObservabilityError(f"histogram window must be positive, got {window}")
        self.name = name
        self.labels = dict(labels or {})
        self.window = window
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._recent: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._recent.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile over the recent window (0 when nothing observed)."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._recent:
                return 0.0
            ordered = sorted(self._recent)
        # Nearest-rank on the window; deterministic, no interpolation noise.
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled registries."""

    name = "null"
    labels: dict[str, object] = {}
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0}


_NULL = _NullInstrument()


class MetricsRegistry:
    """Process-local home for every instrument, keyed by name + labels.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    twice with the same name and labels returns the same instrument, so
    independently constructed components share series.  A disabled
    registry returns the shared no-op instrument instead, which is how
    the overhead benchmark turns the whole layer off.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, table: dict, factory, name: str, labels: Mapping[str, object]):
        key = _series_key(name, labels)
        with self._lock:
            instrument = table.get(key)
            if instrument is None:
                instrument = table[key] = factory(name, labels)
            return instrument

    # ``name`` is positional-only so that labels may themselves be
    # called ``name`` (e.g. ``histogram("span.duration_s", name=span)``).
    def counter(self, name: str, /, **labels) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, /, **labels) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, /, window: int = 2048, **labels) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        return self._get(
            self._histograms,
            lambda n, l: Histogram(n, l, window=window),
            name,
            labels,
        )

    def snapshot(self) -> dict[str, dict]:
        """A JSON-able point-in-time view of every series."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {key: c.value for key, c in sorted(counters.items())},
            "gauges": {key: g.value for key, g in sorted(gauges.items())},
            "histograms": {key: h.summary() for key, h in sorted(histograms.items())},
        }
