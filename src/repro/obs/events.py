"""Structured JSON-lines event sink.

Every event is one JSON object per line::

    {"ts": 1722945600.0, "kind": "serving.batch", "size": 8, "queue_depth": 0}

``ts`` comes from the sink's injectable clock and ``kind`` namespaces the
event (``span``, ``serving.batch``, ``training.epoch``, ``metrics`` ...).
Events always land in a bounded in-memory ring (so tests and live
debugging can inspect them) and, when the sink has a path, are appended
to the file as they happen — a recorded run that ``repro obs report``
can replay later.  :meth:`EventSink.close` releases the file; a later
event reopens it for appending.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

from repro.errors import ObservabilityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry


class EventSink:
    """Append-only structured event log (in-memory ring + optional file)."""

    def __init__(
        self,
        path: str | Path | None = None,
        clock: Callable[[], float] = time.time,
        max_events: int = 10000,
    ):
        if max_events <= 0:
            raise ObservabilityError(f"max_events must be positive, got {max_events}")
        self.path = Path(path) if path is not None else None
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=max_events)
        self._file: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")

    def emit(self, kind: str, **fields) -> dict:
        """Record one event; returns the event dict."""
        event = {"ts": self._clock(), "kind": kind, **fields}
        self._ring.append(event)
        if self.path is not None:
            if self._file is None:
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(json.dumps(event, default=str) + "\n")
            self._file.flush()
        return event

    def emit_metrics(self, registry: "MetricsRegistry") -> dict:
        """Record a point-in-time snapshot of a registry's series."""
        return self.emit("metrics", snapshot=registry.snapshot())

    @property
    def n_events(self) -> int:
        return len(self._ring)

    def events(self) -> list[dict]:
        """A copy of the in-memory ring (oldest first)."""
        return list(self._ring)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict]:
    """Load a recorded JSON-lines run (skipping blank lines)."""
    path = Path(path)
    if not path.exists():
        raise ObservabilityError(f"no recorded run at {path}")
    events = []
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ObservabilityError(f"{path}:{lineno} is not valid JSON: {exc}")
    return events
