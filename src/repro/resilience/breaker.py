"""Circuit breaker: stop hammering a dependency that is already down.

Classic three-state machine over a rolling outcome window:

* **closed** — calls flow; outcomes are recorded.  When the window
  holds at least ``min_calls`` outcomes and the failure rate reaches
  ``failure_threshold``, the breaker opens.
* **open** — ``allow()`` refuses calls until ``reset_timeout_s`` has
  elapsed on the injectable clock.
* **half-open** — after the timeout, one probe call is admitted.  A
  probe success closes the breaker (window cleared); a probe failure
  reopens it and restarts the timeout.

The breaker is thread-safe: the serving cluster feeds each replica's
breaker from engine worker threads, its health loop and synchronous
``pump()`` callers alike.  ``record_success(n)`` / ``record_failure(n)``
take a count, so the cluster records a whole batch's outcomes with one
call; the window arithmetic is that of ``n`` single records.

Counters (on the breaker's observability hub):

* ``resilience.breaker.open`` / ``.half_open`` / ``.closed`` — state
  transitions.
* ``resilience.breaker.rejected`` — calls refused while open.
* ``resilience.breaker.state`` — gauge: 0 closed, 1 half-open, 2 open.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from itertools import repeat
from typing import Callable

from repro.errors import ResilienceError
from repro.obs import Observability, get_observability

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_GAUGE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Failure-rate breaker over a rolling window of call outcomes.

    Parameters
    ----------
    failure_threshold:
        Failure fraction in ``(0, 1]`` that opens the breaker.
    window:
        Number of most-recent outcomes considered.
    min_calls:
        Outcomes required in the window before the rate is evaluated —
        a single failure on a cold breaker never trips it.
    reset_timeout_s:
        How long an open breaker waits before admitting a probe.
    clock:
        Injectable monotonic clock; tests advance it by hand.
    """

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 16,
        min_calls: int = 4,
        reset_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        obs: Observability | None = None,
        name: str = "default",
    ):
        if not 0.0 < failure_threshold <= 1.0:
            raise ResilienceError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if window <= 0:
            raise ResilienceError(f"window must be positive, got {window}")
        if min_calls <= 0 or min_calls > window:
            raise ResilienceError(
                f"min_calls must be in [1, window], got {min_calls} (window {window})"
            )
        if reset_timeout_s < 0:
            raise ResilienceError(f"reset_timeout_s must be >= 0, got {reset_timeout_s}")
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_calls = min_calls
        self.reset_timeout_s = reset_timeout_s
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._opened_at = 0.0
        self._probing = False  # the one half-open probe is in flight
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_open = metrics.counter("resilience.breaker.open")
        self._m_half_open = metrics.counter("resilience.breaker.half_open")
        self._m_closed = metrics.counter("resilience.breaker.closed")
        self._m_rejected = metrics.counter("resilience.breaker.rejected")
        self._g_state = metrics.gauge("resilience.breaker.state")
        self._g_state.set(0)

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _transition(self, state: str) -> None:
        """Move to ``state`` (lock held) and record the transition."""
        if state == self._state:
            return
        self._state = state
        self._g_state.set(_STATE_GAUGE[state])
        counter = {OPEN: self._m_open, HALF_OPEN: self._m_half_open, CLOSED: self._m_closed}
        counter[state].inc()
        self.obs.event("resilience.breaker", breaker=self.name, state=state)

    def _maybe_half_open(self) -> None:
        """Open -> half-open once the reset timeout has elapsed (lock held)."""
        if self._state == OPEN and self._clock() - self._opened_at >= self.reset_timeout_s:
            self._transition(HALF_OPEN)
            self._probing = False

    # -- call protocol -------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?  ``False`` counts as a rejection.

        A closed breaker answers without its lock: reading the state is
        atomic, and a call admitted just before another thread opens
        the breaker is one that arrived first.
        """
        if self._state == CLOSED:
            return True
        with self._lock:
            if self._state == CLOSED:
                return True
            self._maybe_half_open()
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            self._m_rejected.inc()
            return False

    def record_success(self, n: int = 1) -> None:
        """Record ``n`` successful calls, exactly as ``n`` single records would."""
        if n < 1:
            return
        with self._lock:
            if self._state == HALF_OPEN:
                # Probe succeeded: the dependency is back.
                self._outcomes.clear()
                self._probing = False
                self._transition(CLOSED)
                n -= 1
            self._outcomes.extend(repeat(False, min(n, self.window)))

    def record_failure(self, n: int = 1) -> None:
        """Record ``n`` failed calls, exactly as ``n`` single records would.

        Appending failures never lowers the window's failure rate, so
        judging the rate once after all ``n`` opens the breaker exactly
        when one of ``n`` single records would have.
        """
        if n < 1:
            return
        with self._lock:
            if self._state == HALF_OPEN:
                # Probe failed: reopen and restart the timeout.
                self._probing = False
                self._open()
                n -= 1
            self._outcomes.extend(repeat(True, min(n, self.window)))
            if self._state == CLOSED and len(self._outcomes) >= self.min_calls:
                rate = sum(self._outcomes) / len(self._outcomes)
                if rate >= self.failure_threshold:
                    self._open()

    def _open(self) -> None:
        self._opened_at = self._clock()
        self._transition(OPEN)

    def reset(self) -> None:
        """Force the breaker closed and forget the outcome window.

        For supervisors that *replace* the failing dependency (e.g. the
        serving cluster restarting a crashed replica): the old failure
        history describes a process that no longer exists, so traffic
        should return immediately instead of waiting out
        ``reset_timeout_s`` and the half-open probe dance.
        """
        with self._lock:
            self._outcomes.clear()
            self._probing = False
            self._transition(CLOSED)
