"""Deterministic fault injection at named fault points.

Production code marks the places where faults are *plausible* —
``fault_point("serving.forward")``, ``fault_point("training.checkpoint_saved",
step=k)`` — and a test installs a :class:`FaultInjector` that arms some
of those points with seeded schedules: "fail the 2nd forward", "crash
right after checkpoint 4", "fail 10 % of worker replays".  When no
injector is installed (the production default) a fault point is a
single module-global ``None`` check — zero allocation, zero branches
beyond the guard.

Schedules are deterministic: counting schedules trigger on exact hit
indices, rate schedules draw from a PRNG seeded per point, so a chaos
test replays identically every run.  Fault points are inherited by
``fork``-started worker processes (the injector travels with the
interpreter state), which is how the influence engine's crashed-worker
requeue path is exercised.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Iterator, Mapping

from contextlib import contextmanager

from repro.errors import InjectedFault, ResilienceError

# One Schedule decides, per hit, whether this occurrence faults.
Schedule = Callable[[int, Mapping[str, object]], BaseException | None]

# The installed injector, shared by every thread (see FaultInjector.install).
_ACTIVE: "FaultInjector | None" = None


def fault_point(name: str, **context) -> None:
    """Declare a fault point; raises only when an installed injector says so.

    The fast path — no injector installed — is one global load and one
    ``is None`` test, cheap enough for per-batch and per-step call
    sites (overhead budget pinned by ``benchmarks/bench_resilience.py``).
    """
    if _ACTIVE is not None:
        _ACTIVE.hit(name, context)


class FaultInjector:
    """Named fault points armed with deterministic schedules.

    Hits are counted per point (1-based) even when no schedule is
    armed, so tests can also use the injector purely as a probe of how
    often a point was reached.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._schedules: dict[str, list[Schedule]] = {}
        self.hits: dict[str, int] = {}
        self.injected: dict[str, int] = {}
        self._lock = threading.Lock()

    # -- arming --------------------------------------------------------

    def on(self, point: str, schedule: Schedule) -> "FaultInjector":
        """Arm ``point`` with a raw schedule; returns self for chaining."""
        self._schedules.setdefault(point, []).append(schedule)
        return self

    def fail_nth(
        self,
        point: str,
        n: int,
        exc: Callable[[str], BaseException] | None = None,
    ) -> "FaultInjector":
        """Fail exactly the ``n``-th hit (1-based) of ``point``."""
        if n <= 0:
            raise ResilienceError(f"n must be positive, got {n}")
        make = exc or (lambda msg: InjectedFault(msg))

        def schedule(hit: int, context: Mapping) -> BaseException | None:
            if hit == n:
                return make(f"injected fault at {point!r} (hit {hit})")
            return None

        return self.on(point, schedule)

    def fail_times(
        self,
        point: str,
        times: int,
        exc: Callable[[str], BaseException] | None = None,
    ) -> "FaultInjector":
        """Fail the first ``times`` hits, then let every later hit pass.

        The shape of a transient fault — exactly what retry tests need.
        """
        if times <= 0:
            raise ResilienceError(f"times must be positive, got {times}")
        make = exc or (lambda msg: InjectedFault(msg))

        def schedule(hit: int, context: Mapping) -> BaseException | None:
            if hit <= times:
                return make(f"injected transient fault at {point!r} (hit {hit}/{times})")
            return None

        return self.on(point, schedule)

    def fail_when(
        self,
        point: str,
        exc: Callable[[str], BaseException] | None = None,
        **match,
    ) -> "FaultInjector":
        """Fail any hit whose context matches every ``key=value`` given.

        ``fail_when("training.checkpoint_saved", step=4)`` crashes the
        run immediately after checkpoint 4 lands on disk.
        """
        if not match:
            raise ResilienceError("fail_when() requires at least one context match")
        make = exc or (lambda msg: InjectedFault(msg))

        def schedule(hit: int, context: Mapping) -> BaseException | None:
            if all(context.get(key) == value for key, value in match.items()):
                return make(f"injected fault at {point!r} ({match})")
            return None

        return self.on(point, schedule)

    def fail_rate(
        self,
        point: str,
        rate: float,
        exc: Callable[[str], BaseException] | None = None,
    ) -> "FaultInjector":
        """Fail each hit independently with probability ``rate``, seeded.

        The PRNG is seeded from ``(self.seed, point)``: the same
        injector configuration produces the same fault pattern run to
        run, regardless of arming order.
        """
        if not 0.0 <= rate <= 1.0:
            raise ResilienceError(f"rate must be in [0, 1], got {rate}")
        make = exc or (lambda msg: InjectedFault(msg))
        rng = random.Random(f"{self.seed}:{point}")

        def schedule(hit: int, context: Mapping) -> BaseException | None:
            if rng.random() < rate:
                return make(f"injected random fault at {point!r} (hit {hit})")
            return None

        return self.on(point, schedule)

    # -- firing --------------------------------------------------------

    def hit(self, point: str, context: Mapping[str, object]) -> None:
        """Record one hit of ``point``; raise if an armed schedule fires."""
        with self._lock:
            count = self.hits.get(point, 0) + 1
            self.hits[point] = count
            error = None
            for schedule in self._schedules.get(point, ()):
                error = schedule(count, context)
                if error is not None:
                    self.injected[point] = self.injected.get(point, 0) + 1
                    break
        if error is not None:
            raise error

    # -- installation --------------------------------------------------

    def install(self) -> "FaultInjector":
        """Make this injector the process-wide active one.

        Process-wide on purpose, unlike the per-thread grad mode in
        :mod:`repro.tensor`: chaos tests arm fault points that fire on
        engine, replica and pool-worker threads, not just the caller's.
        """
        global _ACTIVE
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Deactivate if currently installed (idempotent)."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None

    @contextmanager
    def active(self) -> Iterator["FaultInjector"]:
        """``with injector.active():`` — install, then restore on exit."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous
