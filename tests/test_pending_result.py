"""``PendingResult``: one lock per request, an Event only for a caller that blocks."""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import pytest

from repro.errors import ServingError, ServingTimeout
from repro.serving import PendingResult, ScoreRequest, ScoreResult
from repro.serving import engine as engine_module

REQUEST = ScoreRequest("u1", "t=1")
RESULT = ScoreResult("u1", 0.1, True, 0.5)


def wait_until_blocked(pending: PendingResult, waiter: threading.Thread) -> None:
    """Return once ``waiter`` has made the pending's Event inside ``result()``."""
    for _ in range(5000):
        if pending._event is not None:
            return
        waiter.join(0.001)
    raise AssertionError("the waiter never blocked in result()")


class TestBlockingWait:
    def test_resolve_from_another_thread_releases_a_blocked_wait(self):
        pending = PendingResult(REQUEST)
        got = []
        waiter = threading.Thread(target=lambda: got.append(pending.result(timeout=5)))
        waiter.start()
        wait_until_blocked(pending, waiter)
        pending._resolve(RESULT)
        waiter.join(5)
        assert not waiter.is_alive()
        assert got == [RESULT]

    def test_resolve_racing_the_wait_never_loses_the_wakeup(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(1000):
                pending = PendingResult(REQUEST)
                start = threading.Barrier(2)
                got = []

                def wait():
                    start.wait(5)
                    got.append(pending.result(timeout=5))

                waiter = threading.Thread(target=wait)
                waiter.start()
                start.wait(5)
                pending._resolve(RESULT)
                waiter.join(5)
                assert not waiter.is_alive(), f"waiter {i} still blocked"
                assert got == [RESULT], f"waiter {i} got {got}"
        finally:
            sys.setswitchinterval(interval)

    def test_a_resolve_while_the_event_is_made_still_wakes_the_waiter(self, monkeypatch):
        # The worst interleaving, made deterministic: another thread tries
        # to resolve while result() builds its Event.  That resolve must
        # wait for the Event, or it finds none to set and the wait hangs.
        pending = PendingResult(REQUEST)
        resolver = threading.Thread(target=pending._resolve, args=(RESULT,))
        make_event = threading.Event

        def event_racing_a_resolve():
            monkeypatch.setattr(engine_module.threading, "Event", make_event)
            resolver.start()
            resolver.join(0.05)
            return make_event()

        monkeypatch.setattr(engine_module.threading, "Event", event_racing_a_resolve)
        started = time.monotonic()
        assert pending.result(timeout=5) is RESULT
        assert time.monotonic() - started < 2.5, "the resolve was lost; the wait ran out"
        resolver.join(5)
        assert not resolver.is_alive()

    def test_a_rejected_request_raises_its_error_in_the_waiter(self):
        pending = PendingResult(REQUEST)
        errors = []

        def wait():
            try:
                pending.result(timeout=5)
            except RuntimeError as error:
                errors.append(error)

        waiter = threading.Thread(target=wait)
        waiter.start()
        boom = RuntimeError("boom")
        pending._reject(boom)
        waiter.join(5)
        assert not waiter.is_alive()
        assert errors == [boom]


class TestTimeout:
    def test_zero_timeout_raises_without_an_event_and_the_request_still_resolves(self):
        pending = PendingResult(REQUEST)
        with pytest.raises(ServingTimeout):
            pending.result(timeout=0)
        assert pending._event is None
        assert not pending.done
        pending._resolve(RESULT)
        assert pending.result(timeout=0) is RESULT

    def test_expired_wait_raises_and_a_later_result_succeeds(self):
        pending = PendingResult(REQUEST)
        with pytest.raises(ServingTimeout):
            pending.result(timeout=0.01)
        pending._resolve(RESULT)
        assert pending.result(timeout=0.01) is RESULT

    def test_a_finished_request_is_read_without_an_event(self):
        pending = PendingResult(REQUEST)
        pending._resolve(RESULT)
        assert pending.result() is RESULT
        assert pending._event is None


class TestExactlyOnce:
    def test_double_finalize_raises(self):
        pending = PendingResult(REQUEST)
        pending._resolve(RESULT)
        with pytest.raises(ServingError, match="finalized twice"):
            pending._resolve(RESULT)
        with pytest.raises(ServingError, match="finalized twice"):
            pending._reject(RuntimeError("late"))
        assert pending.result(timeout=0) is RESULT

    def test_token_after_finalization_raises(self):
        pending = PendingResult(REQUEST)
        pending._reject(RuntimeError("boom"))
        with pytest.raises(ServingError, match="after finalization"):
            pending._emit_token(7)
        assert pending.stream == ()

    def test_callbacks_see_the_stored_result_and_fire_once_in_order(self):
        pending = PendingResult(REQUEST)
        seen = []
        pending.add_done_callback(lambda p: seen.append(("a", p.done, p.result(timeout=0))))
        pending.add_done_callback(lambda p: seen.append(("b", p.done, p.result(timeout=0))))
        pending._resolve(RESULT)
        assert seen == [("a", True, RESULT), ("b", True, RESULT)]
        pending.add_done_callback(lambda p: seen.append(("late", p.done, p.error)))
        assert seen[-1] == ("late", True, None)

    def test_waiters_are_released_before_callbacks_run(self):
        pending = PendingResult(REQUEST)
        got = []
        waiter = threading.Thread(target=lambda: got.append(pending.result(timeout=5)))
        waiter.start()
        wait_until_blocked(pending, waiter)
        released = []
        pending.add_done_callback(lambda p: released.append(p._event.is_set()))
        pending._resolve(RESULT)
        waiter.join(5)
        assert released == [True]
        assert got == [RESULT]


class TestFootprint:
    def test_a_resolved_pending_holds_at_most_400_bytes(self):
        n = 2000
        kept = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(n):
                pending = PendingResult(REQUEST)
                pending._resolve(RESULT)
                kept.append(pending)
            per_pending = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_pending <= 400, f"{per_pending:.0f} B per resolved PendingResult"
