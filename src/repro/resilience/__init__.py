"""Resilience: retries, circuit breaking, deterministic fault injection.

ZiGong runs inside a live loan pipeline, where a flapping scorer or a
crashed fine-tune degrades real credit decisions.  This package makes
fault handling a first-class subsystem instead of ad-hoc ``try`` blocks:

* :class:`RetryPolicy` — exponential backoff with deterministic seeded
  jitter and injectable clock/sleep (:mod:`repro.resilience.retry`).
* :class:`CircuitBreaker` — closed / open / half-open over a rolling
  failure-rate window (:mod:`repro.resilience.breaker`).
* :class:`FaultInjector` / :func:`fault_point` — named fault points
  with seeded schedules; zero overhead unless installed
  (:mod:`repro.resilience.faults`).

Wired through :class:`repro.serving.MicroBatchEngine` (retry within the
request deadline, breaker failing batches fast while open),
:class:`repro.training.Trainer` (exact crash-resume checkpoints) and
:class:`repro.influence.ParallelInfluenceEngine` (crashed-worker
requeue).  Policies, fault points and tuning live in
``docs/resilience.md``.
"""

from repro.errors import CircuitOpenError, InjectedFault, ResilienceError
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.faults import FaultInjector, Schedule, fault_point
from repro.resilience.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "FaultInjector",
    "Schedule",
    "fault_point",
    "ResilienceError",
    "CircuitOpenError",
    "InjectedFault",
]
