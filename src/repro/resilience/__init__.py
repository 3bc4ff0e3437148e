"""Resilience: circuit breaking, deterministic fault injection.

ZiGong runs inside a live loan pipeline, where a flapping scorer or a
crashed fine-tune degrades real credit decisions.  This package makes
fault handling a first-class subsystem instead of ad-hoc ``try`` blocks:

* :class:`CircuitBreaker` — closed / open / half-open over a rolling
  failure-rate window (:mod:`repro.resilience.breaker`).
* :class:`FaultInjector` / :func:`fault_point` — named fault points
  with seeded schedules; zero overhead unless installed
  (:mod:`repro.resilience.faults`).

Wired through :class:`repro.serving.ClusterSupervisor` (one breaker per
replica, crashed-replica redispatch), :class:`repro.training.Trainer`
(exact crash-resume checkpoints) and
:class:`repro.influence.ParallelInfluenceEngine` (crashed-worker
requeue).  Policies, fault points and tuning live in
``docs/resilience.md``.
"""

from repro.errors import InjectedFault, ResilienceError
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.faults import FaultInjector, Schedule, fault_point

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "FaultInjector",
    "Schedule",
    "fault_point",
    "ResilienceError",
    "InjectedFault",
]
