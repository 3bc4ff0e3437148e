"""The benchmark's clock, summaries of timing samples (median, a tail
backed by enough samples) and the host-speed scale every reported time
is taken at."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# Every time the benchmark takes is CPU time of the one thread that runs
# both the load generator and the program (no worker threads, one BLAS
# thread; see run.py).  Time the thread spends descheduled, because some
# other process on the box had the core, is not the program's and does
# not count; a wall clock charges it to whatever request was in flight.
clock = time.thread_time

MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def tail(values, q: float) -> float:
    """The ``q``-th percentile, refused unless ``MIN_BEYOND`` samples lie beyond it."""
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        )
    return float(np.percentile(values, q))


def median(values) -> float:
    if not len(values):
        raise ValueError("median of no samples")
    return float(np.median(values))


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#
# The shared host runs everything 1.3-2x slower for stretches of seconds
# to minutes, long enough to cover whole runs, and CPU time slows with it
# (the core itself is slower, not just shared).  A fixed reference kernel
# (small numpy matmuls plus an interpreter loop, the mix the program
# itself runs) is timed just before and just after each measured piece
# of work, and the work's times are scaled by how much slower than
# REFERENCE_S the kernel ran near it: the mean of every pass of the run
# within WINDOW_S of the work, so that a long piece of work, or one pass
# that happened to be slowed, does not rest on two 1.6 ms samples.
# Reported times are therefore in reference-box units: what the work
# would take with the host at full speed.  The kernel is the benchmark's
# own code and never calls the program, so a change to the program moves
# the work and not the scale.
#
# The tight kernel suffers a little more from contention than the
# program does.  Over ten runs of each workload on a heavily contended
# host (unscaled, the runs spread 0.21-0.46), SPEED_EXPONENT = 0.9 gave
# the least or near-least run-to-run spread on all three workloads (see
# README.md).

REFERENCE_S = 1.6e-3  # one kernel pass at full speed on the 2-core reference box
SPEED_EXPONENT = 0.9
WINDOW_S = 0.5  # kernel passes this close to a piece of work set its scale

_REF_RNG = np.random.default_rng(0)
_REF_A = _REF_RNG.random((48, 48), dtype=np.float32)
_REF_B = _REF_RNG.random((48, 48), dtype=np.float32)


def _reference_kernel():
    x = _REF_A
    for _ in range(150):
        x = np.tanh(x @ _REF_B) * np.float32(0.05)
    table: dict[int, int] = {}
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0) + len(str(i))
    return x, table


class HostSpeed:
    """Every reference-kernel pass of one run, and the scale of any piece of it."""

    def __init__(self):
        self.passes: list[tuple[float, float]] = []  # (clock at the pass's middle, its seconds)

    def _pass(self) -> None:
        started = clock()
        _reference_kernel()
        ended = clock()
        self.passes.append(((started + ended) / 2, ended - started))

    def run(self, fn):
        """Run ``fn`` between two kernel passes; return ``(result, (start, end))`` on the clock."""
        self._pass()
        started = clock()
        result = fn()
        ended = clock()
        self._pass()
        return result, (started, ended)

    def scale(self, span: tuple[float, float], exponent: float = SPEED_EXPONENT) -> float:
        """REFERENCE_S over the mean pass within WINDOW_S of ``span``, to
        the power ``exponent``: multiply a time measured in ``span`` by
        it, divide a rate by it."""
        near = [s for t, s in self.passes if span[0] - WINDOW_S <= t <= span[1] + WINDOW_S]
        return (REFERENCE_S * len(near) / sum(near)) ** exponent

    def scales(self, spans, exponent: float = SPEED_EXPONENT) -> list[float]:
        return [self.scale(span, exponent) for span in spans]


@dataclass(frozen=True)
class Metric:
    """One reported number with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int
    rounds: tuple[float, ...] = ()  # scaled per-round values the number was taken from


def scaled(values, scales, higher_is_better: bool = False) -> list[float]:
    """Times times their scale; rates (``higher_is_better``) divided by it."""
    if higher_is_better:
        return [v / s for v, s in zip(values, scales, strict=True)]
    return [v * s for v, s in zip(values, scales, strict=True)]


def over_rounds(values, scales, unit: str, samples: int, higher_is_better: bool = False) -> Metric:
    """The median of per-round values, each scaled to reference speed."""
    values = scaled(values, scales, higher_is_better)
    return Metric(median(values), unit, samples, tuple(values))


def batch_gaps(done_at: list[float], batch_sizes: list[int]) -> list[float]:
    """Gaps between successive batch completions of a serving loop.

    ``done_at`` and ``batch_sizes`` describe every request.  Requests of
    one batch resolve back to back, so after sorting by completion time
    the sequence splits into runs whose length is the batch size; the
    end of each run is that batch's completion.
    """
    order = sorted(range(len(done_at)), key=done_at.__getitem__)
    ends = []
    i = 0
    while i < len(order):
        size = batch_sizes[order[i]]
        i += size
        ends.append(done_at[order[min(i, len(order)) - 1]])
    return [b - a for a, b in zip(ends, ends[1:])]
