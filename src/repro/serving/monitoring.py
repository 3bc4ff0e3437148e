"""Production monitoring for the Behavior Card service.

Two standard risk-control tools:

* **PSI (Population Stability Index)** — *the* drift measure in credit
  scoring: compares the live score distribution against the validation
  distribution the model was approved on.  Conventional thresholds:
  < 0.1 stable, 0.1–0.25 watch, > 0.25 drifted (recalibrate).
* **Shadow deployment** — run a candidate model silently next to the
  production model on live traffic and track agreement before cutover.

Both monitors publish into the observability layer: the drift monitor
keeps a ``monitoring.psi`` gauge and observation counter fresh (plus a
``monitoring.drift`` event per status check), the shadow deployment
counts requests and disagreements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.data.templates import APPROVE_ANSWER, DECLINE_ANSWER
from repro.errors import ServingError
from repro.obs import Observability, get_observability
from repro.serving.behavior_card import DEFAULT_THRESHOLD, approves

PSI_WATCH = 0.1
PSI_DRIFT = 0.25


def population_stability_index(
    expected: np.ndarray,
    actual: np.ndarray,
    n_bins: int = 10,
    epsilon: float = 1e-4,
) -> float:
    """PSI between a reference (``expected``) and a live (``actual``) sample.

    Bins are the deciles of the reference distribution; empty shares are
    floored at ``epsilon`` so the logarithm stays finite.  Tied reference
    scores collapse quantile edges onto each other, so duplicate edges are
    merged (fewer, wider bins) rather than kept as zero-width bins, and the
    floored shares are renormalized so both stay probability distributions
    — guaranteeing ``PSI(x, x) == 0`` exactly, even for constant ``x``.
    """
    expected = np.asarray(expected, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if expected.size < n_bins or actual.size == 0:
        raise ServingError(
            f"PSI needs at least n_bins={n_bins} reference points and 1 live point"
        )
    edges = np.unique(np.quantile(expected, np.linspace(0, 1, n_bins + 1)[1:-1]))
    n_effective = edges.size + 1
    expected_counts = np.bincount(np.digitize(expected, edges), minlength=n_effective)
    actual_counts = np.bincount(np.digitize(actual, edges), minlength=n_effective)
    expected_share = np.maximum(expected_counts / expected.size, epsilon)
    actual_share = np.maximum(actual_counts / actual.size, epsilon)
    expected_share = expected_share / expected_share.sum()
    actual_share = actual_share / actual_share.sum()
    return float(((actual_share - expected_share) * np.log(actual_share / expected_share)).sum())


class DriftMonitor:
    """Rolling-window PSI monitor over live model scores."""

    def __init__(
        self,
        reference_scores,
        window: int = 500,
        n_bins: int = 10,
        obs: Observability | None = None,
    ):
        reference = np.asarray(reference_scores, dtype=np.float64)
        if reference.size < n_bins:
            raise ServingError(f"need at least {n_bins} reference scores")
        if window <= 0:
            raise ServingError("window must be positive")
        self.reference = reference
        self.n_bins = n_bins
        self._window: deque[float] = deque(maxlen=window)
        self.obs = obs or get_observability()
        self._m_observations = self.obs.metrics.counter("monitoring.observations")
        self._g_psi = self.obs.metrics.gauge("monitoring.psi")

    def observe(self, score: float) -> None:
        """Record one live score."""
        self._window.append(float(score))
        self._m_observations.inc()

    def observe_many(self, scores) -> None:
        """Record a micro-batch of live scores (oldest first).

        The batched counterpart of :meth:`observe` for engine traffic —
        equivalent to observing each score in order.
        """
        n = 0
        for score in scores:
            self._window.append(float(score))
            n += 1
        self._m_observations.inc(n)

    @property
    def n_observed(self) -> int:
        return len(self._window)

    def psi(self) -> float:
        """PSI of the current window against the reference."""
        if not self._window:
            raise ServingError("no live scores observed yet")
        value = population_stability_index(
            self.reference, np.asarray(self._window), n_bins=self.n_bins
        )
        self._g_psi.set(value)
        return value

    def status(self) -> str:
        """``stable`` / ``watch`` / ``drift`` by conventional thresholds."""
        value = self.psi()
        if value < PSI_WATCH:
            status = "stable"
        elif value < PSI_DRIFT:
            status = "watch"
        else:
            status = "drift"
        self.obs.event("monitoring.drift", psi=value, status=status,
                       n_observed=self.n_observed)
        return status


@dataclass(frozen=True)
class ShadowRecord:
    """One request scored by both models; a label is 1 for a served decline."""

    prompt: str
    primary_score: float
    shadow_score: float

    @property
    def primary_label(self) -> int:
        return int(not approves(self.primary_score, DEFAULT_THRESHOLD))

    @property
    def shadow_label(self) -> int:
        return int(not approves(self.shadow_score, DEFAULT_THRESHOLD))


class ShadowDeployment:
    """Score live traffic with a candidate model alongside production.

    Only the primary's score is returned to callers; the shadow's output
    is recorded for offline comparison.  :meth:`score` asks ``primary``
    first; a caller that serves production itself (the online pipeline
    serves through its cluster) passes ``primary=None`` and hands each
    served score to :meth:`compare` instead.  The shadow is strictly
    best-effort: a shadow exception is counted (``monitoring.shadow_errors``)
    and the primary score is served as if the shadow did not exist.

    Comparison records are kept in a count-bounded window (``window`` most
    recent paired scores) so a long-lived deployment cannot grow without
    bound; agreement/disagreement statistics are exact over that window,
    while ``n_requests`` / ``n_shadow_errors`` count all traffic ever seen.
    """

    def __init__(self, primary, shadow, window: int = 1000,
                 obs: Observability | None = None):
        if window <= 0:
            raise ServingError("window must be positive")
        self.primary = primary
        self.shadow = shadow
        self.window = window
        self._records: deque[ShadowRecord] = deque(maxlen=window)
        self._total_requests = 0
        self._total_errors = 0
        self.obs = obs or get_observability()
        self._m_requests = self.obs.metrics.counter("monitoring.shadow_requests")
        self._m_disagreements = self.obs.metrics.counter("monitoring.shadow_disagreements")
        self._m_errors = self.obs.metrics.counter("monitoring.shadow_errors")

    def score(self, prompt: str) -> float:
        """Score ``prompt`` on the primary, then compare the shadow on it."""
        return self.compare(prompt, float(self.primary.score(prompt, DECLINE_ANSWER, APPROVE_ANSWER)))

    def compare(self, prompt: str, primary_score: float) -> float:
        """Score ``prompt`` on the shadow against a served ``primary_score``; returns the latter."""
        self._total_requests += 1
        self._m_requests.inc()
        try:
            shadow_score = float(self.shadow.score(prompt, DECLINE_ANSWER, APPROVE_ANSWER))
        except Exception as error:
            # A shadow must never take down live scoring: count the failure
            # and serve the production answer.  No record is kept — window
            # statistics only cover requests both models actually scored.
            self._total_errors += 1
            self._m_errors.inc()
            self.obs.event("monitoring.shadow_error", error=repr(error))
            return primary_score
        record = ShadowRecord(prompt, primary_score, shadow_score)
        self._records.append(record)
        self._m_disagreements.inc(int(record.primary_label != record.shadow_label))
        return primary_score

    @property
    def n_requests(self) -> int:
        """Total requests ever scored (window evictions included)."""
        return self._total_requests

    @property
    def n_window(self) -> int:
        """Paired comparison records currently in the window."""
        return len(self._records)

    @property
    def n_shadow_errors(self) -> int:
        """Total shadow-side failures swallowed so far."""
        return self._total_errors

    def records(self) -> list[ShadowRecord]:
        return list(self._records)

    def agreement_rate(self) -> float:
        """Share of windowed requests where both models decide the same label."""
        if not self._records:
            raise ServingError("no shadow traffic recorded yet")
        same = sum(1 for r in self._records if r.primary_label == r.shadow_label)
        return same / len(self._records)

    def score_correlation(self) -> float:
        """Pearson correlation of the two models' windowed scores.

        Returns ``nan`` when either stream has zero variance — Pearson is
        undefined there, and ``0.0`` would read as "uncorrelated" to a
        promotion gate.  Callers must handle the degenerate case explicitly.
        """
        if len(self._records) < 2:
            raise ServingError("need at least two requests for a correlation")
        primary = np.array([r.primary_score for r in self._records])
        shadow = np.array([r.shadow_score for r in self._records])
        # ptp == 0 is the exact constant-stream test; std() of a constant
        # array can come out as ~1e-17 and slip past an == 0 guard.
        if np.ptp(primary) == 0 or np.ptp(shadow) == 0:
            return float("nan")
        return float(np.corrcoef(primary, shadow)[0, 1])

    def disagreements(self) -> list[ShadowRecord]:
        """Windowed requests where the two models decide differently."""
        return [r for r in self._records if r.primary_label != r.shadow_label]
