"""Tests for PSI drift monitoring and shadow deployments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    DriftMonitor,
    ShadowDeployment,
    population_stability_index,
)


class TestPSI:
    def test_identical_distributions_near_zero(self):
        rng = np.random.default_rng(0)
        ref = rng.random(2000)
        live = rng.random(2000)
        assert population_stability_index(ref, live) < 0.02

    def test_shifted_distribution_large(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(0.3, 0.05, 2000).clip(0, 1)
        live = rng.normal(0.7, 0.05, 2000).clip(0, 1)
        assert population_stability_index(ref, live) > 0.25

    def test_symmetric_in_magnitude(self):
        """PSI(a, b) and PSI(b, a) are both large for a real shift."""
        rng = np.random.default_rng(1)
        a = rng.normal(0.3, 0.1, 1000).clip(0, 1)
        b = rng.normal(0.6, 0.1, 1000).clip(0, 1)
        assert population_stability_index(a, b) > 0.1
        assert population_stability_index(b, a) > 0.1

    def test_too_few_points_raise(self):
        with pytest.raises(ServingError):
            population_stability_index(np.ones(3), np.ones(5))
        with pytest.raises(ServingError):
            population_stability_index(np.linspace(0, 1, 50), np.array([]))

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            ref = rng.random(200)
            live = rng.random(50)
            assert population_stability_index(ref, live) >= 0.0


class TestDriftMonitor:
    def _reference(self, seed=0, n=500):
        return np.random.default_rng(seed).beta(2, 5, n)

    def test_stable_when_same_distribution(self):
        monitor = DriftMonitor(self._reference(), window=300)
        monitor.observe_many(np.random.default_rng(1).beta(2, 5, 300))
        assert monitor.status() == "stable"

    def test_drift_detected_on_shift(self):
        monitor = DriftMonitor(self._reference(), window=300)
        monitor.observe_many(np.random.default_rng(1).beta(5, 2, 300))  # flipped shape
        assert monitor.status() == "drift"
        assert monitor.psi() > 0.25

    def test_window_rolls(self):
        monitor = DriftMonitor(self._reference(), window=10)
        monitor.observe_many(np.linspace(0, 1, 25))
        assert monitor.n_observed == 10

    def test_psi_before_observations_raises(self):
        monitor = DriftMonitor(self._reference())
        with pytest.raises(ServingError):
            monitor.psi()

    def test_validation(self):
        with pytest.raises(ServingError):
            DriftMonitor(np.ones(3))
        with pytest.raises(ServingError):
            DriftMonitor(self._reference(), window=0)


def _stub(offset):
    """A scorer: P(default) from the text's length, shifted by ``offset``."""
    return lambda text: min(1.0, (len(text) % 10) / 10.0 + offset)


def _serve(shadow, primary, text):
    """Serve ``text`` on ``primary``, then compare the shadow against it."""
    return shadow.compare(text, primary(text))


class TestShadowDeployment:
    def test_returns_primary_score(self):
        shadow = ShadowDeployment(_stub(0.5))
        value = _serve(shadow, _stub(0.0), "abcd")
        assert value == pytest.approx(0.4)
        assert shadow.n_requests == 1

    def test_agreement_rate(self):
        shadow = ShadowDeployment(_stub(0.0))
        for i in range(10):
            _serve(shadow, _stub(0.0), "x" * i)
        assert shadow.agreement_rate() == 1.0
        assert shadow.disagreements() == []

    def test_disagreements_found(self):
        # Primary low, shadow shifted above the 0.5 decision line.
        shadow = ShadowDeployment(_stub(0.6))
        _serve(shadow, _stub(0.0), "ab")  # primary 0.2 -> 0 ; shadow 0.8 -> 1
        assert shadow.agreement_rate() == 0.0
        assert len(shadow.disagreements()) == 1

    def test_correlation_of_identical_models(self):
        shadow = ShadowDeployment(_stub(0.0))
        for i in range(12):
            _serve(shadow, _stub(0.0), "y" * i)
        assert shadow.score_correlation() == pytest.approx(1.0)

    def test_errors_without_traffic(self):
        shadow = ShadowDeployment(_stub(0.0))
        with pytest.raises(ServingError):
            shadow.agreement_rate()
        with pytest.raises(ServingError):
            shadow.score_correlation()

    def test_records_are_copies(self):
        shadow = ShadowDeployment(_stub(0.0))
        _serve(shadow, _stub(0.0), "abc")
        shadow.records().clear()
        assert shadow.n_requests == 1


# ----------------------------------------------------------------------
# Regression: tied / constant reference distributions (PSI)
# ----------------------------------------------------------------------


class TestPSITiedReferences:
    def test_identical_inputs_give_exactly_zero(self):
        """Flooring used to add unnormalized phantom mass: PSI(x, x) > 0."""
        rng = np.random.default_rng(0)
        cases = [
            rng.random(200),
            np.concatenate([np.full(120, 0.5), rng.random(80)]),  # heavy ties
            np.full(100, 0.37),  # constant
            np.repeat([0.1, 0.5, 0.9], 40),  # 3 distinct values, 10 bins
        ]
        for x in cases:
            assert population_stability_index(x, x) == 0.0

    def test_tied_reference_duplicate_edges_deduped(self):
        """A reference with few distinct values must not produce degenerate
        zero-width bins; PSI stays finite and order-of-magnitude sane."""
        ref = np.repeat([0.2, 0.5, 0.8], 50)
        live = np.repeat([0.2, 0.5, 0.8], 10)
        assert population_stability_index(ref, live) == 0.0
        shifted = np.full(30, 0.8)
        value = population_stability_index(ref, shifted)
        assert np.isfinite(value)
        assert value > 0.25  # all mass in one of three bins: real drift

    def test_constant_reference_pinned(self):
        """Pinned behavior on a constant reference: identical constant live
        scores are stable; live mass below the constant is loud drift."""
        ref = np.full(100, 0.5)
        assert population_stability_index(ref, np.full(20, 0.5)) == 0.0
        below = population_stability_index(ref, np.full(20, 0.1))
        assert below > 1.0
        assert np.isfinite(below)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        ref = np.concatenate([np.full(80, 0.4), rng.random(120)])
        live = rng.permutation(ref)
        assert population_stability_index(ref, live) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# Regression: shadow failures must never fail the production request
# ----------------------------------------------------------------------


class _ExplodingStub:
    def __init__(self, fail_times=None):
        self.calls = 0
        self.fail_times = fail_times

    def __call__(self, text):
        self.calls += 1
        if self.fail_times is None or self.calls <= self.fail_times:
            raise RuntimeError("shadow model OOM")
        return 0.9


class TestShadowErrorContainment:
    def test_shadow_exception_serves_primary(self):
        shadow = ShadowDeployment(_ExplodingStub())
        assert _serve(shadow, _stub(0.0), "abcd") == pytest.approx(0.4)
        assert shadow.n_requests == 1
        assert shadow.n_shadow_errors == 1
        assert shadow.n_window == 0  # no half-scored comparison record

    def test_errors_counted_in_metrics(self):
        from repro.obs import Observability

        obs = Observability.create()
        shadow = ShadowDeployment(_ExplodingStub(), obs=obs)
        for i in range(5):
            _serve(shadow, _stub(0.0), "x" * i)
        assert obs.metrics.counter("monitoring.shadow_errors").value == 5
        assert obs.metrics.counter("monitoring.shadow_requests").value == 5

    def test_recovery_resumes_recording(self):
        shadow = ShadowDeployment(_ExplodingStub(fail_times=3))
        for i in range(6):
            _serve(shadow, _stub(0.4), "z" * i)
        assert shadow.n_shadow_errors == 3
        assert shadow.n_window == 3
        assert shadow.n_requests == 6

    def test_primary_exception_still_propagates(self):
        """Only the shadow is best-effort; a broken primary is a real outage."""
        shadow = ShadowDeployment(_stub(0.0))
        with pytest.raises(RuntimeError):
            _serve(shadow, _ExplodingStub(), "abc")
        assert shadow.n_requests == 0  # nothing served, nothing compared


# ----------------------------------------------------------------------
# Regression: bounded comparison window + nan correlation
# ----------------------------------------------------------------------


class TestShadowWindow:
    def test_records_bounded_by_window(self):
        shadow = ShadowDeployment(_stub(0.0), window=5)
        for i in range(12):
            _serve(shadow, _stub(0.0), "w" * i)
        assert shadow.n_window == 5
        assert len(shadow.records()) == 5
        assert shadow.n_requests == 12  # lifetime counter unaffected

    def test_window_stats_exact_over_window(self):
        """Old disagreements age out: stats cover the window, exactly."""
        primary = _stub(0.0)
        disagreeing = _stub(0.6)
        agreeing = _stub(0.0)
        shadow = ShadowDeployment(disagreeing, window=4)
        for i in range(1, 5):
            _serve(shadow, primary, "a" * i)  # all four disagree
        assert shadow.agreement_rate() == 0.0
        shadow.shadow = agreeing
        for i in range(1, 5):
            _serve(shadow, primary, "a" * i)  # four agreements push the others out
        assert shadow.agreement_rate() == 1.0
        assert shadow.disagreements() == []

    def test_window_must_be_positive(self):
        with pytest.raises(ServingError):
            ShadowDeployment(_stub(0.0), window=0)

    def test_zero_variance_correlation_is_nan(self):
        """0.0 used to read as "uncorrelated" to promotion gates; undefined
        correlation must be explicit.  Includes the length-20 constant
        stream whose std() is ~1e-17 rather than exactly zero."""

        def const(text):
            return 0.4

        for n in (2, 5, 20):
            shadow = ShadowDeployment(const, window=64)
            for i in range(n):
                _serve(shadow, const, "c" * (i + 1))
            assert np.isnan(shadow.score_correlation())

    def test_one_sided_zero_variance_is_nan(self):
        def const(text):
            return 0.4

        shadow = ShadowDeployment(const, window=64)
        for i in range(8):
            _serve(shadow, _stub(0.0), "v" * i)
        assert np.isnan(shadow.score_correlation())
