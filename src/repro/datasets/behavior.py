"""Sequential user-behavior data — the substrate TracSeq was designed for.

The paper's proprietary data is per-user monthly behavior (spending,
repayments, events) whose *recent* windows carry most of the signal
about loan default.  This generator reproduces that structure:

* each user has a latent risk trajectory following an AR(1) process;
* per-period observable features (spend volatility, repayment ratio,
  late payments, cash advances, login frequency) are noisy readouts of
  the latent risk at that period;
* the default label at the horizon depends on the risk trajectory with
  geometrically decaying weights into the past (``signal_decay``).

Consequently, training samples built from *recent* periods are cleanly
labeled and samples from *old* periods are effectively label-noisy —
exactly the regime where TracSeq's time-decayed influence beats plain
TracInCP, and where Figure 2's high-vs-low-influence gap emerges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError

_BIN_LABELS = ("verylow", "low", "medium", "high", "veryhigh")

FEATURE_NAMES = ("spend_volatility", "repay_ratio", "late_payments", "cash_advance", "login_freq")


@dataclass
class BehaviorDataset:
    """Per-user, per-period behavior features with a default label.

    Attributes
    ----------
    features:
        Array of shape ``(n_users, n_periods, n_features)``.
    risk:
        Latent risk trajectory ``(n_users, n_periods)`` (for diagnostics).
    y:
        Default label at the horizon, per user.
    """

    features: np.ndarray
    risk: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self):
        if self.features.ndim != 3:
            raise DataError(f"features must be 3-D, got {self.features.shape}")
        if self.features.shape[2] != len(self.feature_names):
            raise DataError("feature name count does not match feature dimension")
        if self.features.shape[:2] != self.risk.shape:
            raise DataError("risk shape must match (n_users, n_periods)")
        if self.features.shape[0] != self.y.shape[0]:
            raise DataError("y length must match n_users")
        self._fit_bins()

    def _fit_bins(self) -> None:
        flat = self.features.reshape(-1, self.features.shape[2])
        qs = np.linspace(0, 1, 6)[1:-1]
        self._edges = np.quantile(flat, qs, axis=0)  # (4, n_features)

    @property
    def n_users(self) -> int:
        return self.features.shape[0]

    @property
    def n_periods(self) -> int:
        return self.features.shape[1]

    def row_text(self, user: int, period: int) -> str:
        """Verbalize one user-period as ``name=bin`` tokens plus the period."""
        parts = [f"period={period}"]
        for j, name in enumerate(self.feature_names):
            value = self.features[user, period, j]
            bin_index = int(np.searchsorted(self._edges[:, j], value, side="right"))
            parts.append(f"{name}={_BIN_LABELS[bin_index]}")
        return " ".join(parts)

    def supervised_rows(self) -> list[tuple[str, int, int, int]]:
        """Flatten to ``(text, label, timestamp, user)`` rows.

        One training sample per user-period; the timestamp is the period
        index, which TracSeq's sample-time decay consumes directly.
        """
        rows = []
        for user in range(self.n_users):
            for period in range(self.n_periods):
                rows.append(
                    (self.row_text(user, period), int(self.y[user]), period, user)
                )
        return rows


def make_behavior(
    n_users: int = 300,
    n_periods: int = 8,
    seed: int = 5,
    default_rate: float = 0.25,
    signal_decay: float = 0.55,
    ar_coefficient: float = 0.75,
) -> BehaviorDataset:
    """Generate sequential behavior data.

    ``signal_decay`` is the geometric weight of past periods in the
    label: the smaller it is, the more the label depends on recent
    behavior only (and the bigger TracSeq's advantage).
    """
    if not 0.0 < signal_decay < 1.0:
        raise DataError(f"signal_decay must be in (0, 1), got {signal_decay}")
    if not 0.0 <= ar_coefficient < 1.0:
        raise DataError(f"ar_coefficient must be in [0, 1), got {ar_coefficient}")
    rng = np.random.default_rng(seed)

    risk = np.zeros((n_users, n_periods))
    risk[:, 0] = rng.normal(0.0, 1.0, n_users)
    for t in range(1, n_periods):
        drift = rng.normal(0.0, 0.35, n_users)
        risk[:, t] = ar_coefficient * risk[:, t - 1] + drift

    # Observable features: noisy readouts of per-period risk.
    noise = rng.normal(0.0, 0.5, size=(n_users, n_periods, len(FEATURE_NAMES)))
    loadings = np.array([0.9, -0.8, 1.0, 0.7, -0.5])  # repay/logins fall with risk
    base = np.array([1.0, 3.0, 0.5, 0.8, 2.5])
    features = base[None, None, :] + risk[:, :, None] * loadings[None, None, :] + noise

    # Label: geometrically recency-weighted risk exposure.
    weights = signal_decay ** np.arange(n_periods - 1, -1, -1)
    weights = weights / weights.sum()
    exposure = (risk * weights[None, :]).sum(axis=1) + rng.normal(0.0, 0.25, n_users)
    threshold = np.quantile(exposure, 1.0 - default_rate)
    y = (exposure > threshold).astype(np.int64)

    return BehaviorDataset(features=features, risk=risk, y=y)
