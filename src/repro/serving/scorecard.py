"""Industry credit-score scaling (points-to-double-odds).

Credit operations communicate risk as *score points*, not raw
probabilities.  The standard mapping is log-odds scaling:

    score = offset + factor * ln(odds of good)
    factor = PDO / ln(2)
    offset = base_score - factor * ln(base_odds)

so that ``base_score`` corresponds to ``base_odds`` (good:bad) and every
``PDO`` points the odds double.  Defaults anchor 660 points at 50:1
odds with PDO 40, which spreads typical default probabilities across
the familiar 300-850 band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ServingError


@dataclass(frozen=True)
class ScorecardScaler:
    """Maps P(default) to scorecard points and back."""

    base_score: float = 660.0
    base_odds: float = 50.0
    pdo: float = 40.0
    min_score: float = 300.0
    max_score: float = 850.0

    def __post_init__(self):
        if self.pdo <= 0 or self.base_odds <= 0:
            raise ServingError("pdo and base_odds must be positive")
        if self.min_score >= self.max_score:
            raise ServingError("min_score must be below max_score")

    @property
    def factor(self) -> float:
        return self.pdo / math.log(2.0)

    @property
    def offset(self) -> float:
        return self.base_score - self.factor * math.log(self.base_odds)

    def score(self, p_default: float) -> float:
        """Scorecard points for a default probability (clamped to range)."""
        if not 0.0 <= p_default <= 1.0:
            raise ServingError(f"p_default must be in [0, 1], got {p_default}")
        eps = 1e-9
        p = min(max(p_default, eps), 1.0 - eps)
        odds_good = (1.0 - p) / p
        raw = self.offset + self.factor * math.log(odds_good)
        return float(min(max(raw, self.min_score), self.max_score))

    def band(self, p_default: float) -> str:
        """Coarse risk band used in lending UIs."""
        points = self.score(p_default)
        if points >= 740:
            return "excellent"
        if points >= 670:
            return "good"
        if points >= 580:
            return "fair"
        return "poor"
