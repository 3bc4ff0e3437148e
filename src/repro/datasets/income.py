"""Synthetic phone-attribute income data (the paper's generative task).

Section 3.2: "details like mobile phone brand, model, price, and
purchase year are utilized to predict the user's income through
regression-based models."  We produce a three-bracket income target
(low / medium / high) suited to generative QA evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataError

_BRANDS = ("apex", "nova", "orbit", "pulse", "zenith", "mono")
_TIERS = ("entry", "mid", "flagship")
_EDUCATION = ("primary", "secondary", "college", "postgraduate")
INCOME_BRACKETS = ("low", "medium", "high")


@dataclass
class IncomeDataset:
    """Phone/customer attributes with an income-bracket target."""

    brand: np.ndarray
    tier: np.ndarray
    price: np.ndarray
    purchase_year: np.ndarray
    age: np.ndarray
    education: np.ndarray
    income: np.ndarray  # continuous, for regression baselines
    bracket: np.ndarray  # 0/1/2 for low/medium/high

    def __post_init__(self):
        n = self.brand.shape[0]
        for field in ("tier", "price", "purchase_year", "age", "education", "income", "bracket"):
            if getattr(self, field).shape[0] != n:
                raise DataError(f"field {field} length mismatch")

    def __len__(self) -> int:
        return self.brand.shape[0]

    def row_text(self, index: int) -> str:
        price_bin = "budget" if self.price[index] < 250 else ("mid" if self.price[index] < 700 else "premium")
        return (
            f"brand={_BRANDS[int(self.brand[index])]} "
            f"tier={_TIERS[int(self.tier[index])]} "
            f"price={price_bin} "
            f"purchase_year={int(self.purchase_year[index])} "
            f"age_group={'young' if self.age[index] < 30 else ('middle' if self.age[index] < 50 else 'senior')} "
            f"education={_EDUCATION[int(self.education[index])]}"
        )

    def bracket_text(self, index: int) -> str:
        return INCOME_BRACKETS[int(self.bracket[index])]


def make_income(n: int = 900, seed: int = 6) -> IncomeDataset:
    """Generate the synthetic income-prediction dataset."""
    rng = np.random.default_rng(seed)
    brand = rng.integers(0, len(_BRANDS), n)
    tier = rng.integers(0, len(_TIERS), n)
    price = np.clip(
        120 + 320 * tier + rng.normal(0, 120, n) + 40 * (brand == 4), 60, 1800
    )
    purchase_year = rng.integers(2019, 2026, n)
    age = np.clip(rng.normal(37, 12, n), 18, 70)
    education = rng.integers(0, len(_EDUCATION), n)

    log_income = (
        9.6
        + 0.0009 * price
        + 0.22 * education
        + 0.012 * (age - 18)
        + 0.05 * (purchase_year - 2019)
        + rng.normal(0.0, 0.25, n)
    )
    income = np.exp(log_income)
    cuts = np.quantile(income, [1 / 3, 2 / 3])
    bracket = np.digitize(income, cuts)

    return IncomeDataset(
        brand=brand.astype(np.float64),
        tier=tier.astype(np.float64),
        price=price,
        purchase_year=purchase_year.astype(np.float64),
        age=age,
        education=education.astype(np.float64),
        income=income,
        bracket=bracket.astype(np.int64),
    )
