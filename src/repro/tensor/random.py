"""Seeded randomness and weight initializers.

Every stochastic component in the library takes an explicit seed or
``numpy.random.Generator`` so that experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Initializer = Callable[[tuple[int, ...], np.random.Generator], np.ndarray]


def default_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed (idempotent)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def uniform_init(scale: float) -> Initializer:
    """Uniform initializer on ``[-scale, scale]``."""

    def init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-scale, scale, size=shape).astype(np.float32)

    return init


def kaiming_init(fan_in: int) -> Initializer:
    """He-style uniform initializer scaled by ``1/sqrt(fan_in)``."""
    return uniform_init(1.0 / np.sqrt(max(fan_in, 1)))
