"""Optimizer, schedule and clipping tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn.module import Parameter
from repro.optim import (
    AdamW,
    ConstantLR,
    CosineDecayLR,
    clip_grad_norm,
    global_grad_norm,
)


def quadratic_params(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(0, 2, size=(n,)).astype(np.float32))]


def quadratic_step(params):
    """Set grads for f(w) = 0.5 * ||w||^2 and return the loss."""
    loss = 0.0
    for p in params:
        p.grad = p.data.copy()
        loss += 0.5 * float((p.data**2).sum())
    return loss


class TestOptimizers:
    def test_adamw_converges_on_quadratic(self):
        params = quadratic_params()
        opt = AdamW(params, lr=0.1)
        for _ in range(200):
            quadratic_step(params)
            opt.step()
        assert quadratic_step(params) < 1e-3

    def test_no_weight_decay_leaves_zero_grad_params(self):
        p = Parameter(np.full(3, 10.0, dtype=np.float32))
        opt = AdamW([p], lr=0.01)
        p.grad = np.zeros(3, dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, np.full(3, 10.0))

    def test_frozen_params_excluded(self):
        frozen = Parameter(np.ones(2, dtype=np.float32), requires_grad=False)
        live = Parameter(np.ones(2, dtype=np.float32))
        opt = AdamW([frozen, live], lr=0.1)
        assert opt.params == [live]

    def test_no_trainable_params_raises(self):
        frozen = Parameter(np.ones(2, dtype=np.float32), requires_grad=False)
        with pytest.raises(ConfigError):
            AdamW([frozen], lr=0.1)

    def test_invalid_lr_raises(self):
        with pytest.raises(ConfigError):
            AdamW(quadratic_params(), lr=0.0)

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        opt = AdamW([p], lr=0.1)
        opt.step()  # no grad set; must not crash or move weights
        np.testing.assert_allclose(p.data, np.ones(2))

    def test_zero_grad(self):
        params = quadratic_params()
        opt = AdamW(params, lr=0.1)
        quadratic_step(params)
        opt.zero_grad()
        assert all(p.grad is None for p in params)


class TestSchedules:
    def test_constant(self):
        sched = ConstantLR(0.01)
        assert sched.lr_at(0) == sched.lr_at(1000) == 0.01

    def test_cosine_decays_to_min(self):
        sched = CosineDecayLR(1.0, total_steps=100, min_lr=0.1)
        assert sched.lr_at(0) == pytest.approx(1.0)
        assert sched.lr_at(50) == pytest.approx(0.55, abs=1e-6)
        assert sched.lr_at(100) == pytest.approx(0.1)
        assert sched.lr_at(500) == pytest.approx(0.1)  # clamps after total

    def test_cosine_warmup_ramps(self):
        sched = CosineDecayLR(1.0, total_steps=100, warmup_steps=10)
        assert sched.lr_at(0) == pytest.approx(0.1)
        assert sched.lr_at(9) == pytest.approx(1.0)
        assert sched.lr_at(10) <= 1.0

    def test_cosine_monotone_after_warmup(self):
        sched = CosineDecayLR(1.0, total_steps=50, warmup_steps=5)
        values = [sched.lr_at(s) for s in range(5, 51)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_lr": 0.0, "total_steps": 10},
            {"base_lr": 1.0, "total_steps": 0},
            {"base_lr": 1.0, "total_steps": 10, "warmup_steps": 10},
            {"base_lr": 1.0, "total_steps": 10, "min_lr": 2.0},
        ],
    )
    def test_cosine_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            CosineDecayLR(**kwargs)

    def test_callable_interface(self):
        sched = ConstantLR(0.5)
        assert sched(3) == 0.5


class TestClipping:
    def test_norm_computation(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        assert global_grad_norm([p]) == pytest.approx(5.0)

    def test_clip_scales_down(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([3.0, 4.0], dtype=np.float32)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert global_grad_norm([p]) == pytest.approx(1.0, rel=1e-5)

    def test_clip_noop_when_under(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([0.3, 0.4], dtype=np.float32)
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_missing_grads_count_zero(self):
        p1 = Parameter(np.zeros(2, dtype=np.float32))
        p2 = Parameter(np.zeros(2, dtype=np.float32))
        p2.grad = np.array([0.0, 2.0], dtype=np.float32)
        assert global_grad_norm([p1, p2]) == pytest.approx(2.0)
