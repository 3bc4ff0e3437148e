"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import stats
from inputs import applicants, refresh_pool
from spans import TARGETS, Tracer


def test_same_seed_gives_same_requests():
    first = applicants(7, "measure-light", 64, (1, 8))
    again = applicants(7, "measure-light", 64, (1, 8))
    assert first == again
    assert first != applicants(8, "measure-light", 64, (1, 8))
    assert first != applicants(7, "measure-saturated", 64, (1, 8))
    assert {a.depth for a in first} <= set(range(1, 9))
    assert len({a.user_id for a in first}) == 64


def test_same_seed_gives_same_refresh_pool():
    train, val = refresh_pool(3, 4, 4)
    train2, val2 = refresh_pool(3, 4, 4)
    assert [e.prompt for e in train] == [e.prompt for e in train2]
    assert [e.prompt for e in val] == [e.prompt for e in val2]
    assert (len(train), len(val)) == (28, 4)


@pytest.mark.parametrize(
    ("n", "q", "ok"),
    [(100, 90.0, True), (99, 90.0, False), (1000, 99.0, True), (999, 99.0, False), (200, 95.0, True), (199, 95.0, False)],
)
def test_tail_needs_ten_samples_beyond(n, q, ok):
    values = list(range(n))
    if ok:
        assert stats.tail(values, q) == pytest.approx(np.percentile(values, q))
    else:
        with pytest.raises(ValueError, match="at least 10"):
            stats.tail(values, q)


def test_rounds_are_scaled_to_reference_speed():
    # A round run at half speed (scale 0.5) took twice its reference time.
    times, scales = [1.0, 2.0, 1.0], [1.0, 0.5, 1.0]
    assert stats.scaled(times, scales) == [1.0, 1.0, 1.0]
    assert stats.scaled([1 / t for t in times], scales, higher_is_better=True) == [1.0, 1.0, 1.0]
    metric = stats.over_rounds([1.0, 2.0, 3.0], [1.0, 0.5, 1.0], "s", 3)
    assert metric.value == 1.0 and metric.rounds == (1.0, 1.0, 3.0)


def test_clock_counts_only_this_threads_cpu_time():
    started = stats.clock()
    time.sleep(0.05)  # descheduled: not CPU time
    assert stats.clock() - started < 0.01


def test_host_speed_runs_the_work_between_kernel_passes():
    speed = stats.HostSpeed()
    result, (start, end) = speed.run(lambda: "done")
    assert result == "done" and start <= end
    assert len(speed.passes) == 2
    assert 0.0 < speed.scale((start, end)) < 10.0


def test_host_speed_scales_by_the_passes_near_the_work():
    ref, w = stats.REFERENCE_S, stats.WINDOW_S
    speed = stats.HostSpeed()
    # Full speed early on, half speed from t = 10 s.
    speed.passes = [(0.0, ref), (0.1, ref), (10.0, 2 * ref), (10.3, 2 * ref)]
    assert speed.scale((0.0, 0.1)) == pytest.approx(1.0)
    assert speed.scale((10.0, 10.3)) == pytest.approx(0.5**stats.SPEED_EXPONENT)
    assert speed.scales([(10.0, 10.3)], exponent=1.0) == [pytest.approx(0.5)]
    # Passes within the window count, those beyond it do not.
    assert speed.scale((10.3 + w - 0.01, 11.0)) == pytest.approx(0.5**stats.SPEED_EXPONENT)
    mixed = speed.scales([(0.1 + w - 0.01, 10.0 - w + 0.01)])
    assert mixed == [pytest.approx(1.0 / 1.5**stats.SPEED_EXPONENT)]


def test_batch_gaps_split_completions_into_batches():
    # Two batches of 2 then one of 3; completions within a batch are adjacent.
    done = [0.10, 0.11, 0.30, 0.31, 0.60, 0.61, 0.62]
    sizes = [2, 2, 2, 2, 3, 3, 3]
    assert stats.batch_gaps(done, sizes) == pytest.approx([0.20, 0.31])


def _owners():
    import importlib

    for target in TARGETS:
        module = importlib.import_module(target.module)
        yield (getattr(module, target.owner) if target.owner else module), target.attr


def test_every_wrapper_is_restored_after_a_traced_run():
    from repro.nn import MistralTiny, ModelConfig

    before = [(owner, attr, vars(owner).get(attr), attr in vars(owner)) for owner, attr in _owners()]
    model = MistralTiny(
        ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, n_kv_heads=1, d_ff=32, max_seq_len=16),
        rng=0,
    )
    tracer = Tracer()
    with tracer:
        assert all(getattr(getattr(o, a), "__perfbench_wrapper__", False) for o, a in _owners())
        model.forward(np.arange(6)[None, :])  # not recording: no span
        tracer.recording = True
        model.forward(np.arange(6)[None, :])
    assert tracer.leftovers() == []
    for owner, attr, original, own in before:
        assert (attr in vars(owner)) == own, f"{owner}.{attr}"
        if own:
            assert vars(owner)[attr] is original, f"{owner}.{attr}"
    assert [s[0] for s in tracer.spans] == ["nn.forward"]
    assert tracer.spans[0][5]["kind"] == "prefill" and tracer.spans[0][5]["flops"] > 0


def test_self_time_subtracts_child_spans():
    tracer = Tracer(targets=())
    # [name, start, end, parent, request, attrs]
    tracer.spans = [
        ["engine.pump", 0.0, 10.0, None, None, {"result": 2}],
        ["cluster.score", 1.0, 7.0, 0, None, None],
        ["nn.forward", 2.0, 6.0, 1, None, {"kind": "prefill", "flops": 8e9}],
    ]
    self_s = tracer.self_times()
    assert self_s["engine"] == pytest.approx(4.0)
    assert self_s["cluster"] == pytest.approx(2.0)
    assert self_s["nn"] == pytest.approx(4.0)
    metrics = tracer.metrics(overhead_pct=1.5)
    assert metrics["engine.pump_overhead_ms"][0] == pytest.approx(4000.0)
    assert metrics["nn.forward_gflops"][0] == pytest.approx(2.0)
    assert metrics["trace.overhead_pct"] == (1.5, "%")


def test_counts_repeat_exactly_for_the_same_seed(tmp_path):
    from workloads import DecideMicrobatch

    class Small(DecideMicrobatch):
        LIGHT_ROUND = 8
        SATURATED_ROUND = 32
        WARMUP = (8, 32)
        DEPLOYS_PER_ROUND = 1
        MIN_ROUNDS = 2

    counts = []
    for _ in range(2):
        workload = Small(seed=5, seconds=0, work_dir=tmp_path)
        workload.setup()
        run = workload.measure("measure")
        assert workload.check(run) == []
        counts.append(workload.counts(run))
        workload.close()
    assert counts[0] == counts[1]
    assert counts[0]["light.batches"] == 2 * 8 // 2
