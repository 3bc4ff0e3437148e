"""Continuous batching scheduler: parity, admission policy, streaming.

The load-bearing guarantee is **arrival-schedule independence**: for any
interleaving of admits and retirements, every row's output equals the
uncached re-forward reference ``generate(..., use_cache=False)`` — the
one decode path that does not run through the scheduler itself.  The
hypothesis property drives random arrival schedules and admission
policies against that invariant, plus the structural ones (streams are
prefixes of final outputs, no row is starved, finalization is
exactly-once), and a never-draining loop keeps its KV width bounded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, ServingError, ShapeError
from repro.nn import (
    AdmissionPolicy,
    ContinuousScheduler,
    GenerationConfig,
    GenerationStream,
    MistralTiny,
    generate_continuous,
)
from repro.nn.cache import LayerKVCache, PrefixCache
from repro.obs import Observability

from conftest import TINY, ragged_prompts, uncached_reference


@pytest.fixture(scope="module")
def model():
    return MistralTiny(TINY, rng=0)


@pytest.fixture(scope="module")
def prompts():
    # The 40-token prompt exceeds the context budget: it is left-truncated
    # and spans more than the sliding window.
    return ragged_prompts(TINY.vocab_size, lengths=(5, 9, 3, 12, 7, 9, 4, 40))


GREEDY = GenerationConfig(max_new_tokens=8)
SAMPLED = GenerationConfig(max_new_tokens=8, temperature=0.8, top_k=5, seed=3)
STOPPING = GenerationConfig(max_new_tokens=6, stop_tokens=(7, 11))


class TestParity:
    @pytest.mark.parametrize("config", [GREEDY, SAMPLED, STOPPING], ids=["greedy", "sampled", "stop"])
    def test_all_at_once_matches_generate_batch(self, model, prompts, config):
        expected = uncached_reference(model, prompts, config)
        got = generate_continuous(model, prompts, config)
        assert got == expected

    @pytest.mark.parametrize("config", [GREEDY, SAMPLED, STOPPING], ids=["greedy", "sampled", "stop"])
    def test_staggered_arrivals_match_sequential(self, model, prompts, config):
        arrivals = [0, 0, 2, 3, 3, 5, 8, 9]
        expected = uncached_reference(model, prompts, config)
        got = generate_continuous(model, prompts, config, arrivals=arrivals)
        assert got == expected

    def test_reverse_arrival_order(self, model, prompts):
        expected = uncached_reference(model, prompts, GREEDY)
        arrivals = list(range(len(prompts)))[::-1]
        got = generate_continuous(model, prompts, GREEDY, arrivals=arrivals)
        assert got == expected

    def test_tight_policy_does_not_change_outputs(self, model, prompts):
        expected = uncached_reference(model, prompts, SAMPLED)
        policy = AdmissionPolicy(max_live_rows=2, max_prefills_per_step=1)
        got = generate_continuous(model, prompts, SAMPLED, policy=policy)
        assert got == expected

    def test_prefix_cache_reuse_preserves_parity(self, model, prompts):
        prompts = list(prompts)
        prompts[5] = prompts[1].copy()  # exact repeat -> full prefix hit
        expected = uncached_reference(model, prompts, GREEDY)
        cache = PrefixCache(16, obs=Observability.disabled())
        got = generate_continuous(
            model,
            prompts,
            GREEDY,
            arrivals=[0, 0, 1, 1, 2, 2, 3, 3],
            policy=AdmissionPolicy(max_live_rows=4, max_prefills_per_step=2),
            prefix_cache=cache,
        )
        assert got == expected
        assert cache.stats.hits >= 1

    def test_single_prompt_matches_generate(self, model, prompts):
        expected = uncached_reference(model, [prompts[0]], STOPPING)
        got = generate_continuous(model, [prompts[0]], STOPPING)
        assert got == expected

    def test_max_new_tokens_one_retires_at_prefill(self, model, prompts):
        config = GenerationConfig(max_new_tokens=1)
        expected = uncached_reference(model, prompts, config)
        got = generate_continuous(model, prompts, config, arrivals=[0, 1, 2, 3, 4, 5, 6, 7])
        assert got == expected
        assert all(len(row) == 1 for row in got)


class TestSchedulerMechanics:
    def test_live_rows_never_exceed_policy(self, model, prompts):
        policy = AdmissionPolicy(max_live_rows=3, max_prefills_per_step=2)
        scheduler = ContinuousScheduler(
            model, GREEDY, policy=policy, obs=Observability.disabled()
        )
        for p in prompts:
            scheduler.submit(p)
        peak = 0
        while scheduler.has_work:
            scheduler.step()
            peak = max(peak, scheduler.live_rows)
        assert peak <= 3

    def test_prefills_per_step_bounds_admission(self, model, prompts):
        policy = AdmissionPolicy(max_live_rows=8, max_prefills_per_step=1)
        scheduler = ContinuousScheduler(
            model, GREEDY, policy=policy, obs=Observability.disabled()
        )
        for p in prompts[:4]:
            scheduler.submit(p)
        scheduler.step()
        assert scheduler.live_rows <= 1
        scheduler.step()
        assert scheduler.live_rows <= 2

    def test_on_token_callback_streams_every_token(self, model, prompts):
        seen: dict[str, list[int]] = {}

        def on_token(stream, token):
            seen.setdefault(stream.request_id, []).append(token)

        scheduler = ContinuousScheduler(model, GREEDY, obs=Observability.disabled())
        streams = [scheduler.submit(p, on_token=on_token) for p in prompts[:4]]
        scheduler.drain()
        for stream in streams:
            assert seen[stream.request_id] == list(stream.tokens)
            assert stream.done and stream.error is None
            assert stream.result() == list(stream.tokens)

    def test_empty_prompt_rejected(self, model):
        scheduler = ContinuousScheduler(model, GREEDY, obs=Observability.disabled())
        with pytest.raises(ConfigError):
            scheduler.submit(np.array([], dtype=np.int64))

    def test_idle_step_is_noop(self, model):
        scheduler = ContinuousScheduler(model, GREEDY, obs=Observability.disabled())
        assert scheduler.step() == 0
        assert not scheduler.has_work

    def test_abort_all_finalizes_with_error(self, model, prompts):
        scheduler = ContinuousScheduler(model, GREEDY, obs=Observability.disabled())
        streams = [scheduler.submit(p) for p in prompts[:3]]
        scheduler.step()  # some rows live, with partial tokens
        partial = [list(s.tokens) for s in streams]
        error = RuntimeError("model path down")
        aborted = scheduler.abort_all(error)
        assert set(map(id, aborted)) == set(map(id, streams))
        for stream, before in zip(streams, partial):
            assert stream.done and stream.error is error
            assert list(stream.tokens) == before  # partial stream preserved
            with pytest.raises(RuntimeError):
                stream.result()
        assert not scheduler.has_work
        assert scheduler.step() == 0

    def test_counters_track_admit_retire_stream(self, model, prompts):
        obs = Observability.create()
        scheduler = ContinuousScheduler(model, GREEDY, obs=obs)
        for p in prompts[:5]:
            scheduler.submit(p)
        scheduler.drain()
        metrics = obs.metrics
        assert metrics.counter("generation.continuous.admitted").value == 5
        assert metrics.counter("generation.continuous.retired").value == 5
        total = sum(GREEDY.max_new_tokens for _ in range(5))
        assert metrics.counter("generation.continuous.stream_tokens").value == total
        assert metrics.counter("generation.continuous.steps").value > 0
        assert metrics.gauge("generation.continuous.live_rows").value == 0
        assert metrics.gauge("generation.continuous.waiting").value == 0


class TestNeverDraining:
    def test_kv_width_stays_bounded(self, model, prompts):
        """Regression: retired rows' slots used to stay in the live state.

        The queue never empties, so the state never resets; without
        dropping slots no live row can see, the KV width grew by one
        slot per step.
        """
        config = GenerationConfig(max_new_tokens=4)
        scheduler = ContinuousScheduler(
            model,
            config,
            policy=AdmissionPolicy(max_live_rows=4, max_prefills_per_step=2),
            obs=Observability.disabled(),
        )
        submitted: list[tuple[int, GenerationStream]] = []
        for _ in range(20 * config.max_new_tokens):
            while scheduler.waiting < 2:
                i = len(submitted) % len(prompts)
                submitted.append((i, scheduler.submit(prompts[i])))
            scheduler.step()
            state = scheduler._state
            assert state.kv_pos.shape[1] <= model.config.max_seq_len
            assert state.kv_valid.shape == state.kv_pos.shape
            assert len(state.cache[0]) == state.kv_pos.shape[1]
        expected = uncached_reference(model, prompts, config)
        finished = [(i, stream) for i, stream in submitted if stream.done]
        assert len(finished) > 4 * len(prompts)
        for i, stream in finished:
            assert stream.result() == expected[i]


class TestStreamGuards:
    def test_finalize_twice_raises(self):
        stream = GenerationStream("s")
        stream._finalize()
        with pytest.raises(ServingError):
            stream._finalize()

    def test_emit_after_finalize_raises(self):
        stream = GenerationStream("s")
        stream._emit(3)
        stream._finalize()
        with pytest.raises(ServingError):
            stream._emit(4)

    def test_result_before_done_raises(self):
        stream = GenerationStream("s")
        with pytest.raises(ServingError):
            stream.result()


class TestAdmitPrimitives:
    def test_admission_policy_validation(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_live_rows=0)
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_prefills_per_step=0)

    def test_layer_admit_rows_pads_shorter_side(self):
        rng = np.random.default_rng(0)
        a = LayerKVCache.from_arrays(
            rng.normal(size=(2, 2, 5, 4)).astype(np.float32),
            rng.normal(size=(2, 2, 5, 4)).astype(np.float32),
        )
        bk = rng.normal(size=(1, 2, 3, 4)).astype(np.float32)
        bv = rng.normal(size=(1, 2, 3, 4)).astype(np.float32)
        b = LayerKVCache.from_arrays(bk, bv)
        a.admit_rows(b)
        assert a.batch_size == 3
        assert len(a) == 5
        k, v = a.views()
        np.testing.assert_array_equal(k[2, :, :3], bk[0])
        np.testing.assert_array_equal(k[2, :, 3:], 0.0)  # padded, masked slots
        np.testing.assert_array_equal(v[2, :, :3], bv[0])

    def test_layer_admit_rows_rejects_offset_and_shape_mismatch(self):
        rng = np.random.default_rng(0)
        a = LayerKVCache.from_arrays(
            rng.normal(size=(1, 2, 4, 4)).astype(np.float32),
            rng.normal(size=(1, 2, 4, 4)).astype(np.float32),
        )
        wrong_heads = LayerKVCache.from_arrays(
            rng.normal(size=(1, 4, 4, 4)).astype(np.float32),
            rng.normal(size=(1, 4, 4, 4)).astype(np.float32),
        )
        with pytest.raises(ShapeError):
            a.admit_rows(wrong_heads)
        empty = LayerKVCache()
        with pytest.raises(ShapeError):
            a.admit_rows(empty)


class TestInterleavingProperty:
    """Hypothesis: random schedules never change outputs or break streams."""

    def test_random_interleavings(self, model):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        base_prompts = ragged_prompts(TINY.vocab_size, lengths=(5, 9, 3, 12, 7, 9))
        config = GenerationConfig(max_new_tokens=6, temperature=0.6, seed=11, stop_tokens=(9,))
        expected = uncached_reference(model, base_prompts, config)

        @settings(max_examples=15, deadline=None)
        @given(
            arrivals=st.lists(
                st.integers(min_value=0, max_value=12), min_size=6, max_size=6
            ),
            live=st.integers(min_value=1, max_value=6),
            per_step=st.integers(min_value=1, max_value=4),
        )
        def check(arrivals, live, per_step):
            policy = AdmissionPolicy(max_live_rows=live, max_prefills_per_step=per_step)
            scheduler = ContinuousScheduler(
                model, config, policy=policy, obs=Observability.disabled()
            )
            prefixes: dict[str, list[list[int]]] = {}

            def on_token(stream, token):
                prefixes.setdefault(stream.request_id, []).append(list(stream.tokens))

            order = sorted(range(6), key=lambda i: (arrivals[i], i))
            streams: list[GenerationStream | None] = [None] * 6
            cursor = 0
            steps = 0
            step_no = 0
            while cursor < 6 or scheduler.has_work:
                while cursor < 6 and arrivals[order[cursor]] <= step_no:
                    i = order[cursor]
                    streams[i] = scheduler.submit(
                        base_prompts[i], on_token=on_token, request_id=f"p{i}"
                    )
                    cursor += 1
                scheduler.step()
                step_no += 1
                steps += 1
                assert steps < 500, "scheduler starved a row"
            for i, stream in enumerate(streams):
                # No starvation, exactly-once finalization, correct output.
                assert stream.done and stream.error is None
                assert list(stream.tokens) == expected[i]
                with pytest.raises(ServingError):
                    stream._finalize()
                # Every streamed prefix was a prefix of the final output.
                for prefix in prefixes[f"p{i}"]:
                    assert prefix == expected[i][: len(prefix)]

        check()
