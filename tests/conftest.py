"""Shared fixtures: tiny models, datasets and checkpoint directories.

Heavy builders live here once, session-scoped, instead of being
duplicated per test file: the ZiGong template (tokenizer + config
derivation), the fine-tuned-with-checkpoints explain model, and the
deterministic serving stubs.  Keeping them shared is what holds tier-1
wall-clock down as the suite grows: deduplicating the builders across
test_serving_engine / test_serving_explain / test_generation_batch /
test_core_zigong took those four files from 7.3s to 5.5s (single-core
CI box, same 105 tests).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time

import numpy as np
import pytest

try:
    from hypothesis import settings as _hyp_settings

    # The serving-tier property suite leaves max_examples to the active
    # profile: thorough locally, bounded in CI (HYPOTHESIS_PROFILE=ci).
    # Tests that pin their own @settings(max_examples=...) are unaffected.
    _hyp_settings.register_profile("default", max_examples=200, deadline=None)
    _hyp_settings.register_profile("ci", max_examples=40, deadline=None)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
except ImportError:  # pragma: no cover - hypothesis ships with the dev env
    pass

from repro.config import test_config as make_test_config
from repro.core import ZiGong
from repro.data import build_classification_examples
from repro.datasets import make_german
from repro.nn import GenerationConfig, MistralTiny, ModelConfig
from repro.tensor import is_grad_enabled


@pytest.fixture(autouse=True)
def grad_mode_left_on():
    """Every test must end with grad mode on (it is per thread)."""
    yield
    assert is_grad_enabled(), "test left grad mode off on the main thread"


# Thread targets of the serving engine worker and the cluster health check.
_ENGINE_LOOPS = ("_worker_loop", "_health_loop")
_THREAD_GRACE_S = 0.5


def _engine_threads() -> set[threading.Thread]:
    return {
        thread
        for thread in threading.enumerate()
        if getattr(getattr(thread, "_target", None), "__name__", None) in _ENGINE_LOOPS
    }


@pytest.fixture(autouse=True)
def engine_threads_stopped():
    """No engine worker or health thread a test started outlives the test.

    Threads get a shared join grace of half a second to wind down.
    """
    before = _engine_threads()
    yield
    started = _engine_threads() - before
    deadline = time.monotonic() + _THREAD_GRACE_S
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(thread.name for thread in started if thread.is_alive())
    assert not alive, f"engine threads still running after the test: {alive}"


TINY = ModelConfig(
    vocab_size=64,
    d_model=32,
    n_layers=2,
    n_heads=4,
    n_kv_heads=2,
    d_ff=64,
    max_seq_len=32,
    sliding_window=16,
)


@pytest.fixture
def tiny_config() -> ModelConfig:
    return TINY


@pytest.fixture
def tiny_model(tiny_config) -> MistralTiny:
    return MistralTiny(tiny_config, rng=0)


@pytest.fixture
def token_batch(tiny_config):
    rng = np.random.default_rng(0)
    return rng.integers(5, tiny_config.vocab_size, size=(2, 12))


@pytest.fixture(scope="session")
def german_small():
    return make_german(n=160, seed=0)


@pytest.fixture(scope="session")
def german_examples(german_small):
    return build_classification_examples(german_small)


@pytest.fixture(scope="session")
def fitted_zigong(german_examples):
    """A ZiGong model quickly fine-tuned on a small german split (shared)."""
    cfg = make_test_config()
    cfg = dataclasses.replace(
        cfg, training=dataclasses.replace(cfg.training, epochs=6), base_lr=5e-3
    )
    zigong = ZiGong.from_examples(german_examples, config=cfg)
    zigong.finetune(german_examples[:96])
    return zigong


@pytest.fixture(scope="session")
def zigong_template(german_examples):
    """Tokenizer + config derived once from the small german corpus.

    ``ZiGong.from_examples`` retrains a tokenizer every call; tests that
    need a *fresh, untuned* model should instead clone this template via
    :func:`make_zigong` — seeded init makes the clone weight-identical
    to a from_examples build over the same slice.
    """
    return ZiGong.from_examples(german_examples[:32])


@pytest.fixture
def make_zigong(zigong_template):
    """Factory for fresh untuned ZiGong models sharing one tokenizer."""

    def make() -> ZiGong:
        return ZiGong(zigong_template.config, zigong_template.tokenizer)

    return make


@pytest.fixture
def projector_inits(monkeypatch) -> list:
    """One entry ``(dim, k, seed)`` per ``GradientProjector`` built."""
    from repro.influence.gradients import GradientProjector

    inits = []
    init = GradientProjector.__init__

    def counting(self, dim, k=256, seed=0):
        inits.append((dim, k, seed))
        init(self, dim, k=k, seed=seed)

    monkeypatch.setattr(GradientProjector, "__init__", counting)
    return inits


@pytest.fixture(scope="session")
def explained_zigong(german_examples, tmp_path_factory):
    """A fine-tuned ZiGong with checkpoint trail, for influence serving.

    Returns ``(zigong, examples, checkpoints)`` — everything needed to
    build an :class:`~repro.serving.ExplainService` (or to golden-test
    deploys of a checkpointed model) without re-finetuning per module.
    """
    from repro.training.checkpoint import CheckpointManager

    examples = german_examples[:14]
    zigong = ZiGong.from_examples(examples, config=make_test_config())
    checkpoint_dir = tmp_path_factory.mktemp("explain-ckpts")
    zigong.finetune(examples, checkpoint_dir=checkpoint_dir)
    checkpoints = CheckpointManager(checkpoint_dir).checkpoints()
    return zigong, examples, checkpoints


# ----------------------------------------------------------------------
# Serving stubs (shared by the engine, cluster and property suites)
# ----------------------------------------------------------------------


class StubClassifier:
    """Deterministic scorer: P(default) derived from the prompt length."""

    def __init__(self, fail: bool = False):
        self.calls = 0
        self.batch_calls = 0
        self.fail = fail

    def _score(self, prompt):
        return (len(prompt) % 10) / 10.0 + 0.05

    def score(self, prompt, positive, negative):
        if self.fail:
            raise RuntimeError("model path down")
        self.calls += 1
        return self._score(prompt)

    def score_batch(self, prompts, positive, negative):
        if self.fail:
            raise RuntimeError("model path down")
        self.batch_calls += 1
        self.calls += len(prompts)
        return np.array([self._score(p) for p in prompts])


class StepClock:
    """Wall clock advancing a fixed step per call — deterministic latency."""

    def __init__(self, now: float = 1000.0, step: float = 1.0):
        self.now = now
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_stub_service(**kwargs):
    """A BehaviorCardService over the stub classifier and step clock."""
    from repro.serving import BehaviorCardConfig, BehaviorCardService

    defaults = dict(
        config=BehaviorCardConfig(max_batch_size=4, queue_capacity=8),
        clock=StepClock(),
    )
    defaults.update(kwargs)
    return BehaviorCardService(StubClassifier(), **defaults)


# Both step policies over the shared serving core, for contract tests
# parametrized over the engine.
ENGINE_KINDS = ("microbatch", "continuous")

# Forced-length decode: every request generates exactly four tokens.
STUB_GENERATION = GenerationConfig(max_new_tokens=4)


def stub_encode(request) -> np.ndarray:
    """Deterministic text -> prompt ids (length varies with the text)."""
    rng = np.random.default_rng(len(request.behavior_text) % 97)
    return rng.integers(
        5, TINY.vocab_size, size=4 + len(request.behavior_text) % 9
    ).astype(np.int64)


def stub_finish(request, tokens: list[int]):
    from repro.serving import ScoreResult

    score = (sum(tokens) % 10) / 10.0 + 0.05
    return ScoreResult(request.user_id, score, score < 0.5, 0.5)


def stub_batch_fn(requests):
    from repro.serving import ScoreResult

    return [ScoreResult(r.user_id, 0.1, True, 0.5) for r in requests]


def make_generation_app(model, **overrides):
    """The stub generation app: ``stub_encode``/``stub_finish`` over ``model``."""
    from repro.serving import GenerationApp

    kwargs = dict(model=model, encode=stub_encode, finish=stub_finish, generation=STUB_GENERATION)
    kwargs.update(overrides)
    return GenerationApp(**kwargs)


@functools.lru_cache(maxsize=None)
def stub_generation_model() -> MistralTiny:
    """One tiny model shared by every stub generation app (decode only)."""
    return MistralTiny(TINY, rng=0)


def make_engine(kind: str, config=None, seen: list | None = None, **kwargs):
    """A fresh ``kind`` engine over the stubs, fresh registry and step clock.

    ``microbatch`` scores through ``batch_fn`` (default
    :func:`stub_batch_fn`); ``continuous`` decodes ``app`` (default the
    stub generation app over one shared tiny model).  ``seen``, when
    given, collects every request as it reaches a step: the batch
    function, or the stub encoder that runs just before
    ``ContinuousScheduler.submit``.
    """
    from repro.obs import Observability
    from repro.serving import ContinuousEngine, EngineConfig, MicroBatchEngine

    config = config or EngineConfig(max_batch_size=4, queue_capacity=8)
    kwargs.setdefault("clock", StepClock())
    kwargs.setdefault("obs", Observability.create())
    if kind == "microbatch":
        batch_fn = kwargs.pop("batch_fn", stub_batch_fn)
        if seen is not None:
            scorer = batch_fn

            def batch_fn(requests):
                seen.extend(requests)
                return scorer(requests)

        return MicroBatchEngine(batch_fn, config, **kwargs)
    encode = stub_encode
    if seen is not None:

        def encode(request):
            seen.append(request)
            return stub_encode(request)

    app = kwargs.pop("app", None) or make_generation_app(stub_generation_model(), encode=encode)
    return ContinuousEngine(app, config, **kwargs)


# ----------------------------------------------------------------------
# Generation prompts (shared by batched-decoding and cache suites)
# ----------------------------------------------------------------------


RAGGED_LENGTHS = (5, 9, 3, 12, 7, 9)


def ragged_prompts(vocab_size: int, lengths=RAGGED_LENGTHS, seed: int = 0):
    """Seeded integer prompts of uneven lengths (token ids >= 5)."""
    rng = np.random.default_rng(seed)
    return [rng.integers(5, vocab_size, size=n).astype(np.int64) for n in lengths]


def uncached_reference(model, prompts, config):
    """Per-prompt ``generate(..., use_cache=False)`` outputs.

    The re-forward loop shares no code with the cached decode loop, so
    it is the reference ``generate``, ``generate_batch`` and the
    continuous scheduler are all held to.
    """
    from repro.nn.generation import generate

    reference = dataclasses.replace(config, use_cache=False)
    return [generate(model, p, reference) for p in prompts]


def numeric_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar function ``f`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i].copy()
        flat[i] = orig + eps
        up = f()
        flat[i] = orig - eps
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad
