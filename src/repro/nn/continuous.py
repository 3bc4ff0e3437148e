"""The decode loop: admit new prefills into a running decode batch.

Every cached generation entry point runs through :class:`ContinuousScheduler`:
:func:`~repro.nn.generation.generate_batch` submits a fixed set of
prompts and drains, :func:`~repro.nn.generation.generate` is a one-row
``generate_batch``, and the serving tier's ``ContinuousEngine`` keeps
one scheduler alive and splices freshly prefilled rows into the live
batch between steps (vLLM / Orca-style iteration-level scheduling), so
the batch stays full under staggered arrivals.

Each :meth:`~ContinuousScheduler.step`:

1. **Admits** up to ``max_prefills_per_step`` waiting prompts (while the
   batch has fewer than ``max_live_rows`` live rows): one padded prefill
   forward for the cohort, first token sampled from the prefill logits,
   then the new rows are merged into the live :class:`DecodeState` via
   the ragged ``LayerKVCache.admit_rows`` path.
2. **Decodes** one token for every live row and **retires** rows at stop
   tokens or ``max_new_tokens`` via :meth:`DecodeState.select_rows`,
   which also drops KV slots no remaining row can see — so the state
   stays bounded by ``max_seq_len`` even when the loop never drains.

Outputs equal per-prompt ``generate(..., use_cache=False)`` — the
uncached re-forward reference — for *any* arrival interleaving: every
row draws from its own ``default_rng(config.seed)`` stream, padding
slots are additively masked (``-1e9`` lanes underflow to exactly 0 in
softmax), and per-row RoPE positions continue from each row's own
prompt length.  The parity suite in ``tests/test_continuous.py`` pins
this.

Tokens stream out through :class:`GenerationStream` (per-token callback
plus an exactly-once finalization guard); counters and gauges land in
the ``generation.continuous.*`` series (see ``docs/generation.md``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigError, ServingError
from repro.tensor import no_grad
from repro.tensor.random import default_rng
from repro.nn.cache import (
    KVCache,
    KVCacheSnapshot,
    LayerKVCache,
    LayerKVSnapshot,
    PrefixCache,
    _read_only,
)
from repro.nn.generation import GenerationConfig, _check_budget, _sample_token
from repro.nn.transformer import MistralTiny

_NEG_INF = np.float32(-1e9)


class DecodeState:
    """Mutable per-row bookkeeping for the batched decode loop.

    The stacked KV cache is left-aligned: row ``i`` occupies slots
    ``0..kv_len_i`` and shorter rows carry invalid (padding or absent)
    slots that the per-row additive mask hides.  ``kv_pos[i, j]`` is the
    absolute RoPE position slot ``j`` holds for row ``i`` — decode
    positions continue from each row's *own* prompt length, so batched
    logits match the sequential run.
    """

    __slots__ = ("cache", "kv_pos", "kv_valid", "row_pos", "uniform", "window")

    def __init__(self, cache, kv_pos, kv_valid, row_pos, window):
        self.cache = cache
        self.kv_pos = kv_pos  # (B, K) int64
        self.kv_valid = kv_valid  # (B, K) bool
        self.row_pos = row_pos  # (B,) int64: position of the next token
        self.window = window
        self._refresh_uniform()

    def _refresh_uniform(self) -> None:
        # Every slot real and contiguous from 0, every row about to decode
        # position ``width``: the condition under which the model's own
        # mask logic (and decode fast path) is exact without a mask.
        width = self.kv_pos.shape[1]
        self.uniform = (
            bool(self.kv_valid.all())
            and bool((self.kv_pos == np.arange(width, dtype=np.int64)).all())
            and bool((self.row_pos == width).all())
        )

    def step_mask(self) -> np.ndarray | None:
        """Additive mask for the next single-token step (or None).

        ``None`` means the model's own mask logic (including the decode
        fast path) is exact: every row's slots line up with its
        positions.  Otherwise builds a ``(B, 1, 1, K+1)`` mask covering
        the about-to-be-appended token's slot (always visible).
        """
        if self.uniform:
            return None
        allowed = self.kv_valid
        if self.window is not None:
            allowed = allowed & ((self.row_pos[:, None] - self.kv_pos) < self.window)
        batch = allowed.shape[0]
        mask = np.where(allowed, np.float32(0.0), _NEG_INF).astype(np.float32)
        mask = np.concatenate([mask, np.zeros((batch, 1), dtype=np.float32)], axis=1)
        return mask[:, None, None, :]

    def advance(self) -> None:
        """Record the slot the forward pass just appended."""
        self.kv_pos = np.concatenate([self.kv_pos, self.row_pos[:, None]], axis=1)
        self.kv_valid = np.concatenate(
            [self.kv_valid, np.ones((self.kv_valid.shape[0], 1), dtype=bool)], axis=1
        )
        self.row_pos = self.row_pos + 1

    def select_rows(self, keep: list[int]) -> None:
        """Keep only rows ``keep`` and drop slots invalid for all of them.

        Without the slot drop the width only grows (one slot per step)
        while rows keep arriving, so a loop that never drains would
        attend over an ever longer, mostly masked cache.
        """
        kv_valid = self.kv_valid[keep]
        live = kv_valid.any(axis=0)
        columns = None if live.all() else np.flatnonzero(live)
        self.cache.select_rows(keep, columns)
        self.kv_pos = self.kv_pos[keep]
        self.kv_valid = kv_valid
        if columns is not None:
            self.kv_pos = self.kv_pos[:, columns]
            self.kv_valid = kv_valid[:, columns]
        self.row_pos = self.row_pos[keep]
        self._refresh_uniform()

    def admit(self, other: "DecodeState") -> None:
        """Merge another batch's rows into this one (continuous admit).

        Pads both slot tables to a common width and appends the
        newcomer's rows to every layer's stacked cache.  Padding slots
        stay invalid (masked forever), so a merged step computes the
        same per-row logits as running the two batches separately.
        """
        width = max(self.kv_pos.shape[1], other.kv_pos.shape[1])

        def pad_cols(a: np.ndarray) -> np.ndarray:
            if a.shape[1] == width:
                return a
            extra = np.zeros((a.shape[0], width - a.shape[1]), dtype=a.dtype)
            return np.concatenate([a, extra], axis=1)

        self.kv_pos = np.concatenate([pad_cols(self.kv_pos), pad_cols(other.kv_pos)], axis=0)
        self.kv_valid = np.concatenate(
            [pad_cols(self.kv_valid), pad_cols(other.kv_valid)], axis=0
        )
        self.row_pos = np.concatenate([self.row_pos, other.row_pos], axis=0)
        for mine, theirs in zip(self.cache.layers, other.cache.layers):
            mine.admit_rows(theirs)
        self._refresh_uniform()


def _snapshot_row(row_kv) -> KVCacheSnapshot:
    """Freeze one row's per-layer ``(k, v)`` slots as a cache snapshot."""
    return KVCacheSnapshot(
        layers=tuple(
            LayerKVSnapshot(
                k=_read_only(np.ascontiguousarray(k)), v=_read_only(np.ascontiguousarray(v))
            )
            for k, v in row_kv
        )
    )


def _prefill_batch(
    model: MistralTiny,
    rows: list[np.ndarray],
    prefix_cache: PrefixCache | None,
    metrics,
) -> tuple[DecodeState, list[np.ndarray]]:
    """Prefill every prompt and stack the results into one decode state.

    Rows without a cached entry share one left-aligned padded prefill
    forward that reads out each row's last prompt position only; a row
    whose whole prompt is cached takes the stored K/V and logits as they
    are.  The caches keep every key; the attention masks enforce the
    sliding window.
    """
    n_layers = model.config.n_layers
    window = model.config.sliding_window
    batch = len(rows)
    lengths = [len(r) for r in rows]
    entries = [prefix_cache.lookup(r) if prefix_cache is not None else None for r in rows]
    miss_idx = [i for i, e in enumerate(entries) if e is None]

    # Per row: logits after its last prompt token, and per layer the
    # (1, kv_heads, length, head_dim) keys and values of its prompt.
    last_logits: list[np.ndarray | None] = [None] * batch
    row_kv: list[list[tuple[np.ndarray, np.ndarray]] | None] = [None] * batch
    for i, entry in enumerate(entries):
        if entry is not None:
            last_logits[i] = entry.logits
            row_kv[i] = [(layer.k, layer.v) for layer in entry.snapshot.layers]

    if miss_idx:
        pad_to = max(lengths[i] for i in miss_idx)
        padded = np.zeros((len(miss_idx), pad_to), dtype=np.int64)
        for r, i in enumerate(miss_idx):
            padded[r, : lengths[i]] = rows[i]
        miss_cache = KVCache(n_layers)
        readout = np.asarray([lengths[i] - 1 for i in miss_idx])
        logits = model.forward(padded, cache=miss_cache, readout=readout).data
        metrics["prefill_tokens"].inc(sum(lengths[i] for i in miss_idx))
        miss_layers = [miss_cache[layer].views() for layer in range(n_layers)]
        for r, i in enumerate(miss_idx):
            last_logits[i] = logits[r, -1]
            n = lengths[i]
            row_kv[i] = [(k[r : r + 1, :, :n], v[r : r + 1, :, :n]) for k, v in miss_layers]
            if prefix_cache is not None:
                prefix_cache.insert(rows[i], _snapshot_row(row_kv[i]), last_logits[i])

    # Stack every row's KV block left-aligned, straight into the
    # batched cache's own buffers.
    kv_capacity = max(lengths)
    layers = []
    for layer in range(n_layers):
        template = row_kv[0][layer][0]
        _, kv_heads, _, head_dim = template.shape
        layer_cache = LayerKVCache.zeros(batch, kv_heads, kv_capacity, head_dim, template.dtype)
        k_l, v_l = layer_cache.views()
        for i in range(batch):
            k_row, v_row = row_kv[i][layer]
            k_l[i, :, : lengths[i]] = k_row[0]
            v_l[i, :, : lengths[i]] = v_row[0]
        layers.append(layer_cache)
    slots = np.arange(kv_capacity, dtype=np.int64)
    row_pos = np.asarray(lengths, dtype=np.int64)
    state = DecodeState(
        cache=KVCache.from_layers(layers),
        kv_pos=np.tile(slots, (batch, 1)),
        # Slots beyond a row's own prompt length are zero padding and
        # must stay masked forever.
        kv_valid=slots < row_pos[:, None],
        row_pos=row_pos,
        window=window,
    )
    return state, [np.asarray(l) for l in last_logits]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs governing how prefills interleave with the decode loop.

    max_live_rows:
        Ceiling on concurrently decoding rows.  Bounds the stacked KV
        cache's batch dimension (memory) and the per-step forward cost.
    max_prefills_per_step:
        How many waiting prompts may be prefilled and admitted per
        decode step — the prefill/decode interleave ratio.  Small values
        keep per-step latency flat for rows already decoding; large
        values fill an empty batch faster after a burst of arrivals.
    """

    max_live_rows: int = 8
    max_prefills_per_step: int = 4

    def __post_init__(self):
        if self.max_live_rows <= 0:
            raise ConfigError(f"max_live_rows must be positive, got {self.max_live_rows}")
        if self.max_prefills_per_step <= 0:
            raise ConfigError(
                f"max_prefills_per_step must be positive, got {self.max_prefills_per_step}"
            )


class GenerationStream:
    """Handle for one submitted prompt: tokens stream in as they decode.

    ``on_token(stream, token_id)`` fires synchronously per generated
    token (including the stop token, which — like ``generate`` — is part
    of the output).  Finalization is **exactly-once**: a second
    ``_finalize`` raises :class:`~repro.errors.ServingError` instead of
    silently overwriting the first outcome, mirroring the serving tier's
    ``PendingResult`` guard.
    """

    __slots__ = ("request_id", "_tokens", "_done", "_error", "_on_token")

    def __init__(
        self,
        request_id: str,
        on_token: Callable[["GenerationStream", int], None] | None = None,
    ):
        self.request_id = request_id
        self._tokens: list[int] = []
        self._done = False
        self._error: BaseException | None = None
        self._on_token = on_token

    @property
    def tokens(self) -> tuple[int, ...]:
        """Tokens generated so far (a prefix of the final output)."""
        return tuple(self._tokens)

    @property
    def done(self) -> bool:
        return self._done

    @property
    def error(self) -> BaseException | None:
        return self._error

    def result(self) -> list[int]:
        """The final token list; raises if failed or still decoding."""
        if not self._done:
            raise ServingError(f"stream {self.request_id!r} is still decoding")
        if self._error is not None:
            raise self._error
        return list(self._tokens)

    def _emit(self, token_id: int) -> None:
        if self._done:
            raise ServingError(f"stream {self.request_id!r} emitted a token after finalization")
        self._tokens.append(token_id)
        if self._on_token is not None:
            self._on_token(self, token_id)

    def _finalize(self, error: BaseException | None = None) -> None:
        if self._done:
            raise ServingError(f"stream {self.request_id!r} finalized twice")
        self._done = True
        self._error = error


class ContinuousScheduler:
    """One decode loop over an ever-changing set of live rows.

    Drive it by calling :meth:`step` repeatedly (or :meth:`drain` to run
    until idle).  ``submit`` never blocks and never runs the model —
    prompts wait in FIFO order until the admission policy lets them into
    the batch.  The scheduler is single-threaded by design; the serving
    tier's ``ContinuousEngine`` adds the queue/locking layer.
    """

    def __init__(
        self,
        model: MistralTiny,
        config: GenerationConfig | None = None,
        policy: AdmissionPolicy | None = None,
        prefix_cache: PrefixCache | None = None,
        obs=None,
    ):
        self.model = model
        self.config = config or GenerationConfig()
        self.policy = policy or AdmissionPolicy()
        self.prefix_cache = prefix_cache
        self._budget = _check_budget(model, self.config)
        if obs is None:
            from repro.obs import get_observability

            obs = get_observability()
        self.obs = obs
        registry = obs.metrics
        self._metrics = {
            "prefill_tokens": registry.counter("generation.prefill_tokens"),
            "tokens": registry.counter("generation.tokens_generated"),
        }
        self._m_admitted = registry.counter("generation.continuous.admitted")
        self._m_retired = registry.counter("generation.continuous.retired")
        self._m_stream = registry.counter("generation.continuous.stream_tokens")
        self._m_steps = registry.counter("generation.continuous.steps")
        self._g_live = registry.gauge("generation.continuous.live_rows")
        self._g_waiting = registry.gauge("generation.continuous.waiting")
        self._h_step = registry.histogram("generation.decode_step_s")

        self._waiting: deque[tuple[GenerationStream, np.ndarray]] = deque()
        self._state: DecodeState | None = None
        self._live: list[GenerationStream] = []
        self._rngs: list = []  # per live row, parallel to _live
        self._tokens: list[int] = []  # next input token per live row
        self._counter = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    @property
    def live_rows(self) -> int:
        return len(self._live)

    @property
    def waiting(self) -> int:
        return len(self._waiting)

    @property
    def has_work(self) -> bool:
        return bool(self._waiting) or self._state is not None

    def submit(
        self,
        prompt_ids,
        on_token: Callable[[GenerationStream, int], None] | None = None,
        request_id: str | None = None,
    ) -> GenerationStream:
        """Queue one prompt for admission; returns its stream handle.

        The prompt is left-truncated to the model's context budget, the
        same as the uncached ``generate`` reference, so outputs stay
        comparable token-for-token.
        """
        ids = np.asarray(prompt_ids, dtype=np.int64).reshape(-1)[-self._budget :]
        if len(ids) == 0:
            raise ConfigError("ContinuousScheduler.submit() received an empty prompt")
        if request_id is None:
            request_id = f"seq-{self._counter}"
        self._counter += 1
        stream = GenerationStream(request_id, on_token=on_token)
        self._waiting.append((stream, ids))
        self._g_waiting.set(len(self._waiting))
        return stream

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def step(self) -> int:
        """Admit what the policy allows, then decode one token per live row.

        Returns the number of tokens emitted this step (first tokens
        from freshly admitted rows included).  A step with nothing
        waiting and nothing live is a no-op returning 0.
        """
        if not self.has_work:
            return 0
        was_training = self.model.training
        if was_training:  # avoid a full module-tree walk on every step
            self.model.eval()
        try:
            with no_grad():
                emitted = self._admit()
                emitted += self._decode()
        finally:
            if was_training:
                self.model.train()
        self._m_steps.inc()
        self._g_live.set(len(self._live))
        self._g_waiting.set(len(self._waiting))
        return emitted

    def drain(self) -> None:
        """Step until every submitted prompt has finished."""
        while self.has_work:
            self.step()

    def _admit(self) -> int:
        take = min(
            len(self._waiting),
            self.policy.max_prefills_per_step,
            self.policy.max_live_rows - len(self._live),
        )
        if take <= 0:
            return 0
        if self.prefix_cache is not None:
            self.prefix_cache.sync(self.model.weight_version)
        cohort = [self._waiting.popleft() for _ in range(take)]
        rows = [ids for _, ids in cohort]
        state, last_logits = _prefill_batch(self.model, rows, self.prefix_cache, self._metrics)
        self._m_admitted.inc(take)
        self._metrics["tokens"].inc(take)

        keep: list[int] = []
        rngs = [default_rng(self.config.seed) for _ in cohort]
        for r, (stream, _ids) in enumerate(cohort):
            next_id = _sample_token(last_logits[r], self.config, rngs[r])
            stream._emit(next_id)
            self._m_stream.inc()
            if (
                next_id in self.config.stop_tokens
                or len(stream.tokens) == self.config.max_new_tokens
            ):
                stream._finalize()
                self._m_retired.inc()
                continue
            keep.append(r)
        if not keep:
            return take
        if len(keep) < take:
            state.select_rows(keep)
        if self._state is None:
            self._state = state
        else:
            self._state.admit(state)
        for r in keep:
            stream, _ids = cohort[r]
            self._live.append(stream)
            self._rngs.append(rngs[r])
            self._tokens.append(stream.tokens[-1])
        return take

    def _decode(self) -> int:
        if self._state is None:
            return 0
        started = time.perf_counter()
        mask = self._state.step_mask()
        step_ids = np.asarray(self._tokens, dtype=np.int64)[:, None]
        logits = self.model.forward(
            step_ids,
            cache=self._state.cache,
            positions=self._state.row_pos[:, None],
            attn_mask=mask,
        ).data[:, -1, :]
        self._state.advance()
        self._h_step.observe(time.perf_counter() - started)
        emitted = len(self._live)
        self._metrics["tokens"].inc(emitted)
        self._m_stream.inc(emitted)

        keep: list[int] = []
        next_tokens: list[int] = []
        for row, stream in enumerate(self._live):
            next_id = _sample_token(logits[row], self.config, self._rngs[row])
            stream._emit(next_id)
            if (
                next_id in self.config.stop_tokens
                or len(stream.tokens) == self.config.max_new_tokens
            ):
                stream._finalize()
                self._m_retired.inc()
                continue
            keep.append(row)
            next_tokens.append(next_id)
        if len(keep) < len(self._live):
            self._live = [self._live[row] for row in keep]
            self._rngs = [self._rngs[row] for row in keep]
            if self._live:
                self._state.select_rows(keep)
            else:
                self._state = None
        self._tokens = next_tokens
        return emitted

    # ------------------------------------------------------------------
    # Failure containment (serving tier hook)
    # ------------------------------------------------------------------

    def abort_all(self, error: BaseException) -> list[GenerationStream]:
        """Finalize every live and waiting stream with ``error``.

        The serving tier calls this when the model path fails mid-loop
        (chaos injection, replica crash): partial streams stay readable
        on the handles, the terminal result is the error, and the
        scheduler resets to empty so a fresh loop can start.
        """
        aborted = list(self._live) + [stream for stream, _ in self._waiting]
        for stream in aborted:
            stream._finalize(error)
            self._m_retired.inc()
        self._live = []
        self._rngs = []
        self._tokens = []
        self._waiting.clear()
        self._state = None
        self._g_live.set(0)
        self._g_waiting.set(0)
        return aborted


def generate_continuous(
    model: MistralTiny,
    prompts,
    config: GenerationConfig | None = None,
    arrivals: Sequence[int] | None = None,
    policy: AdmissionPolicy | None = None,
    prefix_cache: PrefixCache | None = None,
    obs=None,
) -> list[list[int]]:
    """Drive a :class:`ContinuousScheduler` over a fixed arrival schedule.

    ``arrivals[i]`` is the decode-step index at which prompt ``i``
    becomes available (default: all at step 0).  Returns one token list
    per prompt in input order — the same tokens regardless of the
    schedule.  This is the deterministic harness the parity tests and
    the saturation benchmark share.
    """
    prompts = list(prompts)
    if not prompts:
        return []
    if arrivals is None:
        arrivals = [0] * len(prompts)
    if len(arrivals) != len(prompts):
        raise ConfigError(
            f"arrivals has {len(arrivals)} entries for {len(prompts)} prompts"
        )
    scheduler = ContinuousScheduler(
        model, config=config, policy=policy, prefix_cache=prefix_cache, obs=obs
    )
    order = sorted(range(len(prompts)), key=lambda i: (arrivals[i], i))
    streams: list[GenerationStream | None] = [None] * len(prompts)
    cursor = 0
    step_no = 0
    while cursor < len(order) or scheduler.has_work:
        while cursor < len(order) and arrivals[order[cursor]] <= step_no:
            i = order[cursor]
            streams[i] = scheduler.submit(prompts[i], request_id=f"prompt-{i}")
            cursor += 1
        scheduler.step()
        step_no += 1
    return [list(stream.tokens) for stream in streams]
