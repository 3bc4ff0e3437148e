"""KV caches for incremental decoding.

Generation re-uses the attention keys/values of already-processed
tokens instead of re-running the full prefix each step.  Two layers of
reuse live here:

* :class:`LayerKVCache` / :class:`KVCache` — a **preallocated
  append-only buffer** per attention layer.  Slot ``j`` holds position
  ``j``; appends write into reserved slots (amortized O(1) per token)
  instead of reallocating the whole buffer with ``np.concatenate``
  every step.  The cache keeps every key it is given: how far back a
  query may look is the attention mask's business
  (:func:`~repro.nn.attention.rect_attention_mask`), and
  ``MistralTiny.forward`` bounds the buffer at ``max_seq_len``
  positions.
* :class:`PrefixCache` — an LRU dict keyed by a whole prompt's token
  ids that stores immutable :class:`KVCacheSnapshot` objects for
  already-prefilled prompts.  A repeated prompt copies its stored K/V
  and last-position logits instead of re-running prefill; hit / miss /
  saved-token counters are reported through :mod:`repro.obs`.

Caches hold plain numpy arrays (decoding runs under ``no_grad``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError

_MIN_CAPACITY = 64


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _capacity(t: int) -> int:
    """Slots to reserve for ``t`` positions: room to append as many again."""
    return max(_MIN_CAPACITY, 2 * t)


@dataclass(frozen=True)
class LayerKVSnapshot:
    """Immutable copy of one layer's keys/values."""

    k: np.ndarray  # (batch, n_kv_heads, t, head_dim), read-only
    v: np.ndarray


@dataclass(frozen=True)
class KVCacheSnapshot:
    """Frozen state of a full :class:`KVCache` (one entry per layer).

    Snapshots are safe to share: the arrays are copies marked
    read-only, so decoding from a cache they were copied into cannot
    corrupt them.
    """

    layers: tuple[LayerKVSnapshot, ...]

    @property
    def nbytes(self) -> int:
        return sum(layer.k.nbytes + layer.v.nbytes for layer in self.layers)


class LayerKVCache:
    """Append-only key/value buffer for one attention layer.

    Shapes are ``(batch, n_heads, t, head_dim)`` and slot ``j`` holds
    position ``j``, so ``len(cache)`` is the position of the next token.
    Internally the buffer is preallocated with slack: appends write
    into free slots and the buffer doubles when full — amortized O(1)
    work per appended token, versus the O(T) (O(T^2) total)
    reallocation of a concatenate-per-step cache.
    """

    __slots__ = ("_k", "_v", "_len")

    def __init__(self):
        self._k: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def batch_size(self) -> int:
        return 0 if self._k is None else self._k.shape[0]

    def _resize(self, cap: int) -> None:
        """Move the cached span into fresh buffers of ``cap`` slots."""
        batch, heads, _, head_dim = self._k.shape
        k = np.empty((batch, heads, cap, head_dim), dtype=self._k.dtype)
        v = np.empty_like(k)
        k[:, :, : self._len] = self._k[:, :, : self._len]
        v[:, :, : self._len] = self._v[:, :, : self._len]
        self._k, self._v = k, v

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append new keys/values; return views of every cached position.

        The returned arrays are views into the internal buffer and are
        only valid until the next ``append`` — attention consumes them
        immediately within the same forward step.
        """
        if k.shape != v.shape:
            raise ShapeError(f"k shape {k.shape} != v shape {v.shape}")
        if k.ndim != 4:
            raise ShapeError(f"cache entries must be (batch, heads, t, head_dim), got {k.shape}")
        t = k.shape[2]
        if self._k is None:
            self._k = np.empty(k.shape[:2] + (_capacity(t),) + k.shape[3:], dtype=k.dtype)
            self._v = np.empty_like(self._k)
        elif k.shape[:2] != self._k.shape[:2] or k.shape[3] != self._k.shape[3]:
            raise ShapeError(
                f"cache append shape {k.shape} incompatible with "
                f"{self._k.shape[:2] + (self._len,) + self._k.shape[3:]}"
            )
        if self._len + t > self._k.shape[2]:
            self._resize(max(self._len + t, 2 * self._k.shape[2]))
        self._k[:, :, self._len : self._len + t] = k
        self._v[:, :, self._len : self._len + t] = v
        self._len += t
        return self.views()

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy views of the cached keys and values."""
        if self._k is None:
            raise ShapeError("cache is empty; nothing to view")
        return self._k[:, :, : self._len], self._v[:, :, : self._len]

    @classmethod
    def from_arrays(cls, k: np.ndarray, v: np.ndarray) -> "LayerKVCache":
        """A fresh cache holding a copy of ``k`` / ``v``."""
        cache = cls()
        if k.ndim == 4 and k.shape[2] > 0:
            cache.append(k, v)
        return cache

    @classmethod
    def zeros(cls, batch: int, heads: int, t: int, head_dim: int, dtype) -> "LayerKVCache":
        """A cache holding ``t`` zeroed positions, with ``append``'s slack.

        Write the positions through :meth:`views`: the views are the
        cache's own buffer, so filling them copies nothing further.
        """
        cache = cls()
        cache._k = np.zeros((batch, heads, _capacity(t), head_dim), dtype=dtype)
        cache._v = np.zeros_like(cache._k)
        cache._len = t
        return cache

    def select_rows(self, indices, columns=None) -> None:
        """Keep only the given batch rows (early retirement compaction).

        ``columns``, when given, also keeps only those slots (in order)
        — the batched decode state drops slots no remaining row can
        attend to.
        """
        if self._k is None:
            return
        indices = np.asarray(indices, dtype=np.intp)
        if columns is None:
            span = slice(0, self._len)
        else:
            span = np.asarray(columns, dtype=np.intp)
            self._len = len(span)
        self._k = np.ascontiguousarray(self._k[indices][:, :, span])
        self._v = np.ascontiguousarray(self._v[indices][:, :, span])

    def admit_rows(self, other: "LayerKVCache") -> None:
        """Append another cache's batch rows to this one (ragged admit).

        The continuous scheduler uses this to merge a freshly prefilled
        batch into the live decode batch between steps.  Both caches
        must have matching head count and head dim (per-row positions
        live in the caller's slot table).  Cached spans are padded with
        zeros to a common length; slots past a row's own valid span
        must stay hidden by the caller's additive mask (zero K/V keeps
        their scores finite, so the ``-1e9`` mask lanes underflow to
        exactly 0 in softmax).
        """
        if self._k is None or other._k is None:
            raise ShapeError("admit_rows() requires non-empty caches on both sides")
        if self._k.shape[1] != other._k.shape[1] or self._k.shape[3] != other._k.shape[3]:
            raise ShapeError(
                f"admit_rows() head layout mismatch: {self._k.shape[1:2] + self._k.shape[3:]} "
                f"vs {other._k.shape[1:2] + other._k.shape[3:]}"
            )
        t = max(self._len, other._len)
        k_self, v_self = self.views()
        k_other, v_other = other.views()
        rows_self = k_self.shape[0]
        batch = rows_self + k_other.shape[0]
        cap = max(self._k.shape[2], _capacity(t))
        new_k = np.zeros((batch, self._k.shape[1], cap, self._k.shape[3]), dtype=self._k.dtype)
        new_v = np.zeros_like(new_k)
        new_k[:rows_self, :, : self._len] = k_self
        new_v[:rows_self, :, : self._len] = v_self
        new_k[rows_self:, :, : other._len] = k_other
        new_v[rows_self:, :, : other._len] = v_other
        self._k, self._v = new_k, new_v
        self._len = t


class KVCache:
    """Per-layer cache bundle for a full model."""

    def __init__(self, n_layers: int):
        if n_layers <= 0:
            raise ShapeError("n_layers must be positive")
        self.layers = [LayerKVCache() for _ in range(n_layers)]

    def __getitem__(self, index: int) -> LayerKVCache:
        return self.layers[index]

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def next_position(self) -> int:
        return len(self.layers[0])

    @classmethod
    def from_layers(cls, layers: list[LayerKVCache]) -> "KVCache":
        """A bundle of the given per-layer caches (not copied)."""
        cache = cls(len(layers))
        cache.layers = list(layers)
        return cache

    def select_rows(self, indices, columns=None) -> None:
        """Keep only the given batch rows (and slots) in every layer."""
        for layer in self.layers:
            layer.select_rows(indices, columns)


# ----------------------------------------------------------------------
# Prefix cache
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixEntry:
    """One cached prefill: frozen KV state plus the last-position logits."""

    key: tuple[int, ...]
    snapshot: KVCacheSnapshot
    logits: np.ndarray  # (vocab,), read-only — logits after the last prompt token

    @property
    def length(self) -> int:
        return len(self.key)

    @property
    def nbytes(self) -> int:
        return self.snapshot.nbytes + self.logits.nbytes


@dataclass
class PrefixCacheStats:
    hits: int = 0
    misses: int = 0
    tokens_saved: int = 0
    evictions: int = 0
    invalidations: int = 0  # full flushes after a model weight change


def _key(ids) -> tuple[int, ...]:
    return tuple(np.asarray(ids, dtype=np.int64).reshape(-1).tolist())


class PrefixCache:
    """LRU cache of prefilled prompts, keyed by the whole prompt.

    ``lookup`` returns an entry only for a prompt whose token ids are
    identical to a stored one; a hit skips that prompt's prefill.  Every
    prompt the library builds ends in the tokenizer's SEP token, so no
    stored prompt is a strict prefix of another and matching on shorter
    prefixes could never hit.

    Two policies bound the cache and keep it correct:

    * **LRU by entries and bytes** — eviction keeps at most ``capacity``
      entries and, when ``max_bytes`` is set, at most that many bytes of
      KV snapshots (each entry holds full per-layer K/V for its prompt,
      so entry count alone is a weak memory bound).
    * **Weight-version invalidation** — :meth:`sync` compares the owning
      model's ``weight_version`` counter and flushes every entry when the
      weights changed (finetune step, LoRA inject/merge, checkpoint
      load); cached KV/logits from old weights are never served.

    Counters (``generation.prefix_hits`` / ``generation.prefix_misses``
    / ``generation.prefill_tokens_saved`` / ``generation.prefix_evictions``
    / ``generation.prefix_invalidations``) are registered on the
    :mod:`repro.obs` hub so ``repro obs report`` shows prefix reuse next
    to the serving metrics.
    """

    def __init__(self, capacity: int = 64, max_bytes: int | None = None, obs=None):
        if capacity <= 0:
            raise ShapeError(f"PrefixCache capacity must be positive, got {capacity}")
        if max_bytes is not None and max_bytes <= 0:
            raise ShapeError(f"max_bytes must be positive when set, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple[int, ...], PrefixEntry] = OrderedDict()  # oldest first
        self._bytes = 0
        self._weight_version: int | None = None
        self.stats = PrefixCacheStats()
        if obs is None:
            from repro.obs import get_observability

            obs = get_observability()
        metrics = obs.metrics
        self._m_hits = metrics.counter("generation.prefix_hits")
        self._m_misses = metrics.counter("generation.prefix_misses")
        self._m_saved = metrics.counter("generation.prefill_tokens_saved")
        self._m_evictions = metrics.counter("generation.prefix_evictions")
        self._m_invalidations = metrics.counter("generation.prefix_invalidations")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total bytes of stored KV snapshots and logits."""
        return self._bytes

    def sync(self, weight_version: int) -> None:
        """Flush every entry if the model's weights changed since last use.

        Generation calls this with the model's ``weight_version`` before
        any lookup/insert; a mismatch means the stored KV snapshots and
        logits were computed under old weights and must not be served.
        """
        if self._weight_version == weight_version:
            return
        if self._entries:
            self.stats.invalidations += 1
            self._m_invalidations.inc()
        self.clear()
        self._weight_version = weight_version

    def lookup(self, ids) -> PrefixEntry | None:
        """The entry stored for exactly these token ids, or ``None``."""
        key = _key(ids)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.tokens_saved += entry.length
        self._m_hits.inc()
        self._m_saved.inc(entry.length)
        return entry

    def insert(self, ids, snapshot: KVCacheSnapshot, logits: np.ndarray) -> PrefixEntry:
        """Store the prefilled state for ``ids`` (refreshes an existing key).

        Evicts least-recently-used entries past the entry and byte
        bounds; the newest entry is always kept, so a single prompt
        larger than ``max_bytes`` still caches (memory is bounded by
        ``max(max_bytes, one entry)``).
        """
        key = _key(ids)
        if not key:
            raise ShapeError("cannot cache an empty prompt")
        logits = _read_only(np.asarray(logits).reshape(-1).copy())
        entry = PrefixEntry(key=key, snapshot=snapshot, logits=logits)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = entry
        self._bytes += entry.nbytes
        while len(self._entries) > self.capacity or (
            self.max_bytes is not None
            and self._bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1
            self._m_evictions.inc()
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
