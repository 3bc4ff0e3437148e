"""Gradient row cache: the memory/disk store behind influence replay.

TracInCP / TracSeq replay every stored checkpoint and take a backward
pass per (checkpoint, example) pair — by far the dominant cost of
attribution.  The projected gradient *rows* those passes produce are
pure functions of ``(checkpoint step, example content, projector)``, so
they are cached here and reused across calls: repeated ``influence()``
invocations, ``checkpoint_products`` and gamma sweeps all become pure
recombination of stored rows (the structure Bergson builds attribution
on at scale).

Two tiers:

* **memory** — an LRU of individual rows bounded by entry count and
  bytes (:attr:`GradientStore.max_entries` / ``max_bytes``).
* **disk** (optional) — one ``.npz`` shard per ``(checkpoint step,
  projector key)``, written atomically next to the checkpoint directory
  (``cache_dir``), so a warm cache survives the process.

Keys are content-addressed: the example hash covers input ids *and*
labels, and the projector key covers seed / k / input dim, so changing
any of them is a cache miss, never a stale hit.  Hit / miss / byte
counts are exported through ``repro.obs`` (``influence.store.*``).
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.obs import Observability, get_observability

StoreKey = tuple[int, str, str]


def example_content_hash(example) -> str:
    """Stable content hash of a ``(input_ids, labels)`` token example.

    Python's builtin ``hash`` is salted per process; influence workers
    run in separate processes and disk shards outlive the process, so
    the key must be derived from the token content itself.
    """
    input_ids, labels = example
    payload = (
        np.asarray(input_ids, dtype=np.int64).tobytes()
        + b"|"
        + np.asarray(labels, dtype=np.int64).tobytes()
    )
    return hashlib.sha1(payload).hexdigest()[:20]


class TokenSet(Sequence):
    """Immutable token examples with their content hashes taken once.

    Every influence entry point converts its argument with
    :meth:`of`, so a set built once (a service's training set) is
    hashed once for its lifetime instead of on every call.  Examples
    are frozen to ``(input_ids, labels)`` tuples; ``hashes[i]`` is
    :func:`example_content_hash` of ``examples[i]``.
    """

    def __init__(self, examples=(), _hashes: tuple[str, ...] | None = None):
        self.examples = tuple((tuple(ids), tuple(labels)) for ids, labels in examples)
        if _hashes is None:
            _hashes = tuple(example_content_hash(example) for example in self.examples)
        self.hashes = _hashes

    @classmethod
    def of(cls, examples) -> TokenSet:
        """``examples`` itself when already a :class:`TokenSet`, else a new one."""
        return examples if isinstance(examples, TokenSet) else cls(examples)

    def __add__(self, other) -> TokenSet:
        other = TokenSet.of(other)
        return TokenSet(self.examples + other.examples, self.hashes + other.hashes)

    def __len__(self) -> int:
        return len(self.examples)

    def __getitem__(self, index):
        return self.examples[index]

    def __iter__(self):
        return iter(self.examples)


class GradientStore:
    """Two-tier cache of projected per-sample gradient rows.

    Parameters
    ----------
    max_entries / max_bytes:
        Bounds on the in-memory LRU tier.  ``max_entries=0`` disables
        memory caching entirely (used by benchmarks as the uncached
        baseline).  Evicted rows remain available from disk.
    cache_dir:
        Optional directory for the disk tier.  Shards are only written
        on :meth:`flush` and are loaded lazily, one ``(step, projector)``
        shard at a time.
    obs:
        Observability hub for the ``influence.store.*`` instruments.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        max_bytes: int = 256 << 20,
        cache_dir: str | Path | None = None,
        obs: Observability | None = None,
    ):
        if max_entries < 0 or max_bytes < 0:
            from repro.errors import InfluenceError

            raise InfluenceError("store bounds must be non-negative")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_hit_memory = metrics.counter("influence.store.hits", tier="memory")
        self._m_hit_disk = metrics.counter("influence.store.hits", tier="disk")
        self._m_misses = metrics.counter("influence.store.misses")
        self._m_evictions = metrics.counter("influence.store.evictions")
        self._g_entries = metrics.gauge("influence.store.entries")
        self._g_bytes = metrics.gauge("influence.store.bytes")
        self._rows: OrderedDict[StoreKey, np.ndarray] = OrderedDict()
        self._bytes = 0
        # Per-store counts for stats(); the obs counters above may be
        # shared across stores on the same registry.
        self._counts = {"hits_memory": 0, "hits_disk": 0, "misses": 0, "evictions": 0}
        # Disk shards: {(step, projector_key): {example_hash: row}}; a
        # shard is loaded at most once and written only when dirty.
        self._shards: dict[tuple[int, str], dict[str, np.ndarray]] = {}
        self._dirty: set[tuple[int, str]] = set()

    # -- tier plumbing -------------------------------------------------

    def _shard_path(self, step: int, projector_key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"grads-step{step:06d}-{projector_key}.npz"

    def _shard(self, step: int, projector_key: str) -> dict[str, np.ndarray]:
        shard_key = (step, projector_key)
        shard = self._shards.get(shard_key)
        if shard is None:
            shard = {}
            if self.cache_dir is not None:
                path = self._shard_path(step, projector_key)
                if path.exists():
                    with np.load(path) as data:
                        shard = {name: data[name] for name in data.files}
            self._shards[shard_key] = shard
        return shard

    def _remember(self, key: StoreKey, row: np.ndarray) -> None:
        if self.max_entries == 0:
            return
        if key in self._rows:
            self._rows.move_to_end(key)
            return
        self._rows[key] = row
        self._bytes += row.nbytes
        while self._rows and (
            len(self._rows) > self.max_entries or self._bytes > self.max_bytes
        ):
            _, evicted = self._rows.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._m_evictions.inc()
            self._counts["evictions"] += 1
        self._g_entries.set(len(self._rows))
        self._g_bytes.set(self._bytes)

    # -- public API ----------------------------------------------------

    def get(self, step: int, example_hash: str, projector_key: str) -> np.ndarray | None:
        """Look up one row; memory tier first, then the disk shard."""
        key = (step, example_hash, projector_key)
        row = self._rows.get(key)
        if row is not None:
            self._rows.move_to_end(key)
            self._m_hit_memory.inc()
            self._counts["hits_memory"] += 1
            return row
        row = self._shard(step, projector_key).get(example_hash)
        if row is not None:
            self._m_hit_disk.inc()
            self._counts["hits_disk"] += 1
            self._remember(key, row)
            return row
        self._m_misses.inc()
        self._counts["misses"] += 1
        return None

    def put(self, step: int, example_hash: str, projector_key: str, row: np.ndarray) -> None:
        """Insert one row into the memory tier (and the pending shard)."""
        row = np.ascontiguousarray(row)
        self._remember((step, example_hash, projector_key), row)
        if self.cache_dir is not None:
            self._shard(step, projector_key)[example_hash] = row
            self._dirty.add((step, projector_key))

    def flush(self) -> int:
        """Write dirty disk shards atomically; returns shards written."""
        if self.cache_dir is None:
            self._dirty.clear()
            return 0
        written = 0
        for step, projector_key in sorted(self._dirty):
            path = self._shard_path(step, projector_key)
            # np.savez appends ".npz" to names without it, so the temp
            # name must already carry the suffix.
            tmp = path.with_name("." + path.stem + ".tmp.npz")
            try:
                np.savez(tmp, **self._shards[(step, projector_key)])
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            written += 1
        self._dirty.clear()
        return written

    def stats(self) -> dict[str, float]:
        """Counts for tests and reports (hits by tier, misses, size)."""
        return {
            **{name: float(count) for name, count in self._counts.items()},
            "entries": float(len(self._rows)),
            "bytes": float(self._bytes),
        }

    def __len__(self) -> int:
        return len(self._rows)
