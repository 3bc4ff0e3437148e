"""Padding, collation and batch iteration for token sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import DataError
from repro.tensor.random import default_rng

IGNORE_INDEX = -100


@dataclass
class TokenBatch:
    """A right-padded batch: ``input_ids`` and ``labels`` of shape (B, T)."""

    input_ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.input_ids.shape != self.labels.shape:
            raise DataError(
                f"input_ids {self.input_ids.shape} and labels {self.labels.shape} differ"
            )

    def __len__(self) -> int:
        return self.input_ids.shape[0]


def collate(
    examples: Sequence[tuple[list[int], list[int]]],
    pad_id: int = 0,
    max_len: int | None = None,
) -> TokenBatch:
    """Right-pad a list of ``(input_ids, labels)`` pairs into a batch.

    Padding positions get ``pad_id`` in inputs and ``IGNORE_INDEX`` in
    labels so they never contribute to the loss.  Sequences longer than
    ``max_len`` are truncated on the right.
    """
    if not examples:
        raise DataError("collate() received no examples")
    if max_len is not None:
        examples = [(ids[:max_len], lbl[:max_len]) for ids, lbl in examples]
    width = max(len(ids) for ids, _ in examples)
    batch = len(examples)
    input_ids = np.full((batch, width), pad_id, dtype=np.int64)
    labels = np.full((batch, width), IGNORE_INDEX, dtype=np.int64)
    for row, (ids, lbl) in enumerate(examples):
        if len(ids) != len(lbl):
            raise DataError(f"example {row}: input length {len(ids)} != label length {len(lbl)}")
        input_ids[row, : len(ids)] = ids
        labels[row, : len(lbl)] = lbl
    return TokenBatch(input_ids, labels)


def iter_batches(
    examples: Sequence[tuple[list[int], list[int]]],
    batch_size: int,
    pad_id: int = 0,
    max_len: int | None = None,
    shuffle: bool = True,
    rng=None,
) -> Iterator[TokenBatch]:
    """Yield :class:`TokenBatch` objects over ``examples``."""
    if batch_size <= 0:
        raise DataError(f"batch_size must be positive, got {batch_size}")
    order = np.arange(len(examples))
    if shuffle:
        default_rng(rng).shuffle(order)
    for start in range(0, len(order), batch_size):
        index = order[start : start + batch_size]
        yield collate([examples[i] for i in index], pad_id=pad_id, max_len=max_len)
