"""Hypothesis property tests for padded batching in the classifier path.

:func:`pad_sequences` preserves every token and only ever *adds*
``pad_id`` on the right.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn.classifier import pad_sequences

PAD_ID = 0
VOCAB = 64
MAX_LEN = 16

# Token ids exclude the pad id so "content token" and "padding" stay
# distinguishable — the masking contract pad_sequences relies on.
token_ids = st.integers(min_value=1, max_value=VOCAB - 1)
sequence = st.lists(token_ids, min_size=1, max_size=MAX_LEN)
ragged_batch = st.lists(sequence, min_size=1, max_size=6)


class TestPadSequencesProperties:
    @given(ragged_batch)
    @settings(max_examples=60, deadline=None)
    def test_shape_is_batch_by_longest(self, sequences):
        padded = pad_sequences(sequences, pad_id=PAD_ID)
        assert padded.shape == (len(sequences), max(len(s) for s in sequences))
        assert padded.dtype == np.int64

    @given(ragged_batch)
    @settings(max_examples=60, deadline=None)
    def test_tokens_preserved_and_tail_is_padding(self, sequences):
        padded = pad_sequences(sequences, pad_id=PAD_ID)
        for row, seq in zip(padded, sequences):
            assert row[: len(seq)].tolist() == list(seq)
            assert (row[len(seq) :] == PAD_ID).all()

    @given(ragged_batch, st.integers(min_value=-5, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_pad_id_round_trips(self, sequences, pad_id):
        padded = pad_sequences(sequences, pad_id=pad_id)
        width = padded.shape[1]
        for row, seq in zip(padded, sequences):
            assert (row[len(seq) :] == pad_id).all()
            # Stripping the pad tail recovers the sequence exactly.
            assert row[: len(seq)].tolist() == list(seq)
            assert len(row) == width

    @given(sequence)
    @settings(max_examples=30, deadline=None)
    def test_single_sequence_is_identity(self, seq):
        padded = pad_sequences([seq], pad_id=PAD_ID)
        assert padded.tolist() == [list(seq)]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ShapeError):
            pad_sequences([])
        with pytest.raises(ShapeError):
            pad_sequences([[1, 2], []])
