"""Instruction-data tests: templates, examples, tokenization, mixing, IO."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError
from repro.data import (
    CLASSIFICATION_TEMPLATE,
    QA_TEMPLATE,
    SENTIMENT_TEMPLATE,
    InstructExample,
    build_behavior_examples,
    build_classification_examples,
    build_income_examples,
    corpus_texts,
    hybrid_mix,
    labels_of,
    load_jsonl,
    save_jsonl,
    timestamps_of,
    tokenize_examples,
)
from repro.datasets import make_behavior, make_german, make_income
from repro.tokenizer import WordTokenizer


class TestTemplates:
    def test_classification_format(self):
        text = CLASSIFICATION_TEMPLATE.format(sentence="a=1 b=2", question="is it good")
        assert text == "a=1 b=2 question: is it good ? answer:"

    def test_sentiment_choices(self):
        assert SENTIMENT_TEMPLATE.answer_choices == ("good", "neutral", "bad")

    def test_missing_field_raises(self):
        with pytest.raises(DataError):
            QA_TEMPLATE.format(context="x")


class TestExampleBuilders:
    def test_classification_examples(self, german_small):
        examples = build_classification_examples(german_small)
        assert len(examples) == len(german_small)
        ex = examples[0]
        assert ex.answer in ("good", "bad")
        assert ex.label in (0, 1)
        assert (ex.answer == "good") == (ex.label == 1)
        assert ex.meta["dataset"] == "german"
        assert "question:" in ex.prompt

    def test_behavior_examples_carry_period_timestamps(self):
        ds = make_behavior(n_users=6, n_periods=4, seed=0)
        examples = build_behavior_examples(ds)
        assert len(examples) == 24
        stamps = timestamps_of(examples)
        assert set(stamps) == {0.0, 1.0, 2.0, 3.0}

    def test_income_examples_generative(self):
        ds = make_income(n=20, seed=0)
        examples = build_income_examples(ds)
        assert len(examples) == 20
        assert examples[0].answer in ("low", "medium", "high")

    def test_labels_of(self, german_examples):
        labels = labels_of(german_examples)
        assert labels.dtype == np.int64
        assert set(np.unique(labels)) <= {0, 1}

    def test_corpus_texts_include_answers(self, german_examples):
        texts = corpus_texts(german_examples[:3])
        for text, ex in zip(texts, german_examples[:3]):
            assert text.endswith(ex.answer)


class TestTokenization:
    @pytest.fixture
    def tok(self, german_examples):
        return WordTokenizer.train(corpus_texts(german_examples))

    def test_answer_span_supervised_only(self, german_examples, tok):
        encoded = tokenize_examples(german_examples[:5], tok)
        for input_ids, labels in encoded:
            assert len(input_ids) == len(labels)
            sep_pos = input_ids.index(tok.sep_id)
            assert all(l == -100 for l in labels[: sep_pos + 1])
            assert labels[sep_pos + 1] != -100
            assert labels[-1] == tok.eos_id

    def test_truncation_guard(self, german_examples, tok):
        with pytest.raises(DataError):
            tokenize_examples(german_examples[:1], tok, max_len=4)

    def test_max_len_respected_when_safe(self, german_examples, tok):
        full = tokenize_examples(german_examples[:1], tok)[0]
        limit = len(full[0]) - 0  # no truncation needed
        encoded = tokenize_examples(german_examples[:1], tok, max_len=limit)
        assert len(encoded[0][0]) <= limit


class TestHybridMix:
    def _scores(self, n):
        return np.arange(n, dtype=np.float64)  # score == index

    def test_default_composition(self):
        examples = list(range(100))
        mixed = hybrid_mix(examples, self._scores(100), pruned_fraction=0.3, seed=0)
        assert len(mixed) == 100
        top30 = set(range(70, 100))
        assert top30 <= set(mixed)  # all top-K present
        assert len(set(mixed)) == 100  # no duplicates by default

    def test_total_override(self):
        mixed = hybrid_mix(list(range(50)), self._scores(50), total=20, seed=0)
        assert len(mixed) == 20
        assert set(range(44, 50)) <= set(mixed)  # top 30% of 20 = 6 items

    def test_pruned_fraction_one_is_pure_topk(self):
        mixed = hybrid_mix(list(range(10)), self._scores(10), total=4, pruned_fraction=1.0)
        assert set(mixed) == {6, 7, 8, 9}

    def test_pruned_fraction_zero_is_pure_random(self):
        mixed = hybrid_mix(list(range(10)), self._scores(10), total=5, pruned_fraction=0.0, seed=1)
        assert len(mixed) == 5

    def test_seeded_deterministic(self):
        a = hybrid_mix(list(range(30)), self._scores(30), seed=3)
        b = hybrid_mix(list(range(30)), self._scores(30), seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(DataError):
            hybrid_mix([1, 2], np.ones(3))
        with pytest.raises(DataError):
            hybrid_mix([1, 2], np.ones(2), pruned_fraction=1.5)
        with pytest.raises(DataError):
            hybrid_mix([1, 2], np.ones(2), total=5)


class TestSerialization:
    def test_roundtrip(self, tmp_path, german_examples):
        path = tmp_path / "data.jsonl"
        count = save_jsonl(german_examples[:10], path)
        assert count == 10
        loaded = load_jsonl(path)
        assert loaded == list(german_examples[:10])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        save_jsonl([InstructExample("p", "a", 1)], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_jsonl(path)) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_jsonl(tmp_path / "nope.jsonl")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(DataError):
            load_jsonl(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt": "p"}\n')
        with pytest.raises(DataError):
            load_jsonl(path)


class TestHybridMixStratified:
    def test_labels_keep_pruned_slice_balanced(self):
        examples = list(range(100))
        labels = [0] * 80 + [1] * 20
        # Scores heavily favor the majority class.
        scores = np.array([1.0] * 80 + [0.0] * 20, dtype=np.float64)
        mixed = hybrid_mix(examples, scores, total=40, pruned_fraction=1.0, labels=labels)
        minority = sum(1 for m in mixed if m >= 80)
        assert minority == 8  # 20% of 40

    def test_without_labels_majority_dominates(self):
        examples = list(range(100))
        labels = [0] * 80 + [1] * 20
        scores = np.array([1.0] * 80 + [0.0] * 20, dtype=np.float64)
        mixed = hybrid_mix(examples, scores, total=40, pruned_fraction=1.0)
        assert all(m < 80 for m in mixed)
