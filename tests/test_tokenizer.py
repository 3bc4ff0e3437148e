"""Tokenizer tests: vocab and word-level (with hypothesis round-trips)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TokenizerError
from repro.tokenizer import (
    BOS_TOKEN,
    EOS_TOKEN,
    PAD_TOKEN,
    Vocab,
    WordTokenizer,
)


class TestVocab:
    def test_special_tokens_get_lowest_ids(self):
        vocab = Vocab()
        assert vocab.pad_id == 0
        assert vocab.token_to_id(PAD_TOKEN) == 0
        assert vocab.token_to_id(BOS_TOKEN) == vocab.bos_id

    def test_add_idempotent(self):
        vocab = Vocab()
        first = vocab.add("hello")
        assert vocab.add("hello") == first
        assert len(vocab) == len(vocab.tokens())

    def test_duplicate_specials_rejected(self):
        with pytest.raises(TokenizerError):
            Vocab(special_tokens=("<a>", "<a>"))

    def test_id_out_of_range(self):
        vocab = Vocab()
        with pytest.raises(TokenizerError):
            vocab.id_to_token(999)

    def test_contains(self):
        vocab = Vocab()
        vocab.add("word")
        assert "word" in vocab
        assert "missing" not in vocab


class TestWordTokenizer:
    def test_roundtrip(self):
        tok = WordTokenizer.train(["the cat sat", "the dog ran"])
        text = "the cat ran"
        assert tok.decode(tok.encode(text)) == text

    def test_unknown_word_maps_to_unk(self):
        tok = WordTokenizer.train(["alpha beta"])
        ids = tok.encode("alpha gamma")
        assert ids[1] == tok.unk_id

    def test_add_special_wraps(self):
        tok = WordTokenizer.train(["x"])
        ids = tok.encode("x", add_special=True)
        assert ids[0] == tok.bos_id
        assert ids[-1] == tok.eos_id

    def test_decode_skips_special(self):
        tok = WordTokenizer.train(["x y"])
        ids = [tok.bos_id] + tok.encode("x y") + [tok.eos_id, tok.pad_id]
        assert tok.decode(ids) == "x y"

    def test_max_vocab_caps_by_frequency(self):
        tok = WordTokenizer.train(["a a a b b c"], max_vocab=7)  # 5 special + 2 words
        assert tok.vocab.token_to_id("a") is not None
        assert tok.vocab.token_to_id("b") is not None
        assert tok.vocab.token_to_id("c") is None

    def test_max_vocab_too_small_raises(self):
        with pytest.raises(TokenizerError):
            WordTokenizer.train(["a"], max_vocab=2)

    def test_training_deterministic(self):
        texts = ["b a", "a c b"]
        a = WordTokenizer.train(texts)
        b = WordTokenizer.train(texts)
        assert a.vocab.tokens() == b.vocab.tokens()

    def test_encode_pair_masks_prompt(self):
        tok = WordTokenizer.train(["question answer yes no"])
        input_ids, labels = tok.encode_pair("question", "yes")
        assert input_ids[0] == tok.bos_id
        assert tok.sep_id in input_ids
        sep_pos = input_ids.index(tok.sep_id)
        assert all(l == -100 for l in labels[: sep_pos + 1])
        assert labels[sep_pos + 1] == input_ids[sep_pos + 1]
        assert labels[-1] == tok.eos_id

    @given(st.lists(st.sampled_from(["loan", "credit", "good", "bad", "risk"]), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, words):
        tok = WordTokenizer.train(["loan credit good bad risk"])
        text = " ".join(words)
        assert tok.decode(tok.encode(text)) == text


class TestWordTokenizerPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        tok = WordTokenizer.train(["credit loan risk good bad"])
        path = tmp_path / "word.json"
        tok.save(path)
        loaded = WordTokenizer.load(path)
        text = "credit risk bad"
        assert loaded.encode(text) == tok.encode(text)
        assert loaded.vocab.tokens() == tok.vocab.tokens()

    def test_load_bad_version(self, tmp_path):
        path = tmp_path / "word.json"
        path.write_text('{"tokens": [], "version": 99}')
        with pytest.raises(TokenizerError):
            WordTokenizer.load(path)

    def test_load_corrupt_specials(self, tmp_path):
        path = tmp_path / "word.json"
        path.write_text('{"tokens": ["a", "b"], "version": 1}')
        with pytest.raises(TokenizerError):
            WordTokenizer.load(path)
