"""Word-level tokenizer.

Instruction prompts in this reproduction are built from a closed set of
template words and binned feature tokens (``duration=short``), so a
word-level vocabulary is both compact and fully lossless on that domain.
This is the tokenizer of the ZiGong pipeline.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.errors import TokenizerError
from repro.tokenizer.base import BaseTokenizer
from repro.tokenizer.vocab import DEFAULT_SPECIAL_TOKENS, Vocab


class WordTokenizer(BaseTokenizer):
    """Whitespace tokenizer over a trained word vocabulary.

    Decoding joins tokens with single spaces, so round-trips are exact up
    to whitespace normalization.
    """

    def __init__(self, vocab: Vocab):
        super().__init__(vocab)

    @classmethod
    def train(cls, texts: Iterable[str], max_vocab: int | None = None) -> "WordTokenizer":
        """Build a vocabulary from ``texts``.

        Words are ranked by frequency (ties broken alphabetically for
        determinism); ``max_vocab`` caps the total size including special
        tokens.
        """
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(text.split())
        vocab = Vocab()
        budget = None if max_vocab is None else max_vocab - len(vocab)
        if budget is not None and budget < 0:
            raise TokenizerError(f"max_vocab={max_vocab} smaller than special token count")
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for i, (word, _) in enumerate(ranked):
            if budget is not None and i >= budget:
                break
            vocab.add(word)
        return cls(vocab)

    def encode(self, text: str, add_special: bool = False) -> list[int]:
        ids = []
        for word in text.split():
            idx = self.vocab.token_to_id(word)
            ids.append(self.unk_id if idx is None else idx)
        if add_special:
            ids = [self.bos_id] + ids + [self.eos_id]
        return ids

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "WordTokenizer":
        """The tokenizer of a saved ``vocab.tokens()``: ids are positions in ``tokens``."""
        if tuple(tokens[: len(DEFAULT_SPECIAL_TOKENS)]) != DEFAULT_SPECIAL_TOKENS:
            raise TokenizerError("token list does not start with the special tokens")
        vocab = Vocab()
        for token in tokens[len(DEFAULT_SPECIAL_TOKENS):]:
            vocab.add(token)
        if len(vocab) != len(tokens):
            raise TokenizerError("token list holds a token twice")
        return cls(vocab)

    def decode(self, ids: list[int], skip_special: bool = True) -> str:
        specials = {self.pad_id, self.bos_id, self.eos_id, self.sep_id}
        words = []
        for idx in ids:
            if skip_special and idx in specials:
                continue
            words.append(self.vocab.id_to_token(int(idx)))
        return " ".join(words)
