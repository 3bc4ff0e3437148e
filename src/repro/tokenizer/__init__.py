"""Word-level tokenizer and its vocabulary."""

from repro.tokenizer.base import BaseTokenizer
from repro.tokenizer.vocab import (
    BOS_TOKEN,
    DEFAULT_SPECIAL_TOKENS,
    EOS_TOKEN,
    PAD_TOKEN,
    SEP_TOKEN,
    UNK_TOKEN,
    Vocab,
)
from repro.tokenizer.whitespace import WordTokenizer

__all__ = [
    "BaseTokenizer",
    "WordTokenizer",
    "Vocab",
    "PAD_TOKEN",
    "UNK_TOKEN",
    "BOS_TOKEN",
    "EOS_TOKEN",
    "SEP_TOKEN",
    "DEFAULT_SPECIAL_TOKENS",
]
