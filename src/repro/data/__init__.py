"""Instruction-data construction: templates, examples, mixing, persistence."""

from repro.data.instruct import (
    InstructExample,
    build_behavior_examples,
    build_classification_examples,
    build_income_examples,
    build_sentiment_examples,
    corpus_texts,
    labels_of,
    timestamps_of,
    tokenize_examples,
)
from repro.data.mixing import hybrid_mix
from repro.data.serialization import load_jsonl, save_jsonl
from repro.data.validation import deduplicate_examples, drop_conflicting_examples
from repro.data.templates import (
    CLASSIFICATION_TEMPLATE,
    QA_TEMPLATE,
    SENTIMENT_TEMPLATE,
    PromptTemplate,
)

__all__ = [
    "InstructExample",
    "build_classification_examples",
    "build_behavior_examples",
    "build_income_examples",
    "build_sentiment_examples",
    "corpus_texts",
    "tokenize_examples",
    "timestamps_of",
    "labels_of",
    "hybrid_mix",
    "save_jsonl",
    "load_jsonl",
    "deduplicate_examples",
    "drop_conflicting_examples",
    "PromptTemplate",
    "CLASSIFICATION_TEMPLATE",
    "SENTIMENT_TEMPLATE",
    "QA_TEMPLATE",
]
