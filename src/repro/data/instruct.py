"""Instruction examples: construction from datasets and tokenization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import DataError
from repro.datasets.base import TabularDataset
from repro.datasets.behavior import BehaviorDataset
from repro.data.templates import (
    APPROVE_ANSWER,
    CLASSIFICATION_TEMPLATE,
    DECLINE_ANSWER,
    QA_TEMPLATE,
    behavior_prompt,
)
from repro.tokenizer.base import BaseTokenizer


@dataclass(frozen=True)
class InstructExample:
    """One supervised instruction pair.

    ``label`` is the underlying binary/ordinal class (used by metrics and
    the agent scorer); ``timestamp`` carries temporal position for
    TracSeq; ``meta`` holds provenance (dataset name, row index, ...).
    """

    prompt: str
    answer: str
    label: int
    timestamp: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def text(self) -> str:
        return f"{self.prompt} {self.answer}"


def build_classification_examples(dataset: TabularDataset) -> list[InstructExample]:
    """Verbalize every row of a tabular dataset with the Table-1 template."""
    examples = []
    for i in range(len(dataset)):
        prompt = CLASSIFICATION_TEMPLATE.format(
            sentence=dataset.row_text(i), question=dataset.question
        )
        examples.append(
            InstructExample(
                prompt=prompt,
                answer=dataset.label_text(i),
                label=int(dataset.y[i]),
                timestamp=float(dataset.timestamps[i]) if dataset.timestamps is not None else 0.0,
                meta={"dataset": dataset.name, "row": i},
            )
        )
    return examples


def build_behavior_examples(dataset: BehaviorDataset) -> list[InstructExample]:
    """One example per user-period from sequential behavior data.

    The timestamp is the period index — the input TracSeq's decay runs
    on.  The supervision target for every period is the user's final
    default outcome, so early-period samples are intrinsically noisier.
    """
    examples = []
    for text, label, period, user in dataset.supervised_rows():
        examples.append(
            InstructExample(
                prompt=behavior_prompt(text),
                answer=DECLINE_ANSWER if label == 1 else APPROVE_ANSWER,
                label=label,
                timestamp=float(period),
                meta={"dataset": "behavior", "user": user, "period": period},
            )
        )
    return examples


def build_sentiment_examples(dataset) -> list[InstructExample]:
    """Three-class sentiment examples with the Table-1 sentiment template."""
    from repro.data.templates import SENTIMENT_TEMPLATE

    examples = []
    for i in range(len(dataset)):
        prompt = SENTIMENT_TEMPLATE.format(sentence=dataset.texts[i])
        examples.append(
            InstructExample(
                prompt=prompt,
                answer=dataset.label_text(i),
                label=int(dataset.labels[i]),
                meta={"dataset": "sentiment", "row": i},
            )
        )
    return examples


def build_income_examples(dataset) -> list[InstructExample]:
    """Generative QA examples from the phone-attribute income data."""
    question = "what is the expected income bracket of this user"
    examples = []
    for i in range(len(dataset)):
        prompt = QA_TEMPLATE.format(context=dataset.row_text(i), question=question)
        examples.append(
            InstructExample(
                prompt=prompt,
                answer=dataset.bracket_text(i),
                label=int(dataset.bracket[i]),
                meta={"dataset": "income", "row": i},
            )
        )
    return examples


def corpus_texts(examples: Sequence[InstructExample]) -> list[str]:
    """Full texts (prompt + answer) for tokenizer training."""
    return [example.text for example in examples]


def tokenize_examples(
    examples: Sequence[InstructExample],
    tokenizer: BaseTokenizer,
    max_len: int | None = None,
) -> list[tuple[list[int], list[int]]]:
    """Encode examples as ``(input_ids, labels)`` with answer-only supervision.

    Raises if an example would leave no supervised answer tokens after
    truncation — silently dropping supervision is how fine-tunes go wrong.
    """
    encoded = []
    for i, example in enumerate(examples):
        input_ids, labels = tokenizer.encode_pair(example.prompt, example.answer)
        if max_len is not None and len(input_ids) > max_len:
            if all(l == -100 for l in labels[:max_len]):
                raise DataError(
                    f"example {i}: truncation to {max_len} removes the whole answer span"
                )
            input_ids, labels = input_ids[:max_len], labels[:max_len]
        encoded.append((input_ids, labels))
    return encoded


def timestamps_of(examples: Sequence[InstructExample]) -> np.ndarray:
    return np.asarray([e.timestamp for e in examples], dtype=np.float64)


def labels_of(examples: Sequence[InstructExample]) -> np.ndarray:
    return np.asarray([e.label for e in examples], dtype=np.int64)
