"""Prompt templates for each task family (the paper's Table 1).

Discriminative
    Sentiment Analysis:  "{sentence} question: what is the sentiment
                          answer:" -> good / neutral / bad
    Classification:      "{sentence} question: {question} answer:"
                          -> yes / no (or good / bad)
Generative
    QA:                  "{context} question: {question} answer:"
                          -> free-form (here: an income bracket etc.)

Prompts are lower-cased, whitespace-tokenizable strings so the word
tokenizer covers them losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataError


@dataclass(frozen=True)
class PromptTemplate:
    """A named template with ``{field}`` placeholders."""

    name: str
    template: str
    answer_choices: tuple[str, ...] = ()

    def format(self, **fields: str) -> str:
        try:
            return self.template.format(**fields)
        except KeyError as exc:
            raise DataError(f"template {self.name!r} missing field {exc}") from exc


CLASSIFICATION_TEMPLATE = PromptTemplate(
    name="classification",
    template="{sentence} question: {question} ? answer:",
)

SENTIMENT_TEMPLATE = PromptTemplate(
    name="sentiment",
    template="{sentence} question: what is the sentiment ? answer:",
    answer_choices=("good", "neutral", "bad"),
)

QA_TEMPLATE = PromptTemplate(
    name="qa",
    template="{context} question: {question} ? answer:",
)

# The Behavior Card task: the paper's deployed model is fine-tuned on
# this one question and served behind it, so training, serving, shadow
# scoring and explanations all build their prompt with behavior_prompt
# and read its answer words from here ("yes": the user defaults).
BEHAVIOR_QUESTION = "will this user default on their loan"
DECLINE_ANSWER, APPROVE_ANSWER = "yes", "no"


def behavior_prompt(behavior_text: str) -> str:
    """The Behavior Card prompt for one behavior summary."""
    return CLASSIFICATION_TEMPLATE.format(sentence=behavior_text, question=BEHAVIOR_QUESTION)
