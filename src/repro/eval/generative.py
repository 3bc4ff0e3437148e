"""Evaluation of generative multi-choice tasks (sentiment, income QA).

The binary harness in :mod:`repro.eval.harness` covers yes/no tasks;
this module evaluates tasks whose answer is one of N choice words,
reporting accuracy, miss rate and the per-class breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import EvaluationError
from repro.data.instruct import InstructExample
from repro.eval.parsing import parse_choice


@dataclass
class GenerativeEvalResult:
    """Rollup for one generative multi-choice evaluation."""

    n: int
    accuracy: float
    miss: float
    per_class_accuracy: dict[str, float] = field(default_factory=dict)
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)


def evaluate_generative(
    generate_fn: Callable[[str], str],
    examples: Sequence[InstructExample],
    choices: tuple[str, ...],
    generate_batch_fn: Callable[[list[str]], list[str]] | None = None,
) -> GenerativeEvalResult:
    """Run ``generate_fn`` over every example and score parsed choices.

    ``generate_fn`` maps a prompt string to generated text; answers are
    parsed with :func:`~repro.eval.parsing.parse_choice`.  Misses count
    as incorrect for accuracy (and never as a confusion entry).

    ``generate_batch_fn`` (e.g. an
    :meth:`~repro.baselines.lm.LMClassifier.generate_answer_batch` bound
    method) generates every prompt in one batched decode loop instead of
    per-example calls; under greedy decoding the results — and therefore
    the metrics — are identical.
    """
    if not examples:
        raise EvaluationError("evaluate_generative() received no examples")
    if not choices:
        raise EvaluationError("choices must be non-empty")
    unknown = {e.answer for e in examples} - set(choices)
    if unknown:
        raise EvaluationError(f"example answers {sorted(unknown)} not in choices {choices}")

    if generate_batch_fn is not None:
        generations = generate_batch_fn([e.prompt for e in examples])
        if len(generations) != len(examples):
            raise EvaluationError(
                f"generate_batch_fn returned {len(generations)} texts "
                f"for {len(examples)} examples"
            )
    else:
        generations = [generate_fn(e.prompt) for e in examples]

    hits = misses = 0
    per_class: dict[str, list[int]] = {c: [0, 0] for c in choices}  # [hits, total]
    confusion: dict[tuple[str, str], int] = {}
    for example, generated in zip(examples, generations):
        choice = parse_choice(generated, choices)
        per_class[example.answer][1] += 1
        if choice is None:
            misses += 1
            continue
        confusion[(example.answer, choice)] = confusion.get((example.answer, choice), 0) + 1
        if choice == example.answer:
            hits += 1
            per_class[example.answer][0] += 1

    return GenerativeEvalResult(
        n=len(examples),
        accuracy=hits / len(examples),
        miss=misses / len(examples),
        per_class_accuracy={
            cls: (h / t if t else 0.0) for cls, (h, t) in per_class.items()
        },
        confusion=confusion,
    )
