"""Instruction-data hygiene.

"Constructing high-quality data is crucial for LLMs" (Section 3.1) —
before any influence scoring, production data pipelines drop duplicate
examples (wasted budget, leakage across splits) and label conflicts —
the same prompt appearing with different answers (direct label noise,
a primary hallucination source).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.data.instruct import InstructExample


def deduplicate_examples(examples: Sequence[InstructExample]) -> list[InstructExample]:
    """Drop repeated (prompt, answer) pairs, keeping first occurrences."""
    seen: set[tuple[str, str]] = set()
    kept = []
    for example in examples:
        key = (example.prompt, example.answer)
        if key in seen:
            continue
        seen.add(key)
        kept.append(example)
    return kept


def drop_conflicting_examples(examples: Sequence[InstructExample]) -> list[InstructExample]:
    """Remove every example whose prompt appears with multiple answers.

    Conservative: on conflict, *all* occurrences go (there is no way to
    know which label is right without the upstream source).
    """
    prompt_answers: dict[str, set[str]] = defaultdict(set)
    for e in examples:
        prompt_answers[e.prompt].add(e.answer)
    return [e for e in examples if len(prompt_answers[e.prompt]) == 1]
