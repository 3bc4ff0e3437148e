"""Instruction-data hygiene tests."""

from __future__ import annotations

from repro.data import InstructExample, deduplicate_examples, drop_conflicting_examples


def ex(prompt, answer="yes", label=1):
    return InstructExample(prompt=prompt, answer=answer, label=label)


class TestCleaners:
    def test_deduplicate_keeps_first(self):
        a, b = ex("p1"), ex("p1")
        kept = deduplicate_examples([a, b, ex("p2")])
        assert len(kept) == 2
        assert kept[0] is a

    def test_deduplicate_keeps_distinct_answers(self):
        kept = deduplicate_examples([ex("p1", "yes", 1), ex("p1", "no", 0)])
        assert len(kept) == 2  # conflicting, but not duplicate pairs

    def test_drop_conflicting_removes_all_occurrences(self):
        kept = drop_conflicting_examples(
            [ex("p1", "yes", 1), ex("p1", "no", 0), ex("p2")]
        )
        assert [e.prompt for e in kept] == ["p2"]

    def test_pipeline_dedupe_then_validate(self):
        kept = deduplicate_examples([ex("p1"), ex("p1"), ex("p2")])
        assert len({e.prompt for e in kept}) == len(kept)
