"""Every name a ``repro`` package exports has a caller outside the tests.

A public name that only ``tests/`` uses is surface nothing needs: it is
deleted together with its tests rather than kept alive by them. A name
counts as used when it appears on a line of a non-test ``.py`` file under
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/`` that is not an
import, not part of an ``__all__`` list and not the name's own ``def`` or
``class`` line. The exceptions are listed below, one reason each.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

ALLOWED = {
    "next_token_logits": "documented reference for the cached decode path (docs/generation.md)",
    "is_quantized": "kept for the int8 ledger arm of ROADMAP item 2(c)",
    "bootstrap_metric": "kept for the paired confidence intervals of ROADMAP item 7",
    "deduplicate_examples": "builds the training set behind the golden deploy fixtures",
    "drop_conflicting_examples": "builds the training set behind the golden deploy fixtures",
}


def _exported_names() -> dict[str, str]:
    """``name -> package`` for every entry of every package ``__all__``."""
    names = {}
    for init in sorted(PACKAGE.rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(PACKAGE.parent).parts)
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for elt in node.value.elts:
                    names.setdefault(elt.value, package)
    return names


def _is_test_file(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py" or "tests" in path.parts


def _caller_lines() -> list[str]:
    """Lines of non-test sources, minus imports and ``__all__`` lists."""
    lines = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if _is_test_file(path.relative_to(ROOT)):
                continue
            source = path.read_text()
            skip = set()
            for node in ast.walk(ast.parse(source)):
                exported = isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                )
                if isinstance(node, (ast.Import, ast.ImportFrom)) or exported:
                    skip.update(range(node.lineno, node.end_lineno + 1))
            lines.extend(
                line for i, line in enumerate(source.splitlines(), 1) if i not in skip
            )
    return lines


def _unused_exports() -> list[str]:
    lines = _caller_lines()
    unused = []
    for name, package in _exported_names().items():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(async\s+)?(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(f"{package}.{name}")
    return unused


def test_every_export_has_a_caller_outside_tests():
    unused = [n for n in _unused_exports() if n.rsplit(".", 1)[1] not in ALLOWED]
    assert unused == [], (
        "exported but only the tests use them; delete them with their tests "
        f"and docs, or add them to ALLOWED with a reason: {unused}"
    )


def test_allowlist_names_are_still_exported():
    exported = _exported_names()
    assert sorted(n for n in ALLOWED if n not in exported) == []
