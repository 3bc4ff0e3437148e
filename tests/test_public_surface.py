"""Every name a ``repro`` package exports has a caller outside the tests.

A public name that only ``tests/`` uses is surface nothing needs: it is
deleted together with its tests rather than kept alive by them. Only code
counts as a caller. A name is used when a non-test ``.py`` file under
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/``

* reads it through a ``repro`` import (``from repro.x import name`` and
  then ``name``) or a ``repro`` module attribute (``repro.x.name``);
* reads it inside the module that defines it, anywhere but its own
  ``def``/``class`` line; or
* names it in a string argument of a perfbench ``Target(...)`` span.

Comments, docstrings, other strings, re-exporting imports nothing reads and
locals that merely share the name do not count. Dunders (``__version__``)
are module protocol, not surface, and are exempt. The exceptions are
listed below, one reason each.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
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
    "concat": "composite RoPE reference for the layer-node tests (tests/test_nn_layer_nodes.py)",
    "softmax": "composite attention reference for the layer-node tests (tests/test_nn_layer_nodes.py)",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = _FUNCTIONS + _COMPREHENSIONS + (ast.ClassDef,)


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in PACKAGE.rglob("*.py")}


@dataclass
class _Scope:
    """The names one scope binds; ``imports`` maps an alias to its dotted target."""

    kind: type
    bound: set[str] = field(default_factory=set)
    imports: dict[str, str] = field(default_factory=dict)


def _scope_nodes(node: ast.AST):
    """Nodes of the scope ``node`` opens, not descending into nested scopes."""
    if isinstance(node, _COMPREHENSIONS):
        todo = [g.target for g in node.generators]
    elif isinstance(node, ast.Lambda):
        todo = [node.body]
    else:
        todo = list(node.body)
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, _SCOPES):
            todo.extend(ast.iter_child_nodes(child))


def _scope(node: ast.AST) -> _Scope:
    scope = _Scope(type(node))
    if isinstance(node, _FUNCTIONS):
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        scope.bound.update(a.arg for a in every if a is not None)
    declared = set()
    for child in _scope_nodes(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            scope.bound.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.bound.add(child.name)
        elif isinstance(child, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and child.name:
            scope.bound.add(child.name)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            declared.update(child.names)
        elif isinstance(child, ast.Import):
            for alias in child.names:
                if alias.asname:
                    scope.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    scope.imports[head] = head
        elif isinstance(child, ast.ImportFrom):  # the package uses no relative imports
            for alias in child.names:
                scope.imports[alias.asname or alias.name] = f"{child.module}.{alias.name}"
    scope.bound |= set(scope.imports)
    scope.bound -= declared
    return scope


@dataclass
class _References:
    """What one source file reads: ``repro`` names and its own module globals."""

    dotted: set[str] = field(default_factory=set)
    own: set[str] = field(default_factory=set)
    targets: set[str] = field(default_factory=set)


def _references(tree: ast.Module) -> _References:
    refs = _References()

    def resolve(name: str, scopes: list[_Scope], chain: list[str]) -> None:
        for depth, scope in enumerate(reversed(scopes)):
            if scope.kind is ast.ClassDef and depth > 0:
                continue  # class bodies do not enclose their methods
            if name in scope.imports:
                refs.dotted.add(".".join([scope.imports[name], *chain]))
                return
            if name in scope.bound:
                if scope.kind is ast.Module:
                    refs.own.add(name)
                return

    def visit(node: ast.AST, scopes: list[_Scope]) -> None:
        if isinstance(node, ast.Attribute):
            chain = []
            base = node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                resolve(base.id, scopes, chain[::-1])
                return
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            resolve(node.id, scopes, [])
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Target"
        ):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    refs.targets.update(arg.value.split("."))
        if isinstance(node, _SCOPES):
            scopes = [*scopes, _scope(node)]
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, [_scope(tree)])
    return refs


def _defining_module(module: str, name: str) -> str | None:
    """The module whose top level binds ``name`` as ``module`` sees it."""
    scope = _scope(ast.parse(MODULES[module].read_text()))
    if name in scope.imports:
        owner, _, inner = scope.imports[name].rpartition(".")
        return _defining_module(owner, inner) if owner in MODULES else None
    return module if name in scope.bound else None


def _exported_names() -> dict[str, str]:
    """``name -> package`` for every entry of every package ``__all__``."""
    names = {}
    for init in sorted(PACKAGE.rglob("__init__.py")):
        package = _module_name(init)
        for node in ast.parse(init.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for elt in node.value.elts:
                    names.setdefault(elt.value, package)
    return names


def _is_test_file(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py" or "tests" in path.parts


def _used_names() -> set[str]:
    """Every export name some non-test code reads, by the three rules above."""
    used, own = set(), set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if _is_test_file(path.relative_to(ROOT)):
                continue
            module = _module_name(path) if PACKAGE in path.parents else ""
            refs = _references(ast.parse(path.read_text()))
            used |= refs.targets
            for dotted in refs.dotted:
                parts = dotted.split(".")
                used.update(
                    parts[i] for i in range(1, len(parts)) if ".".join(parts[:i]) in MODULES
                )
            own.update((module, name) for name in refs.own)
    for name, package in _exported_names().items():
        if (_defining_module(package, name), name) in own:
            used.add(name)
    return used


def _unused_exports() -> list[str]:
    used = _used_names()
    return [
        f"{package}.{name}"
        for name, package in _exported_names().items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_export_has_a_caller_outside_tests():
    unused = [n for n in _unused_exports() if n.rsplit(".", 1)[1] not in ALLOWED]
    assert unused == [], (
        "exported but only the tests use them; delete them with their tests "
        f"and docs, or add them to ALLOWED with a reason: {unused}"
    )


def test_allowlist_names_are_still_exported():
    exported = _exported_names()
    assert sorted(n for n in ALLOWED if n not in exported) == []


def test_allowlist_names_still_have_no_code_caller():
    unused = {n.rsplit(".", 1)[1] for n in _unused_exports()}
    assert sorted(n for n in ALLOWED if n not in unused) == [], (
        "these ALLOWED names now have a code caller; drop their entries"
    )
