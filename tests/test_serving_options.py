"""Every serving option is passed by a caller outside the tests.

A value that only tests set is not an option but a constant: it belongs
in its module with its one value, where a test that needs another one
patches it. This guard finds every call of the serving tier's
constructors (and of ``deploy`` and ``explain``) in the ``.py`` files
under ``src/`` (the CLI included), ``benchmarks/`` and ``perfbench/``,
maps positional arguments to parameter names, and fails on a parameter
no call passes. Tests and examples do not count as callers.

A call is found by name: ``Name(...)`` or ``module.Name(...)`` for a
constructor, ``super().__init__(...)`` in a subclass for its base's,
``cls(...)`` in a class's own methods for that class's, and
``x.deploy(...)``/``x.explain(...)`` for the two methods. The exceptions
are listed below, one reason each; an entry that gains a caller, or
whose parameter is gone, fails the guard too.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from repro.serving import (
    BehaviorCardService,
    ClusterConfig,
    ClusterSupervisor,
    ContinuousEngine,
    DriftMonitor,
    EngineConfig,
    ExplainConfig,
    ExplainService,
    ForkTransport,
    GenerationApp,
    MicroBatchEngine,
    ReplicaApp,
    ShadowDeployment,
)

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "perfbench")

CONSTRUCTORS = (
    EngineConfig,
    ClusterConfig,
    ExplainConfig,
    ReplicaApp,
    GenerationApp,
    ClusterSupervisor,
    BehaviorCardService,
    MicroBatchEngine,
    ContinuousEngine,
    ForkTransport,
    ShadowDeployment,
    DriftMonitor,
    ExplainService,
)
METHODS = (ClusterSupervisor.deploy, ExplainService.explain)

ALLOWED = {
    "ClusterConfig.tenant_quota": "per-tenant admission quotas are a behaviour the property suite turns on",
    "ExplainConfig.proponents": "opponent explanations are a behaviour the explain tests turn on",
    "BehaviorCardService.threshold": "the decision cut the prompt tests pin decisions at and refuse outside (0, 1)",
    "BehaviorCardService.clock": "a clock is a test substitution: deterministic audit timestamps",
}


def _parameters(target) -> list[str]:
    """Parameter names in call order, ``self`` dropped."""
    names = list(inspect.signature(target).parameters)
    return names[1:] if inspect.isfunction(target) else names


def _caller_sources() -> list[str]:
    sources = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            parts = path.relative_to(ROOT).parts
            if "tests" in parts or path.name.startswith("test_") or path.name == "conftest.py":
                continue
            sources.append(path.read_text())
    return sources


def _calls(tree: ast.Module):
    """Each call node with the innermost class definition enclosing it."""

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, ast.Call):
            yield node, cls
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls)

    yield from visit(tree, None)


def _callee(call: ast.Call, cls: ast.ClassDef | None) -> str | None:
    """The target a call reaches, as ``Class`` or ``Class.method``; None if none."""
    constructors = {c.__name__ for c in CONSTRUCTORS}
    func = call.func
    name = func.id if isinstance(func, ast.Name) else None
    if isinstance(func, ast.Attribute):
        receiver = func.value
        if (
            func.attr == "__init__"
            and isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and cls is not None
        ):
            bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in cls.bases]
            return next((b for b in bases if b in constructors), None)
        methods = {m.__qualname__.split(".")[1]: m.__qualname__ for m in METHODS}
        if func.attr in methods:
            return methods[func.attr]
        name = func.attr
    if name == "cls" and cls is not None:
        name = cls.name
    return name if name in constructors else None


def _passed(sources: list[str]) -> dict[str, set[str]]:
    """``target -> parameter names some call in ``sources`` passes``."""
    targets = {c.__name__: c for c in CONSTRUCTORS}
    targets.update({m.__qualname__: m for m in METHODS})
    passed: dict[str, set[str]] = {name: set() for name in targets}
    for source in sources:
        for call, cls in _calls(ast.parse(source)):
            callee = _callee(call, cls)
            if callee is None:
                continue
            params = _parameters(targets[callee])
            for param, arg in zip(params, call.args):
                if isinstance(arg, ast.Starred):
                    break
                passed[callee].add(param)
            passed[callee].update(kw.arg for kw in call.keywords if kw.arg is not None)
    return passed


def _unpassed() -> list[str]:
    passed = _passed(_caller_sources())
    targets = [*CONSTRUCTORS, *METHODS]
    return [
        f"{target.__qualname__}.{param}"
        for target in targets
        for param in _parameters(target)
        if param not in passed[target.__qualname__]
    ]


def test_every_option_is_passed_by_a_caller_outside_tests():
    unpassed = [name for name in _unpassed() if name not in ALLOWED]
    assert unpassed == [], (
        "only tests set these; make each a module constant with its value, "
        f"or add it to ALLOWED with a reason: {unpassed}"
    )


def test_allowlist_entries_are_still_unpassed_options():
    assert sorted(set(ALLOWED) - set(_unpassed())) == [], (
        "these ALLOWED options gained a caller or are gone; drop their entries"
    )


CALL_SHAPES = """
class Service(ClusterSupervisor):
    def __init__(self, clock):
        super().__init__(factory, clock=clock)

class ExplainService:
    @classmethod
    def build(cls):
        return cls(estimator, examples, *rest, decode=None)

serving.ForkTransport(factory, 0)
cluster.deploy(state)
Unrelated(queue_capacity=1)
"""


def test_the_guard_maps_each_call_shape_to_its_parameters():
    passed = {name: params for name, params in _passed([CALL_SHAPES]).items() if params}
    assert passed == {
        "ClusterSupervisor": {"factory", "clock"},
        "ExplainService": {"estimator", "train_examples", "decode"},
        "ForkTransport": {"factory", "replica_id"},
        "ClusterSupervisor.deploy": {"state"},
    }
