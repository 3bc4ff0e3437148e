"""Every library option is passed by a caller outside the tests.

A value that only tests set is not an option but a constant: it belongs
in its module with its one value, where a test that needs another one
patches it. This guard finds every call of the library's configs,
constructors and configurable functions (and of ``deploy``, ``explain``
and ``histogram``) in the ``.py`` files under ``src/`` (the CLI
included), ``benchmarks/`` (its ``conftest.py`` included) and
``perfbench/``, maps positional arguments to parameter names, and fails
on a parameter no call passes. Tests and examples do not count as
callers, and a ``*args``/``**kwargs`` parameter is not an option.

A call is found by name: ``Name(...)`` or ``module.Name(...)`` for a
constructor or function, ``super().__init__(...)`` in a subclass for its
base's, ``cls(...)`` in a class's own methods for that class's, and
``x.deploy(...)``/``x.explain(...)``/``x.histogram(...)`` for the
methods. A keyword of ``dataclasses.replace(x, k=...)`` counts for every
dataclass target with a parameter ``k``, and a keyword to a call that forwards its
``**kwargs`` counts for the targets it reaches (``FORWARDS``). The
exceptions are listed below, one reason each; an entry that gains a
caller, or whose parameter is gone, fails the guard too.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import itertools
from pathlib import Path

from repro.baselines import LMClassifier
from repro.config import ZiGongConfig
from repro.core import PipelineConfig, PrunerConfig
from repro.data import hybrid_mix
from repro.influence import AgentScorer, DataInf, DataInfluence, GradientStore, TracSeq
from repro.lora import LoRAConfig
from repro.nn import GenerationConfig, ModelConfig, quantize_model
from repro.obs import MetricsRegistry, Tracer
from repro.optim import AdamW
from repro.pipeline import OnlineConfig, OnlinePipeline, PromotionGate
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
from repro.training import CheckpointManager, Trainer, TrainingConfig, iter_batches

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
    ModelConfig,
    GenerationConfig,
    TrainingConfig,
    Trainer,
    ZiGongConfig,
    LoRAConfig,
    AdamW,
    OnlineConfig,
    OnlinePipeline,
    PromotionGate,
    PipelineConfig,
    PrunerConfig,
    DataInfluence,
    TracSeq,
    DataInf,
    GradientStore,
    AgentScorer,
    CheckpointManager,
    LMClassifier,
    Tracer,
)
FUNCTIONS = (quantize_model, iter_batches, hybrid_mix)
METHODS = (ClusterSupervisor.deploy, ExplainService.explain, MetricsRegistry.histogram)

# Calls that hand their ``**kwargs`` on, and the targets those reach.
ESTIMATORS = ("DataInfluence", "TracSeq", "DataInf")
FORWARDS = {
    "make_estimator": ESTIMATORS,
    "ExplainService.for_zigong": ESTIMATORS,
    "TracInCP": ("DataInfluence",),
    "TracSeq": ("DataInfluence",),
    "DataInf": ("DataInfluence",),
    "OnlinePipeline.for_zigong": ("OnlinePipeline",),
}

ALLOWED = {
    "ClusterConfig.tenant_quota": "per-tenant admission quotas are a behaviour the property suite turns on",
    "ExplainConfig.proponents": "opponent explanations are a behaviour the explain tests turn on",
    "BehaviorCardService.threshold": "the decision cut the prompt tests pin decisions at and refuse outside (0, 1)",
    "BehaviorCardService.clock": "a clock is a test substitution: deterministic audit timestamps",
    "ModelConfig.rope_theta": "a saved-format field of a model artifact's config",
    "ModelConfig.tie_embeddings": "a saved-format field of a model artifact's config; the untied head is a documented axis",
    "Trainer.clock": "a clock is a test substitution: deterministic step timings",
    "Trainer.obs": "an observability hub is a test substitution: an isolated registry",
    "OnlinePipeline.eval_samples": "a gate check the gate tests turn on: Behavior Card metric deltas",
    "OnlinePipeline.eval_groups": "a gate check the gate tests turn on: fairness gaps",
    "PromotionGate.min_correlation": "a gate check the gate tests turn on",
    "PromotionGate.max_parity_gap": "a gate check the gate tests turn on",
    "PromotionGate.max_odds_gap": "a gate check the gate tests turn on",
    "TracSeq.checkpoint_times": "reserved for round-indexed lineage: explicit checkpoint times",
}


def _signature(target) -> list[inspect.Parameter]:
    """The parameters a call fills, in order, ``self`` dropped."""
    params = list(inspect.signature(target).parameters.values())
    return params[1:] if target in METHODS else params


def _parameters(target) -> list[str]:
    """Option names in call order: a ``*args``/``**kwargs`` parameter is not one."""
    variadic = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    return [p.name for p in _signature(target) if p.kind not in variadic]


def _positional(target) -> list[str]:
    """The parameters positional arguments fill, in order."""
    fill = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in itertools.takewhile(lambda p: p.kind in fill, _signature(target))]


def _targets() -> dict[str, object]:
    return {t.__qualname__: t for t in (*CONSTRUCTORS, *FUNCTIONS, *METHODS)}


def _caller_sources() -> list[str]:
    sources = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            parts = path.relative_to(ROOT).parts
            if "tests" in parts or path.name.startswith("test_"):
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
    """The name a call reaches: ``Name``, ``Class.method`` or ``replace``; None if unknown."""
    known = {t.__name__ for t in (*CONSTRUCTORS, *FUNCTIONS)} | set(FORWARDS) | {"replace"}
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
            return next((b for b in bases if b in known), None)
        methods = {m.__name__: m.__qualname__ for m in METHODS}
        if func.attr in methods:
            return methods[func.attr]
        if isinstance(receiver, ast.Name) and f"{receiver.id}.{func.attr}" in FORWARDS:
            return f"{receiver.id}.{func.attr}"
        name = func.attr
    if name == "cls" and cls is not None:
        name = cls.name
    return name if name in known else None


def _passed(sources: list[str]) -> dict[str, set[str]]:
    """``target -> parameter names some call in ``sources`` passes``."""
    targets = _targets()
    params = {name: _parameters(target) for name, target in targets.items()}
    positional = {name: _positional(target) for name, target in targets.items()}
    passed: dict[str, set[str]] = {name: set() for name in targets}
    for source in sources:
        for call, cls in _calls(ast.parse(source)):
            callee = _callee(call, cls)
            if callee is None:
                continue
            keywords = {kw.arg for kw in call.keywords if kw.arg is not None}
            if callee == "replace":
                for name, target in targets.items():
                    if dataclasses.is_dataclass(target):
                        passed[name].update(keywords & set(params[name]))
                continue
            for forwarded in FORWARDS.get(callee, ()):
                passed[forwarded].update(keywords & set(params[forwarded]))
            if callee not in targets:
                continue
            for param, arg in zip(positional[callee], call.args):
                if isinstance(arg, ast.Starred):
                    break
                passed[callee].add(param)
            passed[callee].update(keywords & set(params[callee]))
    return passed


def _unpassed() -> list[str]:
    passed = _passed(_caller_sources())
    return [
        f"{name}.{param}"
        for name, target in _targets().items()
        for param in _parameters(target)
        if param not in passed[name]
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
dataclasses.replace(cfg, base_lr=1e-3)
make_estimator("datainf", m, c, lam=0.5)
OnlinePipeline.for_zigong(zigong, scores, work_dir, eval_samples=samples)
"""


def test_the_guard_maps_each_call_shape_to_its_parameters():
    passed = {name: params for name, params in _passed([CALL_SHAPES]).items() if params}
    assert passed == {
        "ClusterSupervisor": {"factory", "clock"},
        "ExplainService": {"estimator", "train_examples", "decode"},
        "ForkTransport": {"factory", "replica_id"},
        "ClusterSupervisor.deploy": {"state"},
        "ZiGongConfig": {"base_lr"},
        "DataInf": {"lam"},
        "OnlinePipeline": {"eval_samples"},
    }
