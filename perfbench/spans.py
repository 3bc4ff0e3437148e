"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces public functions of each layer at class (or
module) level with a wrapper that records a span — name, start, end,
parent span and request id — and puts every original back on exit.  Spans
stay in memory while the run measures and are written out at the end.
A layer's self time is its span minus the part its child spans cover.
Span times are CPU time of the driving thread (``stats.clock``).

Wrappers record only while :attr:`Tracer.recording` is set, so set-up and
warm-up traffic never reaches the per-layer numbers.  Objects that bind a
wrapped method at construction (the cluster's engines bind
``ThreadTransport.score``) must be built after :meth:`Tracer.install`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from stats import clock


@dataclass(frozen=True)
class Target:
    """One function to wrap and how to read its arguments and result."""

    module: str
    owner: str | None  # class name, or None for a module-level function
    attr: str
    span: str  # span name; the part before the first dot is the layer
    request: Callable | None = None  # (args, kwargs) -> request id
    before: Callable | None = None  # (args, kwargs) -> state handed to after
    after: Callable | None = None  # (tracer, span, args, kwargs, result, state)


# -- hooks ---------------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _forward_flops(tracer, span, args, kwargs, result, state):
    from repro.nn.flops import estimate_decode_flops, estimate_flops

    model = args[0]
    ids = _arg(args, kwargs, 1, "token_ids")
    cache = kwargs.get("cache", args[2] if len(args) > 2 else None)
    batch, length = (1, ids.shape[0]) if ids.ndim == 1 else ids.shape
    quantized = model._inference_kernel is not None
    if length == 1 and cache is not None:
        kind, key = "decode", (id(model.config), len(cache[0]), quantized)
        if key not in tracer._flops:
            tracer._flops[key] = estimate_decode_flops(model.config, len(cache[0]), quantized).flops_per_token
    else:
        kind, key = "prefill", (id(model.config), -length, quantized)
        if key not in tracer._flops:
            tracer._flops[key] = estimate_flops(model.config, length, quantized).flops_per_token * length
    span[5] = {"kind": kind, "flops": tracer._flops[key] * batch}


def _hit(tracer, span, args, kwargs, result, state):
    span[5] = {"hit": result is not None}


def _pad(tracer, span, args, kwargs, result, state):
    real = sum(len(row) for row in _arg(args, kwargs, 0, "sequences"))
    span[5] = {"real": real, "total": int(result.size)}


def _engine_submit(tracer, span, args, kwargs, result, state):
    enqueued = span[2]
    result.add_done_callback(lambda _p: tracer._queue_wait("engine", enqueued))


def _continuous_submit(tracer, span, args, kwargs, result, state):
    tracer._enqueued[result.request.user_id] = span[2]


def _scheduler_submit(tracer, span, args, kwargs, result, state):
    enqueued = tracer._enqueued.pop(result.request_id, None)
    if enqueued is not None:
        tracer.waits["continuous"].append(span[1] - enqueued)


def _waiting(args, kwargs):
    return args[0].waiting


def _scheduler_step(tracer, span, args, kwargs, result, waiting_before):
    admitted = waiting_before - args[0].waiting
    span[5] = {"admitted": admitted, "decoded": result - admitted}


def _returned(tracer, span, args, kwargs, result, state):
    span[5] = {"result": result}


def _trained(tracer, span, args, kwargs, result, state):
    span[5] = {"tokens": sum(step.tokens for step in result.steps)}


def _request(index: int, name: str):
    def read(args, kwargs):
        value = _arg(args, kwargs, index, name)
        return getattr(value, "user_id", value)

    return read


TARGETS = (
    Target("repro.serving.cluster", "ClusterSupervisor", "submit", "cluster.submit", _request(1, "request")),
    Target("repro.serving.cluster", "ThreadTransport", "score", "cluster.score"),
    Target("repro.serving.engine", "MicroBatchEngine", "submit", "engine.submit",
           _request(1, "request"), after=_engine_submit),
    Target("repro.serving.engine", "MicroBatchEngine", "pump", "engine.pump", after=_returned),
    Target("repro.serving.continuous", "ContinuousEngine", "submit", "continuous.submit",
           _request(1, "request"), after=_continuous_submit),
    Target("repro.serving.continuous", "ContinuousEngine", "pump", "continuous.pump"),
    Target("repro.nn.continuous", "ContinuousScheduler", "submit", "scheduler.submit",
           lambda a, k: k.get("request_id"), after=_scheduler_submit),
    Target("repro.nn.continuous", "ContinuousScheduler", "step", "scheduler.step",
           before=_waiting, after=_scheduler_step),
    Target("repro.nn.cache", "LayerKVCache", "admit_rows", "kv.admit_rows"),
    Target("repro.nn.cache", "LayerKVCache", "select_rows", "kv.select_rows"),
    Target("repro.nn.cache", "PrefixCache", "lookup", "prefix.lookup", after=_hit),
    Target("repro.baselines.lm", "LMClassifier", "score", "lm.score"),
    Target("repro.baselines.lm", "LMClassifier", "score_batch", "lm.score_batch"),
    Target("repro.nn.classifier", None, "pad_sequences", "lm.pad", after=_pad),
    Target("repro.tokenizer.whitespace", "WordTokenizer", "encode", "tokenizer.encode"),
    Target("repro.nn.transformer", "MistralTiny", "forward", "nn.forward", after=_forward_flops),
    Target("repro.serving.behavior_card", "BehaviorCardService", "decide", "card.decide",
           _request(1, "user_id")),
    Target("repro.serving.explain", "ExplainService", "explain", "explain.query", _request(1, "user_id")),
    Target("repro.influence.api", "DataInfluence", "k_most_influential", "influence.k_most"),
    Target("repro.influence.datainf", "DataInf", "token_influence", "influence.token"),
    Target("repro.influence.tracin", "TracInCP", "influence", "influence.tracin"),
    Target("repro.influence.store", "GradientStore", "get", "store.get", after=_hit),
    Target("repro.tensor.tensor", "Tensor", "backward", "tensor.backward"),
    Target("repro.core.pipeline", "ZiGongPipeline", "run", "pipeline.run"),
    Target("repro.core.pruning", "DataPruner", "score", "pruner.score"),
    Target("repro.training.trainer", "Trainer", "train", "trainer.train", after=_trained),
    Target("repro.optim.adamw", "AdamW", "step", "optim.step"),
)

LAYERS = (
    "cluster", "engine", "continuous", "scheduler", "kv", "prefix", "lm", "tokenizer", "nn",
    "card", "explain", "influence", "store", "tensor", "pipeline", "pruner", "trainer", "optim",
)

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("cluster.submit_us", "us"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.batch_size_mean", "count"),
    ("engine.pump_overhead_ms", "ms"),
    ("continuous.queue_wait_ms", "ms"),
    ("continuous.step_ms", "ms"),
    ("continuous.admit_step_ms", "ms"),
    ("continuous.live_rows_mean", "count"),
    ("kv.admit_rows_us", "us"),
    ("kv.select_rows_us", "us"),
    ("prefix.hit_rate", "ratio"),
    ("lm.score_batch_ms", "ms"),
    ("lm.pad_share", "ratio"),
    ("tokenizer.encode_us", "us"),
    ("nn.forward_prefill_ms", "ms"),
    ("nn.forward_decode_ms", "ms"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("nn.forward_calls", "count"),
    ("explain.decide_ms", "ms"),
    ("influence.k_most_ms", "ms"),
    ("influence.token_ms", "ms"),
    ("store.hit_rate", "ratio"),
    ("store.misses", "count"),
    ("tensor.backward_ms", "ms"),
    ("tensor.backward_calls", "count"),
    ("pruner.score_s", "s"),
    ("trainer.train_s", "s"),
    ("trainer.tokens_per_s", "1/s"),
    ("optim.step_ms", "ms"),
    *((f"self.{layer}_ms", "ms") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Installs the wrappers, keeps the spans, derives per-layer metrics."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.recording = False
        # Each span: [name, start, end, parent index, request id, attrs].
        self.spans: list[list] = []
        self.waits: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []
        self._enqueued: dict[str, float] = {}
        self._flops: dict = {}
        self._installed: list[tuple[object, str, object, bool]] = []
        self._sites: list[tuple[object, str]] = []
        self.origin = clock()

    # -- installation --------------------------------------------------

    def install(self) -> "Tracer":
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner = getattr(module, target.owner) if target.owner else module
            own = target.attr in vars(owner)
            original = vars(owner)[target.attr] if own else None
            setattr(owner, target.attr, self._wrap(target, getattr(owner, target.attr)))
            self._installed.append((owner, target.attr, original, own))
            self._sites.append((owner, target.attr))
        return self

    def restore(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the override so lookup reaches the base again
                delattr(owner, attr)

    def leftovers(self) -> list[str]:
        """Wrapped functions still in place (empty once restored)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr in self._sites
            if getattr(getattr(owner, attr), "__perfbench_wrapper__", False)
        ]

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.recording = False
        self.restore()

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = target.before(args, kwargs) if target.before else None
            parent = tracer._open[-1] if tracer._open else None
            request = target.request(args, kwargs) if target.request else None
            if request is None and parent is not None:
                request = tracer.spans[parent][4]
            span = [target.span, clock(), 0.0, parent, request, None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer._open.pop()
            if target.after:
                target.after(tracer, span, args, kwargs, result, state)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _queue_wait(self, layer: str, enqueued: float) -> None:
        """Record the wait from enqueue to the start of the enclosing pump."""
        for index in reversed(self._open):
            span = self.spans[index]
            if span[0] == f"{layer}.pump":
                self.waits[layer].append(span[1] - enqueued)
                return

    # -- results -------------------------------------------------------

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def self_times(self) -> dict[str, float]:
        """Total self time per layer, in seconds."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self._self_seconds()):
            layer = span[0].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def metrics(self, overhead_pct: float) -> dict[str, tuple[float, str]]:
        spans = defaultdict(list)
        for span in self.spans:
            spans[span[0]].append(span)

        def durations(name, where=lambda s: True):
            return [s[2] - s[1] for s in spans[name] if where(s)]

        def mean(values, scale=1.0):
            return scale * sum(values) / len(values) if values else 0.0

        def ratio(hits, total):
            return hits / total if total else 0.0

        forwards = spans["nn.forward"]
        own = self._self_seconds()
        pumps = [s for s in spans["engine.pump"] if s[5]["result"]]
        # The pump's self time is the pump minus its batch function.
        pump_overhead = [
            own[i] for i, s in enumerate(self.spans) if s[0] == "engine.pump" and s[5]["result"]
        ]
        steps = spans["scheduler.step"]
        lookups = spans["prefix.lookup"]
        gets = spans["store.get"]
        pads = spans["lm.pad"]
        trains = spans["trainer.train"]
        train_s = durations("trainer.train")
        forward_s = sum(s[2] - s[1] for s in forwards)
        self_times = self.self_times()
        values = {
            "cluster.submit_us": mean(durations("cluster.submit"), 1e6),
            "engine.queue_wait_ms": mean(self.waits["engine"], 1e3),
            "engine.batch_size_mean": mean([s[5]["result"] for s in pumps]),
            "engine.pump_overhead_ms": mean(pump_overhead, 1e3),
            "continuous.queue_wait_ms": mean(self.waits["continuous"], 1e3),
            "continuous.step_ms": mean(durations("scheduler.step"), 1e3),
            "continuous.admit_step_ms": mean(
                durations("scheduler.step", lambda s: s[5]["admitted"] > 0), 1e3
            ),
            "continuous.live_rows_mean": mean([s[5]["decoded"] for s in steps]),
            "kv.admit_rows_us": mean(durations("kv.admit_rows"), 1e6),
            "kv.select_rows_us": mean(durations("kv.select_rows"), 1e6),
            "prefix.hit_rate": ratio(sum(s[5]["hit"] for s in lookups), len(lookups)),
            "lm.score_batch_ms": mean(durations("lm.score_batch"), 1e3),
            "lm.pad_share": 1.0 - ratio(
                sum(s[5]["real"] for s in pads), sum(s[5]["total"] for s in pads)
            ) if pads else 0.0,
            "tokenizer.encode_us": mean(durations("tokenizer.encode"), 1e6),
            "nn.forward_prefill_ms": mean(
                durations("nn.forward", lambda s: s[5]["kind"] == "prefill"), 1e3
            ),
            "nn.forward_decode_ms": mean(
                durations("nn.forward", lambda s: s[5]["kind"] == "decode"), 1e3
            ),
            "nn.forward_gflops": sum(s[5]["flops"] for s in forwards) / forward_s / 1e9
            if forward_s else 0.0,
            "nn.forward_calls": float(len(forwards)),
            "explain.decide_ms": mean(durations("card.decide"), 1e3),
            "influence.k_most_ms": mean(durations("influence.k_most"), 1e3),
            "influence.token_ms": mean(durations("influence.token"), 1e3),
            "store.hit_rate": ratio(sum(s[5]["hit"] for s in gets), len(gets)),
            "store.misses": float(sum(not s[5]["hit"] for s in gets)),
            "tensor.backward_ms": mean(durations("tensor.backward"), 1e3),
            "tensor.backward_calls": float(len(spans["tensor.backward"])),
            "pruner.score_s": mean(durations("pruner.score")),
            "trainer.train_s": mean(train_s),
            "trainer.tokens_per_s": sum(s[5]["tokens"] for s in trains) / sum(train_s)
            if train_s else 0.0,
            "optim.step_ms": mean(durations("optim.step"), 1e3),
            **{f"self.{layer}_ms": self_times[layer] * 1e3 for layer in LAYERS},
            "trace.overhead_pct": overhead_pct,
        }
        return {name: (values[name], unit) for name, unit in METRICS}

    def write(self, path) -> None:
        """Write every span as one JSON line (times in microseconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request, attrs) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start_us": round((start - self.origin) * 1e6, 3),
                    "end_us": round((end - self.origin) * 1e6, 3),
                    "parent": parent,
                    "request": request,
                }
                if attrs:
                    record["attrs"] = attrs
                out.write(json.dumps(record) + "\n")
