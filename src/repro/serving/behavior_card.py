"""The Behavior Card — the paper's production deployment surface.

"This method has been successfully deployed in our Behavior Card
service, which supports the operational model in the loan process."

This module holds the Behavior Card decision and what serves it:

* the decision rule every path reads: :func:`default_scores` (one
  ``score_batch`` over the Behavior Card prompts), :func:`approves` and
  :func:`generated_decision`, and :func:`decision_batch_fn`, the one
  replica scoring function built from the first two;
* :func:`zigong_replica_factory`, replicas over private copies of a
  ZiGong model, for a :class:`~repro.serving.cluster.ClusterSupervisor`;
* :class:`BehaviorCardService`, that supervisor over one thread replica
  scoring through a given classifier.

There is one front door: every served decision is resolved by a
supervisor, which writes its ``audit.decision`` record
(``docs/serving.md``).

API::

    service = BehaviorCardService(zigong.classifier(), threshold=0.5)
    result = service.decide("u1", "spend=low ...")  # one ScoreResult
    results = service.score_requests([ScoreRequest("u2", "spend=high ...")])
    service.audit_log()[-1]["kind"]  # "audit.decision"
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Sequence

from repro.data.templates import BEHAVIOR_QUESTION as DEFAULT_QUESTION  # noqa: F401
from repro.data.templates import APPROVE_ANSWER, DECLINE_ANSWER, behavior_prompt
from repro.errors import ConfigError, ServingError
from repro.eval.parsing import parse_answer
from repro.obs import Observability
from repro.serving.cluster import ClusterConfig, ClusterSupervisor, ReplicaApp, ReplicaFactory
from repro.serving.engine import BatchFn, EngineConfig, ScoreRequest, ScoreResult

DEFAULT_THRESHOLD = 0.5


def default_scores(classifier, behavior_texts: Sequence[str]) -> list[float]:
    """P(default) per behavior text, in one ``score_batch`` forward pass."""
    prompts = [behavior_prompt(text) for text in behavior_texts]
    return [float(s) for s in classifier.score_batch(prompts, DECLINE_ANSWER, APPROVE_ANSWER)]


def _check_threshold(threshold: float) -> float:
    """``threshold`` when it lies in (0, 1); both front doors check it when built."""
    if not 0.0 < threshold < 1.0:
        raise ServingError(f"threshold must be in (0, 1), got {threshold}")
    return threshold


def approves(score: float, threshold: float) -> bool:
    """Approve when P(default) is strictly below ``threshold``; decline at or above it."""
    return score < threshold


def generated_decision(text: str) -> tuple[float, bool]:
    """``(score, approved)`` from a generated answer, parsed as the Miss metric counts.

    A miss scores 0.5 and is never approved, whatever the threshold.
    """
    label = parse_answer(text, DECLINE_ANSWER, APPROVE_ANSWER)
    score = 1.0 if label == 1 else 0.0 if label == 0 else 0.5
    return score, label == 0


def decision_batch_fn(classifier, threshold: float) -> BatchFn:
    """A replica ``batch_fn``: one :func:`default_scores` pass, decided by :func:`approves`."""

    def batch_fn(requests: list[ScoreRequest]) -> list[ScoreResult]:
        scores = default_scores(classifier, [r.behavior_text for r in requests])
        return [
            ScoreResult(
                user_id=r.user_id,
                score=s,
                approved=approves(s, threshold),
                threshold=threshold,
            )
            for r, s in zip(requests, scores)
        ]

    return batch_fn


def _replica_model(config, lora_applied: bool, state: dict, quantize: str | None):
    """A private model loaded with ``state``, merged and quantized when ``quantize`` is set.

    LoRA adapters mirror the source's, so its state dict loads one-to-one.
    """
    from repro.lora.inject import apply_lora, merge_lora
    from repro.nn.quant import quantize_model
    from repro.nn.transformer import MistralTiny

    model = MistralTiny(config.model, rng=config.seed)
    if lora_applied:
        apply_lora(model, config.lora, rng=config.seed)
    model.load_state_dict(state)
    if quantize is not None:
        merge_lora(model)
        quantize_model(model, dtype=quantize)
    return model


def zigong_quantized_state(zigong) -> dict:
    """Stage an int8 deploy payload from a (float, possibly LoRA) ZiGong.

    Builds a throwaway replica model from the source weights, merges any
    LoRA adapters, runs :func:`repro.nn.quantize_model` and returns its
    ``state_dict()`` — the exact key/dtype layout that replicas built by
    ``zigong_replica_factory(..., quantize="int8")`` expect, so the
    result can be handed straight to
    :meth:`ClusterSupervisor.deploy` for a stage->drain->swap rollout.
    The source ``zigong`` is never mutated (checkpoints stay float).
    """
    lora = getattr(zigong, "_lora_applied", False)
    return _replica_model(zigong.config, lora, zigong.model.state_dict(), "int8").state_dict()


def zigong_replica_factory(
    zigong,
    threshold: float = DEFAULT_THRESHOLD,
    quantize: str | None = None,
) -> ReplicaFactory:
    """A :class:`ReplicaFactory` serving Behavior Card decisions.

    Each replica builds **its own** :class:`~repro.nn.transformer.MistralTiny`
    instance (same config/seed as the source model, then loads its
    weights) plus its own
    :class:`~repro.baselines.lm.LMClassifier`/:class:`~repro.nn.cache.PrefixCache`
    — replicas share nothing mutable, which is what makes fork
    transport, kills and rolling swaps safe.  ``swap_weights`` loads a
    staged state dict (bumping ``weight_version``, which flushes the
    prefix cache on the next generate call).  Replicas score through
    :func:`decision_batch_fn`, as :class:`BehaviorCardService` does.

    With ``quantize="int8"`` every replica merges its LoRA adapters and
    runs :func:`repro.nn.quantize_model` after loading the source
    weights: replicas serve from int8 weights on the fused inference
    kernel (~4x less weight memory per replica) while the source
    ``zigong`` — and therefore training, influence and explain paths —
    stays float.  Rolling deploys to quantized replicas must stage a
    matching quantized state dict; :func:`zigong_quantized_state` builds
    one from a float model.
    """
    from repro.baselines.lm import LMClassifier
    from repro.serving.continuous import GenerationApp

    _check_threshold(threshold)
    if quantize not in (None, "int8"):
        raise ConfigError(f"unsupported replica quantization {quantize!r}; use 'int8' or None")
    config = zigong.config
    tokenizer = zigong.tokenizer
    lora_applied = getattr(zigong, "_lora_applied", False)
    source_state = {k: v.copy() for k, v in zigong.model.state_dict().items()}

    def factory(replica_id: int) -> ReplicaApp:
        model = _replica_model(config, lora_applied, source_state, quantize)
        classifier = LMClassifier(model, tokenizer, name=f"replica-{replica_id}")

        def encode(request: ScoreRequest):
            return classifier._prompt_ids(behavior_prompt(request.behavior_text))

        def finish(request: ScoreRequest, tokens: list[int]) -> ScoreResult:
            score, approved = generated_decision(tokenizer.decode(tokens))
            return ScoreResult(
                user_id=request.user_id, score=score, approved=approved, threshold=threshold
            )

        generation = GenerationApp(
            model=model,
            encode=encode,
            finish=finish,
            generation=classifier._generation_config(),
            prefix_cache=classifier.prefix_cache,
        )

        return ReplicaApp(
            batch_fn=decision_batch_fn(classifier, threshold),
            swap_weights=model.load_state_dict,
            weight_version=lambda: model.weight_version,
            generation=generation,
        )

    return factory


class BehaviorCardService(ClusterSupervisor):
    """Loan decisions from one classifier: a cluster of one thread replica.

    Parameters
    ----------
    classifier:
        An :class:`~repro.baselines.lm.LMClassifier` (or anything with a
        compatible ``score_batch(prompts, positive, negative)`` method,
        which scores each micro-batch in one forward pass).
    config:
        The replica engine's :class:`~repro.serving.engine.EngineConfig`
        (defaults when omitted).
    threshold:
        Approve when P(default) is strictly below this value, in (0, 1).
    clock:
        Injected time source — queue deadlines and audit timestamps are
        deterministic under test.
    obs / audit_path:
        As for :class:`~repro.serving.cluster.ClusterSupervisor`.
    """

    def __init__(
        self,
        classifier,
        config: EngineConfig | None = None,
        *,
        threshold: float = DEFAULT_THRESHOLD,
        clock: Callable[[], float] = time.time,
        obs: Observability | None = None,
        audit_path: str | Path | None = None,
    ):
        config = config or EngineConfig()
        self.classifier = classifier
        app = ReplicaApp(batch_fn=decision_batch_fn(classifier, _check_threshold(threshold)))
        super().__init__(
            lambda replica_id: app,
            ClusterConfig(
                replicas=1,
                max_batch_size=config.max_batch_size,
                queue_capacity=config.queue_capacity,
            ),
            clock=clock,
            obs=obs,
            audit_path=audit_path,
        )

    def decide(self, user_id: str, behavior_text: str) -> ScoreResult:
        """Score one applicant's behavior summary; the decision is audited."""
        [result] = self.serve([ScoreRequest(user_id, behavior_text)])
        return result

    def score_requests(self, requests: Sequence[ScoreRequest]) -> list[ScoreResult]:
        """Serve requests in queue-capacity-sized waves.

        Long lists never trip the replica's own backpressure; use
        ``submit`` for per-request admission control under concurrent
        load.
        """
        wave = self.config.queue_capacity
        results: list[ScoreResult] = []
        for start in range(0, len(requests), wave):
            results.extend(self.serve(requests[start : start + wave]))
        return results
