"""Decision explanations: reason codes and influence-as-a-service.

Two complementary levels of "why was this applicant declined":

* **Feature level** (:func:`reason_codes` / occlusion): remove one
  feature token from the prompt, re-score, attribute the score change
  to that feature.  Positive delta = the feature pushed P(default) up
  (a reason to decline).  What an adverse-action letter cites.
* **Training-data level** (:class:`ExplainService`): which *training
  examples* — and which *tokens* of the applicant's record — drove the
  model toward this decision.  Queries run through the same
  micro-batching engine as scoring traffic, answer with the top-k
  influential examples from any :class:`~repro.influence.api.DataInfluence`
  estimator (DataInf by default: one gradient row per example at the
  final checkpoint, no replay), and every query is recorded in the
  Behavior Card audit log next to the decision it explains — model
  governance wants attribution queries as auditable as decisions.
  A query's new gradient rows — the applicant's example and its
  per-token variants — share one batched backward pass per checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ServingError
from repro.influence.store import TokenSet
from repro.obs import Observability, get_observability
from repro.serving.behavior_card import ExplainAuditEntry
from repro.serving.engine import (
    EngineConfig,
    MicroBatchEngine,
    ScoreRequest,
    ScoreResult,
)


@dataclass(frozen=True)
class ReasonCode:
    """One feature's contribution to the decision."""

    feature: str
    value: str
    delta: float  # score(with feature) − score(without); >0 raised risk


def _feature_tokens(prompt: str) -> list[tuple[int, str, str]]:
    """(position, name, value) for every ``name=value`` token in the prompt."""
    found = []
    for i, token in enumerate(prompt.split()):
        if "=" in token:
            name, _, value = token.partition("=")
            found.append((i, name, value))
    return found


def reason_codes(
    classifier,
    prompt: str,
    positive_text: str = "yes",
    negative_text: str = "no",
    top_k: int = 4,
) -> list[ReasonCode]:
    """Occlusion attribution of the classifier's score over the prompt.

    ``classifier`` needs a ``score(prompt, positive, negative)`` method
    (e.g. :class:`~repro.baselines.lm.LMClassifier`).  Returns the
    ``top_k`` features by absolute contribution, strongest first.
    """
    if top_k <= 0:
        raise ServingError("top_k must be positive")
    features = _feature_tokens(prompt)
    if not features:
        raise ServingError("prompt contains no name=value feature tokens to occlude")
    tokens = prompt.split()
    occlusions = [
        " ".join(t for i, t in enumerate(tokens) if i != position)
        for position, _, _ in features
    ]
    if hasattr(classifier, "score_batch"):
        # One padded forward for the base prompt plus all N occlusions
        # instead of N+1 sequential full passes.
        scores = classifier.score_batch([prompt] + occlusions, positive_text, negative_text)
        base, without = float(scores[0]), [float(s) for s in scores[1:]]
    else:
        base = float(classifier.score(prompt, positive_text, negative_text))
        without = [
            float(classifier.score(occluded, positive_text, negative_text))
            for occluded in occlusions
        ]
    codes = [
        ReasonCode(feature=name, value=value, delta=base - w)
        for (_, name, value), w in zip(features, without)
    ]
    codes.sort(key=lambda c: abs(c.delta), reverse=True)
    return codes[:top_k]


# ----------------------------------------------------------------------
# Influence-as-a-service: training-data explanations for decisions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExplainRequest(ScoreRequest):
    """One explanation query; ``None`` fields fall back to the config."""

    k: int | None = None
    proponents: bool | None = None


@dataclass(frozen=True)
class InfluentialExample:
    """One training example returned by an explanation query."""

    index: int  # position in the service's training set
    score: float  # influence on the test example (sign = direction)
    text: str = ""  # human-readable snippet, when the service has one


@dataclass(frozen=True)
class TokenAttribution:
    """Per-token influence over the applicant's encoded record.

    ``scores[t]`` is the aggregate influence of the returned
    influential examples attributed to the token at sequence position
    ``positions[t]`` (supervised positions only); ``tokens`` carries
    the decoded token strings when the service has a decoder.
    """

    positions: tuple[int, ...]
    scores: tuple[float, ...]
    tokens: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExplainResult(ScoreResult):
    """A scoring decision plus the training data behind it.

    Frozen subclass of :class:`~repro.serving.engine.ScoreResult`, so
    explanation traffic rides the :class:`MicroBatchEngine` unchanged —
    the engine's ``dataclasses.replace`` bookkeeping (latency, batch
    size, degraded flags) works on it like any score result.
    """

    estimator: str = ""
    influential: tuple[InfluentialExample, ...] = ()
    token_attribution: TokenAttribution | None = None


@dataclass(frozen=True)
class ExplainConfig:
    """Knobs for the explanation service.

    top_k / proponents:
        Default number and direction of influential examples per query
        (``proponents=False`` returns the strongest opponents instead).
    attribute_tokens:
        Also compute the per-token decomposition per query.  It costs
        one gradient row per supervised position of the test example
        (cached thereafter); those rows and the example's own share one
        batched gradient pass per checkpoint.  Turn it off for cheap
        bulk audits.
    max_batch_size / max_wait_s / queue_capacity:
        Micro-batching engine knobs; explanation queries are heavier
        than scores, so the defaults batch smaller and queue shorter.
    """

    top_k: int = 3
    proponents: bool = True
    attribute_tokens: bool = True
    max_batch_size: int = 4
    max_wait_s: float = 0.005
    queue_capacity: int = 16

    def __post_init__(self):
        if self.top_k <= 0:
            raise ServingError(f"top_k must be positive, got {self.top_k}")
        self.engine_config()

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            queue_capacity=self.queue_capacity,
        )


class ExplainService:
    """Serve "why was this applicant declined" influence queries.

    Parameters
    ----------
    estimator:
        Any :class:`~repro.influence.api.DataInfluence` implementation.
        :class:`~repro.influence.datainf.DataInf` is the serving-shaped
        choice (no checkpoint replay); TracInCP / TracSeq drop in
        unchanged when replay fidelity matters more than latency.
    train_examples:
        The tokenized ``(input_ids, labels)`` training set queries are
        attributed against — the corpus the model was fine-tuned on.
        Kept as a :class:`~repro.influence.store.TokenSet`, so it is
        hashed once, and DataInf keeps its gradient block resident.
    encode:
        ``(behavior_text, answer) -> TokenExample``: how a live request
        becomes a test example whose loss gradient is attributed.  The
        answer is the *decided* one ("yes" for a decline under the
        default-probability question), so the explanation covers the
        decision actually made.
    behavior_card:
        The :class:`~repro.serving.behavior_card.BehaviorCardService`
        that scores the request first and records both the decision and
        the :class:`~repro.serving.behavior_card.ExplainAuditEntry`.
    train_texts:
        Optional human-readable snippet per training example, surfaced
        on :class:`InfluentialExample`.
    decode:
        Optional ``token_id -> str`` for naming attributed tokens.
    """

    def __init__(
        self,
        estimator,
        train_examples: Sequence,
        encode: Callable[[str, str], tuple[list[int], list[int]]],
        behavior_card,
        config: ExplainConfig | None = None,
        train_texts: Sequence[str] | None = None,
        decode: Callable[[int], str] | None = None,
        clock: Callable[[], float] = time.time,
        obs: Observability | None = None,
    ):
        if not train_examples:
            raise ServingError("ExplainService needs a non-empty training set")
        if train_texts is not None and len(train_texts) != len(train_examples):
            raise ServingError(
                f"{len(train_texts)} train_texts for {len(train_examples)} train examples"
            )
        self.estimator = estimator
        self.train_examples = TokenSet.of(train_examples)
        self.train_texts = list(train_texts) if train_texts is not None else None
        self.behavior_card = behavior_card
        self.config = config or ExplainConfig()
        self._encode = encode
        self._decode = decode
        self._clock = clock
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_requests = metrics.counter("explain.requests")
        self._m_declines = metrics.counter("explain.declines_explained")
        self._m_token_attr = metrics.counter("explain.token_attributions")
        self._h_top_score = metrics.histogram("explain.top_score")
        self.engine = MicroBatchEngine(
            batch_fn=self._explain_batch_fn,
            config=self.config.engine_config(),
            clock=clock,
            obs=self.obs,
        )

    # -- batch path ----------------------------------------------------

    def _train_text(self, index: int) -> str:
        return self.train_texts[index] if self.train_texts is not None else ""

    def _token_names(self, test_example, positions: tuple[int, ...]) -> tuple[str, ...]:
        if self._decode is None:
            return ()
        input_ids, _ = test_example
        return tuple(self._decode(int(input_ids[p])) for p in positions)

    def _explain_one(self, request: ScoreRequest) -> ExplainResult:
        k = getattr(request, "k", None) or self.config.top_k
        proponents = getattr(request, "proponents", None)
        if proponents is None:
            proponents = self.config.proponents
        with self.obs.span(
            "serving.explain.query",
            user_id=request.user_id,
            estimator=self.estimator.estimator_name,
            k=k,
        ):
            decision = self.behavior_card.decide(request.user_id, request.behavior_text)
            answer = "no" if decision.approved else "yes"
            test_example = self._encode(request.behavior_text, answer)
            tokens = None
            if self.config.attribute_tokens:
                # Before top-k: the example's own gradient row comes out
                # of the same batched pass as its token variants', so
                # top-k below finds it in the store.
                tokens = self.estimator.token_influence(self.train_examples, test_example)
            top = self.estimator.k_most_influential(
                self.train_examples, [test_example], k=k, proponents=proponents
            )
            indices = [int(i) for i in top.indices[0]]
            scores = [float(s) for s in top.scores[0]]
            token_attribution = None
            if tokens is not None:
                aggregate = tokens.scores[indices].sum(axis=0)
                token_attribution = TokenAttribution(
                    positions=tokens.positions,
                    scores=tuple(float(s) for s in aggregate),
                    tokens=self._token_names(test_example, tokens.positions),
                )
                self._m_token_attr.inc()
            self._m_requests.inc()
            self._m_declines.inc(int(not decision.approved))
            if scores:
                self._h_top_score.observe(scores[0])
            self.behavior_card.record_explanation(
                ExplainAuditEntry(
                    timestamp=self._clock(),
                    user_id=request.user_id,
                    estimator=self.estimator.estimator_name,
                    k=k,
                    proponents=proponents,
                    approved=decision.approved,
                    top_indices=tuple(indices),
                    top_scores=tuple(scores),
                )
            )
            self.obs.event(
                "serving.explain.audited",
                user_id=request.user_id,
                estimator=self.estimator.estimator_name,
                approved=decision.approved,
            )
            return ExplainResult(
                user_id=request.user_id,
                score=decision.score,
                approved=decision.approved,
                threshold=decision.threshold,
                cached=decision.cached,
                estimator=self.estimator.estimator_name,
                influential=tuple(
                    InfluentialExample(index=i, score=s, text=self._train_text(i))
                    for i, s in zip(indices, scores)
                ),
                token_attribution=token_attribution,
            )

    def _explain_batch_fn(self, requests: list[ScoreRequest]) -> list[ScoreResult]:
        with self.obs.span("serving.explain", batch=len(requests)):
            return [self._explain_one(request) for request in requests]

    # -- public API ----------------------------------------------------

    def explain(
        self,
        user_id: str,
        behavior_text: str,
        k: int | None = None,
        proponents: bool | None = None,
    ) -> ExplainResult:
        """Score one applicant and explain the decision (engine path)."""
        if not behavior_text.strip():
            raise ServingError("behavior_text must be non-empty")
        request = ExplainRequest(
            user_id=user_id, behavior_text=behavior_text, k=k, proponents=proponents
        )
        return self.engine.serve([request])[0]  # type: ignore[return-value]

    # -- construction --------------------------------------------------

    @classmethod
    def for_zigong(
        cls,
        zigong,
        train_examples: Sequence,
        checkpoints: Sequence,
        estimator: str = "datainf",
        behavior_card=None,
        config: ExplainConfig | None = None,
        obs: Observability | None = None,
        **estimator_kwargs,
    ) -> "ExplainService":
        """Wire an explanation service from a ZiGong model end to end.

        ``train_examples`` are :class:`~repro.data.instruct.InstructExample`
        values (the fine-tuning corpus) and ``checkpoints`` the records
        saved during that fine-tune; ``estimator`` picks the backend by
        name (``datainf`` / ``tracin`` / ``tracseq``).
        """
        from repro.data.templates import CLASSIFICATION_TEMPLATE
        from repro.influence import make_estimator

        service = behavior_card
        if service is None:
            from repro.serving.behavior_card import BehaviorCardService

            service = BehaviorCardService(zigong.classifier(), obs=obs)
        backend = make_estimator(
            estimator, zigong.model, checkpoints, obs=obs, **estimator_kwargs
        )
        encoded = zigong.tokenize(train_examples)
        question = service.config.question
        max_len = zigong.config.model.max_seq_len

        def encode(behavior_text: str, answer: str):
            prompt = CLASSIFICATION_TEMPLATE.format(
                sentence=behavior_text, question=question
            )
            input_ids, labels = zigong.tokenizer.encode_pair(prompt, answer)
            return input_ids[:max_len], labels[:max_len]

        return cls(
            backend,
            encoded,
            encode,
            service,
            config=config,
            train_texts=[example.text for example in train_examples],
            decode=zigong.tokenizer.vocab.id_to_token,
            obs=obs,
        )
