"""Behavior Card service — the paper's production deployment surface.

"This method has been successfully deployed in our Behavior Card
service, which supports the operational model in the loan process."

The service wraps a fine-tuned classifier: behavior text in, default
probability and approve/decline decision out, with an LRU response
cache and an append-only audit log (both regulatory table stakes for
credit decisioning).

Traffic flows through a :class:`~repro.serving.engine.MicroBatchEngine`:
requests are admitted to a bounded queue, assembled into dynamic
micro-batches and scored through one padded forward pass, with
backpressure (:class:`~repro.errors.QueueFullError`), per-request
deadlines and an optional degraded-mode fallback scorer.  The cache,
audit log, stats and drift monitoring all sit inside the batch path, so
batched and single-request traffic observe identical semantics.

API (see ``docs/serving.md``)::

    config = BehaviorCardConfig(threshold=0.5, max_batch_size=8)
    service = BehaviorCardService(zigong.classifier(), config)
    results = service.score_requests([ScoreRequest("u1", "spend=low ...")])
    result = service.decide("u2", "spend=high ...")  # one ScoreResult
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ServingError
from repro.data.templates import BEHAVIOR_QUESTION as DEFAULT_QUESTION  # noqa: F401
from repro.data.templates import behavior_prompt
from repro.eval.parsing import parse_answer
from repro.obs import Observability, get_observability
from repro.serving.engine import (
    EngineConfig,
    MicroBatchEngine,
    ScoreRequest,
    ScoreResult,
)

# The Behavior Card decision, read by every serving path: a score is
# P("yes", the user defaults) against "no".
DECLINE_ANSWER, APPROVE_ANSWER = "yes", "no"
DEFAULT_THRESHOLD = 0.5


def default_scores(classifier, behavior_texts: Sequence[str]) -> list[float]:
    """P(default) per behavior text, in one ``score_batch`` forward pass."""
    prompts = [behavior_prompt(text) for text in behavior_texts]
    return [float(s) for s in classifier.score_batch(prompts, DECLINE_ANSWER, APPROVE_ANSWER)]


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


@dataclass(frozen=True)
class BehaviorCardConfig:
    """All serving knobs in one (validated, immutable) place.

    threshold:
        Approve when P(default) is strictly below this value.
    cache_size:
        Maximum number of cached (behavior text -> score) entries.
    max_batch_size / max_wait_s / queue_capacity:
        Micro-batching engine knobs; see
        :class:`~repro.serving.engine.EngineConfig`.
    """

    threshold: float = DEFAULT_THRESHOLD
    cache_size: int = 1024
    max_batch_size: int = 8
    max_wait_s: float = 0.005
    queue_capacity: int = 64

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ServingError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.cache_size <= 0:
            raise ServingError(f"cache_size must be positive, got {self.cache_size}")
        self.engine_config()  # validate the engine knobs eagerly too

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            queue_capacity=self.queue_capacity,
        )


@dataclass(frozen=True)
class AuditEntry:
    """Immutable audit-log record of one decision."""

    timestamp: float
    user_id: str
    score: float
    approved: bool
    prompt: str
    degraded: bool = False


@dataclass(frozen=True)
class ExplainAuditEntry:
    """Immutable audit record of one influence-explanation query.

    Explanation queries disclose which training data shaped a decision;
    model governance wants them as auditable as the decisions
    themselves, so they land in the same append-only log (interleaved
    with :class:`AuditEntry` decision records, in arrival order).
    """

    timestamp: float
    user_id: str
    estimator: str  # which DataInfluence backend answered
    k: int
    proponents: bool
    approved: bool  # the decision being explained
    top_indices: tuple[int, ...]  # train-set indices returned
    top_scores: tuple[float, ...]


@dataclass
class ServiceStats:
    requests: int = 0
    cache_hits: int = 0
    approvals: int = 0
    degraded: int = 0

    @property
    def approval_rate(self) -> float:
        return self.approvals / self.requests if self.requests else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0


class BehaviorCardService:
    """Loan-decision scoring service backed by a ZiGong classifier.

    Parameters
    ----------
    classifier:
        An :class:`~repro.baselines.lm.LMClassifier` (or anything with a
        compatible ``score_batch(prompts, positive, negative)`` method,
        which scores each micro-batch in one forward pass).
    config:
        A :class:`BehaviorCardConfig` (defaults when omitted).
    clock:
        Injected time source — audit timestamps and queue deadlines are
        deterministic under test.
    fallback_scorer:
        Optional ``behavior_text -> P(default)`` callable for degraded
        mode: when the model path raises, batches are re-scored through
        it (results and audit entries flagged ``degraded``) so the
        service keeps answering.
    """

    def __init__(
        self,
        classifier,
        config: BehaviorCardConfig | None = None,
        *,
        clock: Callable[[], float] = time.time,
        fallback_scorer: Callable[[str], float] | None = None,
        obs: Observability | None = None,
    ):
        self.classifier = classifier
        self.config = config or BehaviorCardConfig()
        self._clock = clock
        self._fallback = fallback_scorer
        self._cache: OrderedDict[str, float] = OrderedDict()
        self._audit: list[AuditEntry | ExplainAuditEntry] = []
        self.stats = ServiceStats()
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_requests = metrics.counter("behavior_card.requests")
        self._m_cache_hits = metrics.counter("behavior_card.cache_hits")
        self._m_approvals = metrics.counter("behavior_card.approvals")
        self._m_degraded = metrics.counter("behavior_card.degraded")
        self._h_score = metrics.histogram("behavior_card.score")
        self.engine = MicroBatchEngine(
            batch_fn=self._score_batch_fn,
            config=self.config.engine_config(),
            fallback_fn=self._fallback_batch_fn if fallback_scorer is not None else None,
            clock=clock,
            obs=self.obs,
        )

    # ------------------------------------------------------------------
    # Scoring internals (these run *inside* the engine's batch path)
    # ------------------------------------------------------------------

    def _score_texts(self, texts: Sequence[str]) -> tuple[list[float], list[bool]]:
        """Cache-aware batched scoring: misses share one forward pass.

        Duplicate texts within a batch are scored once; later occurrences
        count as cache hits, matching what sequential ``decide`` calls
        would have observed.
        """
        scores: list[float | None] = [None] * len(texts)
        cached = [False] * len(texts)
        first_seen: dict[str, list[int]] = {}
        miss_texts: list[str] = []
        for i, text in enumerate(texts):
            if text in self._cache:
                self._cache.move_to_end(text)
                scores[i] = self._cache[text]
                cached[i] = True
            elif text in first_seen:
                first_seen[text].append(i)
                cached[i] = True
            else:
                first_seen[text] = [i]
                miss_texts.append(text)
        if miss_texts:
            fresh = default_scores(self.classifier, miss_texts)
            for text, score in zip(miss_texts, fresh):
                for i in first_seen[text]:
                    scores[i] = score
                self._cache[text] = score
                if len(self._cache) > self.config.cache_size:
                    self._cache.popitem(last=False)
        return scores, cached  # type: ignore[return-value]

    def _finish(
        self, user_id: str, behavior_text: str, score: float, cached: bool,
        degraded: bool = False,
    ) -> ScoreResult:
        """Record one decision (stats + audit) and build its result."""
        approved = approves(score, self.config.threshold)
        self.stats.requests += 1
        self.stats.cache_hits += int(cached)
        self.stats.approvals += int(approved)
        self.stats.degraded += int(degraded)
        self._m_requests.inc()
        self._m_cache_hits.inc(int(cached))
        self._m_approvals.inc(int(approved))
        self._m_degraded.inc(int(degraded))
        self._h_score.observe(score)
        self._audit.append(
            AuditEntry(
                timestamp=self._clock(),
                user_id=user_id,
                score=score,
                approved=approved,
                prompt=behavior_prompt(behavior_text),
                degraded=degraded,
            )
        )
        return ScoreResult(
            user_id=user_id,
            score=score,
            approved=approved,
            threshold=self.config.threshold,
            cached=cached,
            degraded=degraded,
        )

    def _score_batch_fn(self, requests: list[ScoreRequest]) -> list[ScoreResult]:
        """The engine's primary batch path: cache, one forward pass, audit.

        ``engine.submit`` has already rejected empty behavior text.
        """
        scores, cached = self._score_texts([r.behavior_text for r in requests])
        return [
            self._finish(r.user_id, r.behavior_text, s, c)
            for r, s, c in zip(requests, scores, cached)
        ]

    def _fallback_batch_fn(self, requests: list[ScoreRequest]) -> list[ScoreResult]:
        """Degraded mode: keep answering via the fallback scorer."""
        assert self._fallback is not None
        return [
            self._finish(
                r.user_id,
                r.behavior_text,
                float(self._fallback(r.behavior_text)),
                cached=False,
                degraded=True,
            )
            for r in requests
        ]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def decide(self, user_id: str, behavior_text: str) -> ScoreResult:
        """Score a user's behavior summary and record the decision."""
        if not behavior_text.strip():
            raise ServingError("behavior_text must be non-empty")
        scores, cached = self._score_texts([behavior_text])
        return self._finish(user_id, behavior_text, scores[0], cached[0])

    def score_requests(self, requests: Sequence[ScoreRequest]) -> list[ScoreResult]:
        """Score requests through the micro-batching engine (unified API).

        Requests are admitted in queue-capacity-sized waves so arbitrarily
        long lists never trip the engine's own backpressure; use
        ``service.engine.submit`` directly for per-request admission
        control under concurrent load.
        """
        results: list[ScoreResult] = []
        wave = self.config.queue_capacity
        for start in range(0, len(requests), wave):
            results.extend(self.engine.serve(list(requests[start : start + wave])))
        return results

    def record_explanation(self, entry: ExplainAuditEntry) -> None:
        """Append one influence-explanation query to the audit log.

        Called by :class:`~repro.serving.explain.ExplainService` for
        every query it serves; the entry sits next to the
        :class:`AuditEntry` of the decision it explains.
        """
        self._audit.append(entry)

    def audit_log(self) -> list[AuditEntry | ExplainAuditEntry]:
        """A copy of the append-only audit log (decisions + explanations)."""
        return list(self._audit)
