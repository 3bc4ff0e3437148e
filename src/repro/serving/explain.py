"""Decision explanations: influence-as-a-service.

:class:`ExplainService` answers "why was this applicant declined" with
the *training examples* — and the *tokens* of the applicant's record —
that drove the model toward this decision.  A query answers with the
top-k influential examples from any
:class:`~repro.influence.api.DataInfluence` estimator (DataInf by
default: one gradient row per example at the final checkpoint, no
replay), and every query is recorded as an ``audit.explain`` record in
the Behavior Card audit log, next to the ``audit.decision`` record of
the decision it explains — model governance wants attribution queries
as auditable as decisions.  A query's gradient rows — the
applicant's example and its per-token variants — share one batched
backward pass per checkpoint and belong to the query: they are dropped
when it ends, so the estimator's store holds training rows only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.data.templates import APPROVE_ANSWER, DECLINE_ANSWER
from repro.errors import ServingError
from repro.influence.store import TokenSet
from repro.obs import Observability, get_observability


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
class ExplainResult:
    """A scoring decision plus the training data behind it."""

    user_id: str
    score: float  # P(default)
    approved: bool
    threshold: float
    estimator: str
    influential: tuple[InfluentialExample, ...]
    token_attribution: TokenAttribution


@dataclass(frozen=True)
class ExplainConfig:
    """Knobs for the explanation service.

    top_k / proponents:
        Default number and direction of influential examples per query
        (``proponents=False`` returns the strongest opponents instead).
    """

    top_k: int = 3
    proponents: bool = True

    def __post_init__(self):
        if self.top_k <= 0:
            raise ServingError(f"top_k must be positive, got {self.top_k}")


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
        answer is the *decided* one
        (:data:`~repro.data.templates.DECLINE_ANSWER` for a decline),
        so the explanation covers the decision actually made.
    behavior_card:
        The :class:`~repro.serving.behavior_card.BehaviorCardService`
        that decides the request first; its audit log gets the
        decision's ``audit.decision`` and the query's ``audit.explain``
        record.
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
        self._train_hashes = frozenset(self.train_examples.hashes)
        self.train_texts = list(train_texts) if train_texts is not None else None
        self.behavior_card = behavior_card
        self.config = config or ExplainConfig()
        self._encode = encode
        self._decode = decode
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_requests = metrics.counter("explain.requests")
        self._m_declines = metrics.counter("explain.declines_explained")
        self._h_top_score = metrics.histogram("explain.top_score")

    # -- query path ----------------------------------------------------

    def _train_text(self, index: int) -> str:
        return self.train_texts[index] if self.train_texts is not None else ""

    def _token_names(self, test_example, positions: tuple[int, ...]) -> tuple[str, ...]:
        if self._decode is None:
            return ()
        input_ids, _ = test_example
        return tuple(self._decode(int(input_ids[p])) for p in positions)

    def explain(
        self,
        user_id: str,
        behavior_text: str,
        k: int | None = None,
        proponents: bool | None = None,
    ) -> ExplainResult:
        """Score one applicant and explain the decision.

        ``k`` and ``proponents`` default to the config's.  The per-token
        decomposition costs one gradient row per supervised position of
        the test example; those rows and the example's own share one
        batched gradient pass per checkpoint, and live for this call
        only.
        """
        if not behavior_text.strip():
            raise ServingError("behavior_text must be non-empty")
        k = k or self.config.top_k
        if proponents is None:
            proponents = self.config.proponents
        with self.obs.span(
            "serving.explain.query",
            user_id=user_id,
            estimator=self.estimator.estimator_name,
            k=k,
        ):
            decision = self.behavior_card.decide(user_id, behavior_text)
            answer = APPROVE_ANSWER if decision.approved else DECLINE_ANSWER
            test_example = self._encode(behavior_text, answer)
            # The request keeps the applicant's rows out of the store.
            # Token attribution runs first: the example's own row comes
            # out of the same batched pass as its token variants', so
            # top-k below reads it from the request's rows.
            with self.estimator.engine._request(self._train_hashes):
                tokens = self.estimator.token_influence(self.train_examples, test_example)
                top = self.estimator.k_most_influential(
                    self.train_examples, [test_example], k=k, proponents=proponents
                )
            indices = [int(i) for i in top.indices[0]]
            scores = [float(s) for s in top.scores[0]]
            aggregate = tokens.scores[indices].sum(axis=0)
            token_attribution = TokenAttribution(
                positions=tokens.positions,
                scores=tuple(float(s) for s in aggregate),
                tokens=self._token_names(test_example, tokens.positions),
            )
            self._m_requests.inc()
            self._m_declines.inc(int(not decision.approved))
            if scores:
                self._h_top_score.observe(scores[0])
            self.behavior_card.record_explanation(
                user_id=user_id,
                estimator=self.estimator.estimator_name,
                k=k,
                proponents=proponents,
                approved=decision.approved,
                top_indices=indices,
                top_scores=scores,
            )
            self.obs.event(
                "serving.explain.audited",
                user_id=user_id,
                estimator=self.estimator.estimator_name,
                approved=decision.approved,
            )
            return ExplainResult(
                user_id=user_id,
                score=decision.score,
                approved=decision.approved,
                threshold=decision.threshold,
                estimator=self.estimator.estimator_name,
                influential=tuple(
                    InfluentialExample(index=i, score=s, text=self._train_text(i))
                    for i, s in zip(indices, scores)
                ),
                token_attribution=token_attribution,
            )

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
        from repro.data.templates import behavior_prompt
        from repro.influence import make_estimator

        service = behavior_card
        if service is None:
            from repro.serving.behavior_card import BehaviorCardService

            service = BehaviorCardService(zigong.classifier(), obs=obs)
        backend = make_estimator(
            estimator, zigong.model, checkpoints, obs=obs, **estimator_kwargs
        )
        encoded = zigong.tokenize(train_examples)
        max_len = zigong.config.model.max_seq_len

        def encode(behavior_text: str, answer: str):
            input_ids, labels = zigong.tokenizer.encode_pair(behavior_prompt(behavior_text), answer)
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
