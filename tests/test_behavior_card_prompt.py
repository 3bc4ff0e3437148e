"""One Behavior Card prompt and decision rule across every path.

The deployed model is fine-tuned on one templated question and served
behind it, so the prompt each path builds must be the trained prompt,
token for token, and each path must turn a score into a decision the
same way.  These tests fail as soon as one path drifts from the others:
training examples, the service's audit prompt, a cluster replica's
generative ``encode``, the explain query's test example and the shadow
candidate's scored prompt (each ends in SEP, also when left-truncated);
and, for the decision, the service, a replica's ``batch_fn`` and
:class:`ShadowRecord` labels at a score exactly at the threshold and
one ulp below it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lm import LMClassifier
from repro.config import bench_config
from repro.config import test_config as make_test_config
from repro.core import ZiGong
from repro.data import build_behavior_examples
from repro.data.templates import behavior_prompt
from repro.datasets import make_behavior
from repro.errors import ServingError
from repro.nn import MistralTiny
from repro.pipeline.online import _shadow_scorer
from repro.serving import (
    BehaviorCardService,
    ExplainService,
    ScoreRequest,
    ShadowRecord,
    zigong_replica_factory,
)
from repro.serving.behavior_card import DEFAULT_THRESHOLD, generated_decision
from repro.training.checkpoint import CheckpointManager


@pytest.fixture(scope="module")
def behavior_zigong(tmp_path_factory):
    """A small Behavior Card model with a checkpoint trail."""
    dataset = make_behavior(n_users=4, n_periods=2, seed=0)
    examples = build_behavior_examples(dataset)
    zigong = ZiGong.from_examples(examples, config=make_test_config())
    checkpoint_dir = tmp_path_factory.mktemp("behavior-ckpts")
    zigong.finetune(examples, checkpoint_dir=checkpoint_dir)
    checkpoints = CheckpointManager(checkpoint_dir).checkpoints()
    text = dataset.supervised_rows()[0][0]
    return zigong, examples, checkpoints, text


@pytest.fixture
def scored_prompts(monkeypatch) -> list[str]:
    """Every prompt any ``LMClassifier`` scores while the test runs."""
    seen: list[str] = []
    score_batch = LMClassifier.score_batch

    def spy(self, prompts, positive_text, negative_text):
        seen.extend(prompts)
        return score_batch(self, prompts, positive_text, negative_text)

    monkeypatch.setattr(LMClassifier, "score_batch", spy)
    return seen


def _fixed_scores(monkeypatch, score: float) -> None:
    monkeypatch.setattr(
        LMClassifier, "score_batch", lambda self, prompts, pos, neg: np.full(len(prompts), score)
    )


class TestOnePrompt:
    def test_every_path_builds_the_trained_prompt_ids(self, behavior_zigong, scored_prompts):
        zigong, examples, checkpoints, text = behavior_zigong
        tokenizer = zigong.tokenizer

        def prompt_ids(prompt: str) -> list[int]:
            return [tokenizer.bos_id] + tokenizer.encode(prompt) + [tokenizer.sep_id]

        def unsupervised(example) -> list[int]:
            input_ids, labels = example
            return list(input_ids[: list(labels).count(-100)])

        assert examples[0].prompt.startswith(text + " ")
        trained = unsupervised(zigong.tokenize(examples[:1])[0])
        assert trained == prompt_ids(examples[0].prompt)

        service = BehaviorCardService(zigong.classifier())
        service.decide("u1", text)
        [audit] = service.audit_log()
        assert audit["prompt"] == examples[0].prompt

        replica = zigong_replica_factory(zigong)(0)
        replica_ids = list(replica.generation.encode(ScoreRequest("u1", text)))
        replica.batch_fn([ScoreRequest("u1", text)])

        explain = ExplainService.for_zigong(zigong, examples, checkpoints, behavior_card=service)
        explained = unsupervised(explain._encode(text, "yes"))

        _shadow_scorer(zigong)(text)

        # service, replica batch_fn, shadow candidate: each scored one prompt.
        assert len(scored_prompts) == 3
        for ids in (
            prompt_ids(audit["prompt"]),
            replica_ids,
            explained,
            *(prompt_ids(p) for p in scored_prompts),
        ):
            assert ids == trained

        # Every built prompt ends in SEP, also after left truncation, so
        # none is a strict prefix of another: the prefix cache keys whole
        # prompts.
        long_text = " ".join([text] * 40)
        bench = LMClassifier(MistralTiny(bench_config().model, rng=0), tokenizer)
        truncated = bench._prompt_ids(behavior_prompt(long_text))
        assert len(truncated) == bench.model.config.max_seq_len - bench.max_new_tokens
        for ids in (trained, truncated, replica.generation.encode(ScoreRequest("u1", long_text))):
            assert ids[-1] == tokenizer.sep_id


class TestOneDecisionRule:
    @pytest.mark.parametrize("threshold", [DEFAULT_THRESHOLD, 0.3])
    @pytest.mark.parametrize("below", [False, True], ids=["at", "one-ulp-below"])
    def test_service_and_replica_decide_the_edge_alike(
        self, behavior_zigong, monkeypatch, threshold, below
    ):
        zigong, _, _, text = behavior_zigong
        score = np.nextafter(threshold, 0.0) if below else threshold
        replica = zigong_replica_factory(zigong, threshold=threshold)(0)
        service = BehaviorCardService(zigong.classifier(), threshold=threshold)
        _fixed_scores(monkeypatch, score)
        served = service.decide("u1", text)
        [replicated] = replica.batch_fn([ScoreRequest("u1", text)])
        assert served.score == replicated.score == score
        assert served.approved is replicated.approved is below
        if threshold == DEFAULT_THRESHOLD:
            record = ShadowRecord("prompt", score, score)
            assert record.primary_label == record.shadow_label == int(not below)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.2])
    def test_both_front_doors_refuse_a_threshold_outside_the_unit_interval(
        self, behavior_zigong, threshold
    ):
        # Refused when the door is built, before any replica scores:
        # at 1.5 a P(default) of 0.97 would otherwise be approved.
        zigong = behavior_zigong[0]
        message = rf"threshold must be in \(0, 1\), got {threshold}"
        with pytest.raises(ServingError, match=message):
            zigong_replica_factory(zigong, threshold=threshold)
        with pytest.raises(ServingError, match=message):
            BehaviorCardService(zigong.classifier(), threshold=threshold)

    def test_generated_miss_is_never_approved(self):
        assert generated_decision("yes") == (1.0, False)
        assert generated_decision("no") == (0.0, True)
        assert generated_decision("maybe later") == (0.5, False)
