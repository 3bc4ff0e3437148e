"""Golden rolling-deploy test: real weights through the full cluster.

A fine-tuned ZiGong is replicated across the cluster, traffic is scored
before / during / after a rolling weight deploy, and every score is
pinned against a **fresh, cache-free classifier** over the same weights:

* pre-swap traffic scores exactly with the old weights,
* post-swap traffic scores exactly with the new weights,
* the two genuinely differ (the deploy moved the model), and
* no stale :class:`~repro.nn.cache.PrefixCache` entry leaks across the
  swap — repeated prompts warm the replica caches before the deploy,
  and the post-deploy scores still match the uncached reference.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.lm import LMClassifier
from repro.config import test_config as make_test_config
from repro.core import ZiGong
from repro.data import (
    CLASSIFICATION_TEMPLATE,
    build_behavior_examples,
    deduplicate_examples,
    drop_conflicting_examples,
)
from repro.datasets import make_behavior
from repro.serving import (
    ClusterConfig,
    ClusterSupervisor,
    ScoreRequest,
    zigong_replica_factory,
)
from repro.serving.behavior_card import DEFAULT_QUESTION


def behavior_examples():
    dataset = make_behavior(n_users=40, n_periods=4, seed=0)
    examples = drop_conflicting_examples(
        deduplicate_examples(build_behavior_examples(dataset))
    )
    return dataset, examples


@pytest.fixture(scope="module")
def deploy_setup():
    """An initially fine-tuned ZiGong plus a second finetune's state dict."""
    dataset, examples = behavior_examples()
    base = make_test_config()
    config = dataclasses.replace(
        base, training=dataclasses.replace(base.training, epochs=3), base_lr=5e-3
    )
    zigong = ZiGong.from_examples(examples[:80], config=config)
    zigong.finetune(examples[80:100])  # LoRA-shaped weights before capture
    old_state = {k: v.copy() for k, v in zigong.model.state_dict().items()}
    zigong.finetune(examples[100:140])
    new_state = {k: v.copy() for k, v in zigong.model.state_dict().items()}
    texts = [dataset.row_text(u, dataset.n_periods - 1) for u in range(6)]
    return zigong, old_state, new_state, texts


def reference_scores(zigong, state, texts):
    """Scores from a fresh, cache-free classifier running ``state``."""
    model = type(zigong.model)(zigong.config.model, rng=zigong.config.seed)
    from repro.lora import apply_lora

    apply_lora(model, zigong.config.lora, rng=zigong.config.seed)
    model.load_state_dict(state)
    classifier = LMClassifier(model, zigong.tokenizer, prefix_cache_size=0)
    prompts = [
        CLASSIFICATION_TEMPLATE.format(sentence=t, question=DEFAULT_QUESTION)
        for t in texts
    ]
    return [float(classifier.score(p, "yes", "no")) for p in prompts]


class TestGoldenRollingDeploy:
    def test_scores_pin_to_the_weights_that_served_them(self, deploy_setup):
        zigong, old_state, new_state, texts = deploy_setup
        old_reference = reference_scores(zigong, old_state, texts)
        new_reference = reference_scores(zigong, new_state, texts)
        # The deploy must be observable at all: the finetune moved scores.
        assert any(
            abs(a - b) > 1e-9 for a, b in zip(old_reference, new_reference)
        )

        factory = zigong_replica_factory(zigong, threshold=0.5)
        cluster = ClusterSupervisor(
            factory, ClusterConfig(replicas=2, max_batch_size=4)
        )
        cluster.launch()
        # Replicas were built from the CURRENT (post-second-finetune)
        # model; roll them back to the old weights first so the deploy
        # below is a genuine old -> new transition.
        cluster.deploy(old_state)

        requests = [ScoreRequest(f"u{i}", t) for i, t in enumerate(texts)]

        # Warm every replica's prefix cache on the old weights — twice,
        # so repeated prompts genuinely hit the cache.
        pre_first = [r.score for r in cluster.serve(requests)]
        pre_second = [r.score for r in cluster.serve(requests)]
        assert pre_first == pytest.approx(old_reference, abs=1e-9)
        assert pre_second == pytest.approx(pre_first, abs=0)

        # Requests submitted before the deploy drain on the old weights.
        inflight = [cluster.submit(r) for r in requests]
        swapped = cluster.deploy(new_state)
        assert swapped == 2
        inflight_scores = [p.result(timeout=0).score for p in inflight]
        assert inflight_scores == pytest.approx(old_reference, abs=1e-9)

        # Post-swap traffic scores with the new weights — and matches the
        # cache-free reference, so no stale PrefixCache entry survived.
        post = [r.score for r in cluster.serve(requests)]
        assert post == pytest.approx(new_reference, abs=1e-9)
        assert any(abs(a - b) > 1e-9 for a, b in zip(post, pre_first))
        cluster.stop()

    def test_replica_weight_versions_advance_together(self, deploy_setup):
        zigong, old_state, new_state, _ = deploy_setup
        cluster = ClusterSupervisor(
            zigong_replica_factory(zigong), ClusterConfig(replicas=2)
        )
        cluster.launch()
        before = cluster.weight_versions()
        assert len(set(before.values())) == 1  # replicas start in lockstep
        cluster.deploy(new_state)
        after = cluster.weight_versions()
        assert len(set(after.values())) == 1
        assert after[0] == before[0] + 1
        cluster.stop()


class TestQuantizedReplicas:
    def test_int8_replicas_match_float_decisions(self, deploy_setup):
        """int8 replicas serve the same approvals as the float cluster."""
        zigong, _, _, texts = deploy_setup
        requests = [ScoreRequest(f"u{i}", t) for i, t in enumerate(texts)]

        float_cluster = ClusterSupervisor(
            zigong_replica_factory(zigong, threshold=0.5),
            ClusterConfig(replicas=2, max_batch_size=4),
        )
        float_cluster.launch()
        float_results = float_cluster.serve(requests)
        float_cluster.stop()

        quant_cluster = ClusterSupervisor(
            zigong_replica_factory(zigong, threshold=0.5, quantize="int8"),
            ClusterConfig(replicas=2, max_batch_size=4),
        )
        quant_cluster.launch()
        quant_results = quant_cluster.serve(requests)
        quant_cluster.stop()

        assert [r.approved for r in quant_results] == [
            r.approved for r in float_results
        ]
        for f, q in zip(float_results, quant_results):
            assert q.score == pytest.approx(f.score, abs=0.05)

    def test_invalid_quantize_mode_raises(self, deploy_setup):
        from repro.errors import ConfigError

        zigong = deploy_setup[0]
        with pytest.raises(ConfigError):
            zigong_replica_factory(zigong, quantize="fp4")

    def test_quantized_state_deploys_onto_quantized_replicas(self, deploy_setup):
        """stage->drain->swap works when replicas AND payload are int8."""
        from repro.serving import zigong_quantized_state

        zigong, _, _, texts = deploy_setup
        staged = zigong_quantized_state(zigong)
        assert any(
            getattr(v, "dtype", None) == "int8" or str(getattr(v, "dtype", "")) == "int8"
            for v in staged.values()
        )

        cluster = ClusterSupervisor(
            zigong_replica_factory(zigong, quantize="int8"),
            ClusterConfig(replicas=2, max_batch_size=4),
        )
        cluster.launch()
        before = cluster.weight_versions()
        swapped = cluster.deploy(staged)
        assert swapped == 2
        after = cluster.weight_versions()
        assert all(after[i] == before[i] + 1 for i in after)

        requests = [ScoreRequest(f"u{i}", t) for i, t in enumerate(texts)]
        results = cluster.serve(requests)
        assert len(results) == len(requests)
        assert all(0.0 <= r.score <= 1.0 for r in results)
        cluster.stop()


class TestFactoryOwnsItsWeights:
    def test_restarted_replica_serves_factory_time_weights(self, deploy_setup):
        """The factory holds its own copy of the source weights: a replica
        restarted after the source model trained further still serves
        the weights the factory was built from."""
        zigong, _, _, texts = deploy_setup
        source = ZiGong(zigong.config, zigong.tokenizer)
        source.apply_lora()
        source.model.load_state_dict(zigong.model.state_dict())
        factory_state = source.model.state_dict()
        cluster = ClusterSupervisor(
            zigong_replica_factory(source, threshold=0.5),
            ClusterConfig(replicas=2, max_batch_size=4),
        )
        cluster.launch()

        source.finetune(behavior_examples()[1][140:170])  # the source trains on
        assert any(
            not np.array_equal(factory_state[k], v)
            for k, v in source.model.state_dict().items()
        )
        cluster.replicas[0].transport.kill()
        requests = [ScoreRequest(f"u{i}", t) for i, t in enumerate(texts)]
        cluster.serve(requests)  # the crash is seen while scoring
        assert cluster.check_health()[0] == "healthy"
        assert cluster.stats.restarts == 1

        results = cluster.serve(requests)
        assert {r.replica for r in results} == {0, 1}
        factory_time = reference_scores(source, factory_state, texts)
        assert [r.score for r in results] == pytest.approx(factory_time, abs=1e-9)
        assert [r.score for r in results] != pytest.approx(
            reference_scores(source, source.model.state_dict(), texts), abs=1e-9
        )
        cluster.stop()
