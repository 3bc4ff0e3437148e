"""Batched per-example gradients and the released autograd graph.

``gradient_matrix`` computes the rows of all examples of one token
length in shared forward/backward passes, with every trainable
parameter swapped for a per-row copy.  Every row must stay
``np.array_equal`` to the one-example reference ``per_sample_gradient``
— for LoRA and full fine-tune models, mixed lengths, groups split by the
pass budget, projected rows and rows computed in pool workers.  A
projected row is likewise ``np.array_equal`` to the projection of that
row alone, in any batch and at any position in a projection tile.  The
counters ``influence.gradient_passes`` (rows) and
``influence.gradient_batches`` (passes) record the saving.  Also here:
``Tensor.backward`` releases the graph it ran through, so a second
backward through it raises while leaves keep their gradients.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GradientError
from repro.influence import (
    GradientProjector,
    ParallelInfluenceEngine,
    example_content_hash,
    per_sample_gradient,
    trainable_parameters,
)
from repro.influence.gradients import (
    PASS_TOKENS,
    PROJECTION_TILE,
    TracePlan,
    gradient_matrix,
    pass_plan,
)
from repro.lora import LoRAConfig, apply_lora
from repro.nn import MistralTiny, ModelConfig
from repro.nn.layers import Linear
from repro.obs import Observability
from repro.serving import ExplainService
from repro.tensor import Tensor
from repro.training import CheckpointManager

from conftest import TINY


def build_lora_model() -> MistralTiny:
    """LoRA on q/k/v plus the tied embedding/head, all factors non-zero."""
    model = MistralTiny(TINY, rng=0)
    apply_lora(model, LoRAConfig(rank=4, alpha=8), rng=1)
    rng = np.random.default_rng(2)
    for name, param in model.named_parameters():
        if "lora_b" in name:
            param.data = rng.normal(0.0, 0.05, size=param.shape).astype(np.float32)
    return model


def build_full_model() -> MistralTiny:
    """Full fine-tune: trainable norms, an untied head with a bias."""
    config = ModelConfig(**{**TINY.to_dict(), "tie_embeddings": False})
    model = MistralTiny(config, rng=0)
    model.lm_head = Linear(config.d_model, config.vocab_size, bias=True, rng=1)
    rng = np.random.default_rng(3)
    for _, param in model.named_parameters():
        param.data = param.data + rng.normal(0.0, 0.02, size=param.shape).astype(np.float32)
    return model


@functools.lru_cache(maxsize=None)
def shared_model(kind: str) -> MistralTiny:
    return build_lora_model() if kind == "lora" else build_full_model()


@functools.lru_cache(maxsize=None)
def shared_projector(kind: str, k: int) -> GradientProjector:
    model = shared_model(kind)
    return GradientProjector(sum(p.size for p in trainable_parameters(model)), k=k, seed=k)


def make_example(rng, length: int):
    """Random ids; the first half of the labels is masked like a prompt."""
    ids = rng.integers(5, TINY.vocab_size, size=length).tolist()
    cut = max(1, length // 2)
    return ids, [-100] * cut + ids[cut:]


def make_examples(lengths, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [make_example(rng, length) for length in lengths]


def reference(model, examples, projector=None) -> np.ndarray:
    rows = [per_sample_gradient(model, example) for example in examples]
    if projector is not None:
        rows = [projector.project(row) for row in rows]
    return np.stack(rows)


def assert_rows_equal(matrix, expected) -> None:
    assert matrix.shape == expected.shape
    differing = [i for i in range(len(expected)) if not np.array_equal(matrix[i], expected[i])]
    assert not differing, f"rows {differing} differ from per_sample_gradient"


class TestRowsMatchOneExamplePasses:
    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["lora", "full"]),
        lengths=st.lists(st.integers(min_value=2, max_value=TINY.max_seq_len), min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_any_batch_composition(self, kind, lengths, seed):
        model = shared_model(kind)
        examples = make_examples(lengths, seed)
        assert_rows_equal(gradient_matrix(TracePlan(model), examples), reference(model, examples))

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["lora", "full"]),
        lengths=st.lists(st.integers(min_value=2, max_value=TINY.max_seq_len), min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**16),
        k=st.integers(min_value=1, max_value=64),
    )
    # Two full projection tiles and a partial one.
    @example(kind="lora", lengths=[6] * (2 * PROJECTION_TILE + 3), seed=10, k=16)
    def test_any_batch_composition_projected(self, kind, lengths, seed, k):
        model = shared_model(kind)
        examples = make_examples(lengths, seed)
        projector = shared_projector(kind, k)
        assert_rows_equal(
            gradient_matrix(TracePlan(model), examples, projector),
            reference(model, examples, projector),
        )

    @pytest.mark.parametrize(
        "build, traced",
        [
            (build_lora_model, {"tok_embed.weight", "blocks.0.attn.wq.lora_a"}),
            (build_full_model, {"lm_head.weight", "lm_head.bias", "blocks.0.attn_norm.weight"}),
        ],
    )
    def test_lora_and_full_fine_tune_models(self, build, traced):
        model = build()
        assert traced <= {name for name, p in model.named_parameters() if p.requires_grad}
        examples = make_examples([9] * 6)
        assert len(pass_plan(model, examples)) == 1
        assert_rows_equal(gradient_matrix(TracePlan(model), examples), reference(model, examples))

    def test_mixed_lengths_keep_input_order(self):
        model = build_lora_model()
        lengths = [7, 12, 7, 5, 12, 7]
        examples = make_examples(lengths, seed=4)
        assert pass_plan(model, examples) == [[0, 2, 5], [1, 4], [3]]
        assert_rows_equal(gradient_matrix(TracePlan(model), examples), reference(model, examples))

    def test_group_over_the_budget_is_split(self):
        model = build_lora_model()
        length = TINY.max_seq_len
        per_pass = PASS_TOKENS // length
        examples = make_examples([length] * (2 * per_pass + 1), seed=5)
        plan = pass_plan(model, examples)
        assert [len(indices) for indices in plan] == [per_pass, per_pass, 1]
        assert sum(plan, []) == list(range(len(examples)))
        assert_rows_equal(gradient_matrix(TracePlan(model), examples), reference(model, examples))

    def test_projected_rows(self):
        model = build_lora_model()
        examples = make_examples([6, 10, 6, 10, 6], seed=6)
        dim = per_sample_gradient(model, examples[0]).shape[0]
        projector = GradientProjector(dim, k=16, seed=3)
        assert_rows_equal(
            gradient_matrix(TracePlan(model), examples, projector),
            reference(model, examples, projector),
        )

    def test_parameters_restored_and_left_without_gradient(self):
        model = build_lora_model()
        before = {name: p for name, p in model.named_parameters()}
        gradient_matrix(TracePlan(model), make_examples([8, 8, 8]))
        after = dict(model.named_parameters())
        assert all(after[name] is param for name, param in before.items())
        assert all(param.grad is None for param in after.values())

    def test_pool_worker_rows(self, tmp_path):
        model = build_lora_model()
        manager = CheckpointManager(tmp_path)
        rng = np.random.default_rng(7)
        for step in (1, 2):
            for param in model.parameters():
                param.data = param.data + rng.normal(0.0, 0.01, size=param.shape).astype(np.float32)
            manager.save(model, step=step, lr=1e-3)
        checkpoints = manager.checkpoints()
        examples = make_examples([8, 11, 8, 8, 11], seed=8)
        obs = Observability.create()
        engine = ParallelInfluenceEngine(model, checkpoints, workers=2, obs=obs)
        engine.checkpoint_products(examples, examples[:1])
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("influence.worker_requeued", 0) == 0
        assert counters["influence.gradient_passes"] == 2 * len(examples)
        assert counters["influence.gradient_batches"] == 2 * 2
        for record in checkpoints:
            fresh = build_lora_model()
            CheckpointManager.restore(fresh, record)
            stored = np.stack(
                [engine.store.get(record.step, example_content_hash(e), "exact") for e in examples]
            )
            assert_rows_equal(stored, reference(fresh, examples))


class TestProjectionTiles:
    """A projected row is a function of the row alone, not of its batch."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(min_value=1, max_value=3000),
        k=st.integers(min_value=1, max_value=160),
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_rows_project_as_they_do_alone(self, dim, k, n, seed, data):
        projector = GradientProjector(dim, k=min(k, dim), seed=seed)
        rows = np.random.default_rng(seed).standard_normal((n, dim))
        order = data.draw(st.permutations(range(n)))
        projected = projector.project(rows[order])
        assert projected.shape == (n, projector.k)
        differing = [
            i for i, j in enumerate(order) if not np.array_equal(projected[i], projector.project(rows[j]))
        ]
        assert not differing, f"rows {differing} differ from their one-row projection"


class TestBatchCounters:
    def test_one_checkpoint_of_equal_length_rows(self, tmp_path):
        model = build_lora_model()
        record = CheckpointManager(tmp_path).save(model, step=1, lr=1e-3)
        examples = make_examples([20] * 32, seed=9)
        obs = Observability.create()
        ParallelInfluenceEngine(model, [record], obs=obs).stacked_rows(examples)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["influence.gradient_passes"] == 32
        assert counters["influence.gradient_batches"] == math.ceil(32 / (PASS_TOKENS // 20))

    def test_explain_query_takes_one_batch(self, explained_zigong):
        zigong, examples, checkpoints = explained_zigong
        obs = Observability.create()
        service = ExplainService.for_zigong(zigong, examples, checkpoints, obs=obs)
        texts = [e.prompt.split(" question:")[0] for e in examples[:2]]
        service.explain("warm-up", texts[0])  # computes the train rows

        def counts():
            counters = obs.metrics.snapshot()["counters"]
            return counters["influence.gradient_batches"], counters["influence.gradient_passes"]

        batches, rows = counts()
        # A record no query has seen: reversed word order.
        result = service.explain("fresh", " ".join(reversed(texts[1].split())))
        new_batches, new_rows = counts()
        assert len(result.token_attribution.positions) == 2
        assert (new_batches - batches, new_rows - rows) == (1, 3)


class TestReleasedGraph:
    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * 2.0).exp().sum()
        loss.backward()
        with pytest.raises(GradientError):
            loss.backward()

    def test_new_root_over_a_released_node_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        y.sum().backward()
        with pytest.raises(GradientError):
            (y * 3.0).sum().backward()

    def test_leaves_keep_grad_and_interior_nodes_are_dropped(self):
        x = Tensor(np.full(3, 2.0), requires_grad=True)
        w = Tensor(np.full(3, 0.5), requires_grad=True)
        y = x * w
        loss = y.sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 0.5))
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0))
        for node in (y, loss):
            assert node.grad is None
            assert node._parents == ()
