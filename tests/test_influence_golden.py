"""Golden regression test pinning TracSeq Top-K selection on a seeded run.

TracSeq is the pipeline's pruning signal (Eq. 1 of the paper): a silent
numerical drift here reorders which training examples survive pruning —
invisible to unit tests that only check shapes and invariants.  This
test replays a fully seeded training + influence run and compares the
Top-K indices (exactly) and scores (to ``RTOL``) against a committed
golden file.

To regenerate after an *intentional* change to training or influence
numerics::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_influence_golden.py

then commit the updated ``tests/golden/tracseq_topk.json`` alongside the
change that moved the numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.influence import TracSeq, top_k_indices
from repro.nn import MistralTiny, ModelConfig
from repro.optim import AdamW
from repro.training import CheckpointManager, Trainer, TrainingConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "tracseq_topk.json"
RTOL = 1e-5
SEED = 1234
K = 4
GAMMA = 0.9
N_TRAIN, N_TEST = 10, 4


def _seeded_run(tmp_path) -> dict:
    """Train a tiny model deterministically, then score TracSeq influence."""
    config = ModelConfig(
        vocab_size=64, d_model=32, n_layers=2, n_heads=4, n_kv_heads=2,
        d_ff=64, max_seq_len=32, sliding_window=16,
    )
    model = MistralTiny(config, rng=SEED)
    rng = np.random.default_rng(SEED)
    make = lambda: (lambda ids: (ids, ids))(list(rng.integers(5, 60, size=8)))
    train_examples = [make() for _ in range(N_TRAIN)]
    test_examples = [make() for _ in range(N_TEST)]

    manager = CheckpointManager(tmp_path)
    trainer = Trainer(
        model,
        AdamW(model.parameters(), lr=3e-3),
        TrainingConfig(epochs=2, batch_size=5, checkpoint_every=2,
                       shuffle=False, seed=SEED),
        checkpoint_manager=manager,
    )
    trainer.train(train_examples)

    scores = TracSeq(model, manager.checkpoints(), gamma=GAMMA).influence(
        train_examples, test_examples
    ).sum(axis=1)
    top_k = top_k_indices(scores, K)
    return {
        "seed": SEED,
        "gamma": GAMMA,
        "k": K,
        "n_checkpoints": len(manager.checkpoints()),
        "top_k": [int(i) for i in top_k],
        "scores": [float(s) for s in scores],
    }


def test_tracseq_topk_matches_golden(tmp_path):
    run = _seeded_run(tmp_path)

    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(run, indent=2) + "\n")
        pytest.skip(f"golden file regenerated at {GOLDEN_PATH}")

    assert GOLDEN_PATH.exists(), (
        f"missing golden file {GOLDEN_PATH}; generate it with REGEN_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())

    # Fixture drift guard: the run setup itself must match what was pinned.
    for key in ("seed", "gamma", "k", "n_checkpoints"):
        assert run[key] == golden[key], f"run setup changed: {key}"

    # Top-K selection is pinned exactly — this IS the pruning decision.
    assert run["top_k"] == golden["top_k"]

    np.testing.assert_allclose(
        run["scores"], golden["scores"], rtol=RTOL,
        err_msg="TracSeq influence scores drifted from the golden run",
    )


def test_golden_selection_is_internally_consistent(tmp_path):
    """Top-K must be the argsort of the pinned scores (stable, descending)."""
    if not GOLDEN_PATH.exists():
        pytest.skip("golden file not generated yet")
    golden = json.loads(GOLDEN_PATH.read_text())
    expected = top_k_indices(np.array(golden["scores"]), golden["k"])
    assert golden["top_k"] == [int(i) for i in expected]
