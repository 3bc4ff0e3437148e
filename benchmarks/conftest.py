"""Shared benchmark infrastructure.

Each ``bench_*.py`` file regenerates one table or figure of the paper.
Model training happens in session-scoped fixtures/helpers so the
``pytest-benchmark`` timer measures the interesting stage; the rendered
tables are printed and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import test_config as make_test_config
from repro.core import PipelineConfig, PrunerConfig, ZiGong, ZiGongPipeline
from repro.data import InstructExample
from repro.eval import EvalSample

from ledger import git_rev

RESULTS_DIR = Path(__file__).parent / "results"
SEED = 0


def save_result(name: str, text: str, metrics: dict | None = None,
                config: dict | None = None) -> None:
    """Print a rendered table and persist it under benchmarks/results/.

    Writes two files: the human-readable ``<name>.txt`` table, and a
    machine-readable ``<name>.json`` carrying the structured ``metrics``
    and ``config`` the caller passes (plus the git revision and whether
    tracked files differed from it), so runs can be diffed/plotted
    without re-parsing rendered tables.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    rev, dirty = git_rev()
    payload = {
        "name": name,
        "git_rev": rev,
        "dirty": dirty,
        "config": config or {},
        "metrics": metrics or {},
    }
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    )
    print()
    print(text)


def fast_zigong_config(epochs: int = 8, seed: int = SEED):
    """The benchmark-scale ZiGong config (seconds per fine-tune)."""
    base = make_test_config(seed=seed)
    return dataclasses.replace(
        base,
        training=dataclasses.replace(base.training, epochs=epochs),
        base_lr=5e-3,
        min_lr=5e-4,
    )


def train_plain(examples, epochs: int = 8, seed: int = SEED, name: str = "model") -> ZiGong:
    """Instruction-tune on the given examples without any pruning."""
    zigong = ZiGong.from_examples(examples, config=fast_zigong_config(epochs, seed))
    zigong.finetune(examples)
    return zigong


def train_pruned(train, val, epochs: int = 8, seed: int = SEED, gamma: float = 0.9,
                 pruned_fraction: float = 0.3) -> ZiGong:
    """The full ZiGong pipeline: warmup -> TracSeq -> 70/30 mix -> fine-tune."""
    pipeline = ZiGongPipeline(
        PipelineConfig(
            zigong=fast_zigong_config(epochs, seed),
            pruner=PrunerConfig(strategy="tracseq", gamma=gamma, projection_dim=128, seed=seed),
            pruned_fraction=pruned_fraction,
            warmup_epochs=2,
            seed=seed,
        )
    )
    return pipeline.run(train, val).zigong


def mismatch_answers(examples) -> list[InstructExample]:
    """Re-answer examples with an out-of-benchmark vocabulary.

    Models tuned on these produce generations the benchmark parser cannot
    map to the expected answers — the FinMA-style Miss failure in Table 2.
    """
    swapped = []
    for example in examples:
        answer = "positive" if example.label == 1 else "negative"
        swapped.append(
            InstructExample(
                prompt=example.prompt,
                answer=answer,
                label=example.label,
                timestamp=example.timestamp,
                meta=example.meta,
            )
        )
    return swapped


def synthetic_traffic(n_requests: int, seed: int = SEED) -> list[tuple[str, str]]:
    """Synthetic Behavior-Card traffic: ``(user_id, behavior_text)`` pairs.

    Every text is distinct so serving benchmarks (``bench_serving.py``)
    measure the scoring path, not the response cache.
    """
    from repro.datasets import make_behavior

    n_users = max(1, (n_requests + 1) // 2)
    dataset = make_behavior(n_users=n_users, n_periods=2, seed=seed)
    traffic = [
        (f"user-{user:04d}-p{period}", dataset.row_text(user, period))
        for user in range(dataset.n_users)
        for period in range(dataset.n_periods)
    ]
    return traffic[:n_requests]


def behavior_eval_samples(examples) -> list[EvalSample]:
    return [
        EvalSample(prompt=e.prompt, label=e.label, positive_text="yes", negative_text="no")
        for e in examples
    ]


def behavior_study_split(n_users: int = 120, n_periods: int = 5, seed: int = SEED,
                         train_user_share: float = 0.75, n_val: int = 20):
    """User-level split of behavior data for the pruning studies.

    Training pool: every period of the first ``train_user_share`` users.
    Validation: a random slice of the pool (used as TracSeq's test set).
    Test: the *two most recent periods* of the held-out users — the
    deployment view, with no user overlap with training.
    """
    import numpy as np

    from repro.data import build_behavior_examples
    from repro.datasets import make_behavior

    dataset = make_behavior(n_users=n_users, n_periods=n_periods, seed=seed)
    examples = build_behavior_examples(dataset)
    cutoff = int(train_user_share * n_users)
    pool = [e for e in examples if e.meta["user"] < cutoff]
    test = [
        e for e in examples
        if e.meta["user"] >= cutoff and e.timestamp >= n_periods - 2
    ]
    rng = np.random.default_rng(seed)
    val_idx = set(rng.choice(len(pool), size=n_val, replace=False).tolist())
    val = [e for i, e in enumerate(pool) if i in val_idx]
    pool = [e for i, e in enumerate(pool) if i not in val_idx]
    return pool, val, test
