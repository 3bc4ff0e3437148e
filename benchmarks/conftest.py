"""Shared benchmark infrastructure.

Each ``bench_*.py`` file regenerates one table or figure of the paper.
Model training happens in session-scoped fixtures/helpers so the
``pytest-benchmark`` timer measures the interesting stage; the rendered
tables are printed and written to ``benchmarks/results/``.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import gc
import json
import statistics
import time
from pathlib import Path
from typing import Callable

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


# ----------------------------------------------------------------------
# Paired timing (the P3 and P5 gates)
# ----------------------------------------------------------------------

_BLAS_THREADS = (  # (set, get) symbol pairs of the OpenBLAS builds numpy ships with
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_openblas():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS numpy loaded, or None."""
    import numpy  # noqa: F401 - loads the BLAS library

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREADS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


@contextlib.contextmanager
def blas_threads(n: int = 1):
    """Run the block with the loaded OpenBLAS on ``n`` threads; yields whether it could.

    ``perfbench/run.py`` pins BLAS through the environment before numpy
    loads; a pytest session has numpy loaded already, so this sets the
    library's thread count directly and restores it afterwards.
    """
    calls = _loaded_openblas()
    if calls is None:
        yield False
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(n)
    try:
        yield True
    finally:
        set_threads(before)


@dataclasses.dataclass
class PairedTiming:
    """Thread-CPU seconds per side, one entry per round, and their overheads."""

    seconds: dict[str, list[float]]
    base: str
    blas_pinned: bool

    def overheads(self, side: str, base: str | None = None) -> list[float]:
        """Per round, ``side`` / ``base`` - 1 (``base`` defaults to the first side)."""
        reference = self.seconds[base or self.base]
        return [t / b - 1.0 for t, b in zip(self.seconds[side], reference)]

    def median(self, side: str, base: str | None = None) -> float:
        return statistics.median(self.overheads(side, base))

    def iqr(self, side: str, base: str | None = None) -> tuple[float, float]:
        q1, _, q3 = statistics.quantiles(self.overheads(side, base), n=4)
        return q1, q3

    def slower(self, side: str, base: str | None = None) -> int:
        """Rounds in which ``side`` took longer than ``base``."""
        return sum(o > 0 for o in self.overheads(side, base))

    def row(self, side: str, base: str | None = None) -> str:
        q1, q3 = self.iqr(side, base)
        return (
            f"{self.median(side, base) * 100:+6.2f} %  (IQR {q1 * 100:+.2f} % to {q3 * 100:+.2f} %; "
            f"slower in {self.slower(side, base)} of {len(self.overheads(side, base))} rounds)"
        )


def paired_timing(
    sides: dict[str, Callable[[], Callable[[], object]]], rounds: int, warmup: int = 1
) -> PairedTiming:
    """Time each side's run in ``rounds`` rounds, rotating the order every round.

    Each side is a factory: it builds what its run needs (untimed) and
    returns the callable to time.  The timed clock is the calling
    thread's CPU time (``time.thread_time``) with BLAS pinned to one
    thread, as ``perfbench`` times; the first side is the default base of an
    overhead.  With two sides this is alternating pairs.  Report the
    median and IQR of the per-round overheads: a best-of-N on shared
    hosts flips with scheduler noise at a few-percent budget.
    """
    names = list(sides)
    seconds: dict[str, list[float]] = {name: [] for name in names}
    with blas_threads(1) as pinned:
        for _ in range(warmup):
            for name in names:
                sides[name]()()
        for i in range(rounds):
            shift = i % len(names)
            for name in names[shift:] + names[:shift]:
                run = sides[name]()
                gc.collect()
                start = time.thread_time()
                run()
                seconds[name].append(time.thread_time() - start)
    return PairedTiming(seconds, base=names[0], blas_pinned=pinned)


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
