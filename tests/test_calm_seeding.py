"""CALM task data must not depend on the process's string-hash salt.

Python salts ``str.__hash__`` per process, so any per-dataset seed
derived from ``hash(name)`` draws different data in every process.
Each task is generated here in two subprocesses under different
``PYTHONHASHSEED`` values and the arrays are compared.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
from repro.datasets import CALM_DATASETS
from repro.eval import CalmBenchmark

suite = CalmBenchmark(sizes={name: 40 for name in CALM_DATASETS}, seed=3)
arrays = {}
for name, task in suite.tasks.items():
    for split in ("train", "test"):
        data = getattr(task, split)
        arrays[f"{name}-{split}-X"] = np.asarray(data.X)
        arrays[f"{name}-{split}-y"] = np.asarray(data.y)
np.savez(sys.argv[1], **arrays)
"""


def generate(path: Path, hash_seed: str) -> dict[str, np.ndarray]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", SCRIPT, str(path)], env=env, check=True)
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def test_calm_tasks_identical_across_hash_seeds(tmp_path):
    first = generate(tmp_path / "a.npz", "1")
    second = generate(tmp_path / "b.npz", "2")
    assert first.keys() == second.keys()
    assert len(first) == 5 * 4
    for name in first:
        assert np.array_equal(first[name], second[name]), name
