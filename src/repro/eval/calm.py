"""The CALM-style benchmark suite (Feng et al., 2023) used in Table 2.

Five datasets spanning credit scoring, fraud detection and claim
analysis.  Each task exposes a train split (for fine-tuning / fitting)
and verbalized eval samples; a *model factory* receives the task and
returns a fitted :class:`~repro.eval.harness.CreditModel`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import EvaluationError
from repro.datasets.base import TabularDataset
from repro.datasets.registry import CALM_DATASETS, load_dataset
from repro.data.instruct import InstructExample, build_classification_examples
from repro.eval.harness import CreditModel, EvalResult, EvalSample, evaluate, make_eval_samples
from repro.eval.report import format_table


@dataclass
class CalmTask:
    """One benchmark dataset with its splits and prompt views."""

    name: str
    train: TabularDataset
    test: TabularDataset
    train_examples: list[InstructExample]
    eval_samples: list[EvalSample]


ModelFactory = Callable[[CalmTask], CreditModel]


class CalmBenchmark:
    """Builds the five tasks and evaluates model factories over them."""

    def __init__(
        self,
        sizes: Mapping[str, int] | None = None,
        seed: int = 0,
        test_fraction: float = 0.2,
        datasets: Sequence[str] = CALM_DATASETS,
    ):
        if not 0.0 < test_fraction < 1.0:
            raise EvaluationError(f"test_fraction must be in (0, 1), got {test_fraction}")
        self.seed = seed
        self.tasks: dict[str, CalmTask] = {}
        sizes = dict(sizes or {})
        for name in datasets:
            # zlib.crc32, not hash(): str hashes are salted per process.
            kwargs = {"seed": seed + zlib.crc32(name.encode()) % 1000}
            if name in sizes:
                kwargs["n"] = sizes[name]
            full = load_dataset(name, **kwargs)
            train, test = full.split(test_fraction=test_fraction, seed=seed)
            self.tasks[name] = CalmTask(
                name=name,
                train=train,
                test=test,
                train_examples=build_classification_examples(train),
                eval_samples=make_eval_samples(test),
            )

    def run(self, factories: Mapping[str, ModelFactory]) -> list[EvalResult]:
        """Fit and evaluate each factory on each task.

        Returns one :class:`EvalResult` per (model, dataset) pair, in
        dataset-major order matching the paper's Table 2.
        """
        if not factories:
            raise EvaluationError("run() needs at least one model factory")
        results = []
        for task in self.tasks.values():
            for model_name, factory in factories.items():
                model = factory(task)
                model.name = model_name
                results.append(evaluate(model, task.eval_samples, dataset_name=task.name))
        return results

    @staticmethod
    def table(results: Sequence[EvalResult], title: str = "Table 2 (reproduced)") -> str:
        """Render results in the paper's layout: dataset x metric rows, model columns."""
        if not results:
            raise EvaluationError("table() received no results")
        models = list(dict.fromkeys(r.model for r in results))
        datasets = list(dict.fromkeys(r.dataset for r in results))
        index = {(r.dataset, r.model): r for r in results}
        rows = []
        for dataset in datasets:
            for metric in ("acc", "f1", "miss"):
                row = [dataset, metric.capitalize()]
                for model in models:
                    result = index.get((dataset, model))
                    if result is None:
                        row.append(None)
                        continue
                    value = {"acc": result.accuracy, "f1": result.f1, "miss": result.miss}[metric]
                    row.append(value)
                rows.append(row)
        return format_table(["Dataset", "Metric", *models], rows, title=title)
