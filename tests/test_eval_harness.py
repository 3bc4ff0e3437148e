"""Harness, parsing, report and CALM suite tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EvaluationError
from repro.baselines import ExpertSystemModel, MajorityClassModel
from repro.eval import (
    CalmBenchmark,
    CreditModel,
    EvalSample,
    Prediction,
    evaluate,
    format_table,
    make_eval_samples,
    parse_answer,
    parse_choice,
)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("yes", 1),
            ("no", 0),
            ("Yes.", 1),
            ("the answer is no", 0),
            ("definitely yes indeed", 1),
            ("maybe", None),
            ("", None),
            ("eyesore", None),  # substring must not match
        ],
    )
    def test_parse_answer(self, text, expected):
        assert parse_answer(text, "yes", "no") == expected

    def test_first_match_wins(self):
        assert parse_answer("no yes", "yes", "no") == 0

    def test_custom_answer_words(self):
        assert parse_answer("good credit", "good", "bad") == 1

    def test_identical_answers_rejected(self):
        with pytest.raises(EvaluationError):
            parse_answer("x", "yes", "yes")

    def test_parse_choice(self):
        assert parse_choice("the bracket is Medium", ("low", "medium", "high")) == "medium"
        assert parse_choice("nothing", ("low", "high")) is None
        with pytest.raises(EvaluationError):
            parse_choice("x", ())


class _FixedModel(CreditModel):
    name = "fixed"

    def __init__(self, outputs):
        self.outputs = list(outputs)
        self._i = 0

    def predict(self, sample):
        out = self.outputs[self._i % len(self.outputs)]
        self._i += 1
        return out


def _samples(labels, with_features=False):
    return [
        EvalSample(
            prompt=f"x={i} question: q ? answer:",
            label=l,
            positive_text="yes",
            negative_text="no",
            features=np.array([float(i), float(l)]) if with_features else None,
        )
        for i, l in enumerate(labels)
    ]


class TestEvaluate:
    def test_metrics_computed(self):
        samples = _samples([1, 0, 1, 0])
        model = _FixedModel(
            [Prediction(1, 0.9), Prediction(0, 0.1), Prediction(0, 0.4), Prediction(0, 0.2)]
        )
        result = evaluate(model, samples, "demo")
        assert result.accuracy == 0.75
        assert result.miss == 0.0
        assert result.ks is not None
        assert result.dataset == "demo"
        assert result.n == 4

    def test_missing_scores_disable_ks(self):
        samples = _samples([1, 0])
        model = _FixedModel([Prediction(1, None), Prediction(0, 0.3)])
        result = evaluate(model, samples)
        assert result.ks is None and result.auc is None

    def test_single_class_disables_ks(self):
        samples = _samples([1, 1])
        model = _FixedModel([Prediction(1, 0.5)])
        assert evaluate(model, samples).ks is None

    def test_empty_samples_raise(self):
        with pytest.raises(EvaluationError):
            evaluate(_FixedModel([Prediction(1)]), [])

    def test_as_row_rounding(self):
        samples = _samples([1, 0, 1])
        model = _FixedModel([Prediction(1, 0.5)])
        row = evaluate(model, samples, "d").as_row()
        assert set(row) == {"model", "dataset", "n", "acc", "f1", "miss", "ks", "auc"}


class TestBaselines:
    def test_majority(self):
        model = MajorityClassModel([1, 1, 0])
        assert model.predict(_samples([0])[0]).label == 1
        with pytest.raises(EvaluationError):
            MajorityClassModel([])

    def test_expert_logistic_on_synthetic(self, german_small):
        train, test = german_small.split(test_fraction=0.3, seed=0)
        model = ExpertSystemModel.logistic(train)
        result = evaluate(model, make_eval_samples(test), "german")
        base = max(test.positive_rate, 1 - test.positive_rate)
        assert result.accuracy >= base - 0.05
        assert result.miss == 0.0
        assert result.ks is not None

    def test_expert_needs_features(self):
        model = ExpertSystemModel.logistic(__import__("repro.datasets", fromlist=["make_german"]).make_german(n=60))
        sample = EvalSample("p", 1, "yes", "no", features=None)
        with pytest.raises(EvaluationError):
            model.predict(sample)


class TestFormatTable:
    def test_alignment_and_none(self):
        table = format_table(["a", "bb"], [[1.0, None], ["xy", 2.5]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "1.000" in table
        assert "-" in lines[3]

    def test_row_width_mismatch(self):
        with pytest.raises(EvaluationError):
            format_table(["a"], [[1, 2]])

    def test_empty_headers(self):
        with pytest.raises(EvaluationError):
            format_table([], [])


class TestCalmBenchmark:
    @pytest.fixture(scope="class")
    def bench(self):
        return CalmBenchmark(
            sizes={name: 80 for name in ("german", "australia")},
            datasets=("german", "australia"),
            seed=0,
        )

    def test_tasks_built(self, bench):
        assert set(bench.tasks) == {"german", "australia"}
        task = bench.tasks["german"]
        assert len(task.train_examples) == len(task.train)
        assert len(task.eval_samples) == len(task.test)

    def test_run_produces_results_per_pair(self, bench):
        factories = {
            "majority": lambda task: MajorityClassModel(list(task.train.y)),
            "logistic": lambda task: ExpertSystemModel.logistic(task.train),
        }
        results = bench.run(factories)
        assert len(results) == 4
        assert {r.model for r in results} == {"majority", "logistic"}

    def test_table_layout(self, bench):
        factories = {"majority": lambda task: MajorityClassModel(list(task.train.y))}
        results = bench.run(factories)
        table = CalmBenchmark.table(results)
        assert "german" in table
        assert "Acc" in table and "Miss" in table

    def test_run_empty_factories(self, bench):
        with pytest.raises(EvaluationError):
            bench.run({})

    def test_invalid_test_fraction(self):
        with pytest.raises(EvaluationError):
            CalmBenchmark(test_fraction=0.0)
