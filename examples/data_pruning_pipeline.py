"""The full ZiGong pipeline: TracSeq pruning + 70/30 hybrid mix.

Reproduces the paper's Figure-1 workflow on sequential behavior data,
then compares the pruned-mix model against a no-pruning baseline.

Run:  python examples/data_pruning_pipeline.py
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import test_config
from repro.core import PipelineConfig, PrunerConfig, ZiGong, ZiGongPipeline
from repro.data import build_behavior_examples
from repro.datasets import make_behavior
from repro.eval import EvalSample, evaluate, format_table

SEED = 0


def behavior_eval_samples(examples):
    return [
        EvalSample(prompt=e.prompt, label=e.label, positive_text="yes", negative_text="no")
        for e in examples
    ]


def main() -> None:
    # Sequential behavior data: recent periods carry the default signal.
    dataset = make_behavior(n_users=80, n_periods=5, seed=SEED)
    examples = build_behavior_examples(dataset)
    rng = np.random.default_rng(SEED)
    order = rng.permutation(len(examples))
    train = [examples[i] for i in order[:240]]
    val = [examples[i] for i in order[240:260]]
    # Held-out evaluation uses only the *latest* period (the deployment view).
    test = [examples[i] for i in order[260:] if examples[i].timestamp == dataset.n_periods - 1]
    print(f"train={len(train)}  val={len(val)}  test(last period)={len(test)}")

    base = test_config(seed=SEED)
    base = dataclasses.replace(
        base, training=dataclasses.replace(base.training, epochs=8), base_lr=5e-3
    )

    # --- ZiGong: TracSeq pruning + hybrid mix -------------------------
    pipeline = ZiGongPipeline(
        PipelineConfig(
            zigong=base,
            pruner=PrunerConfig(strategy="tracseq", gamma=0.8, projection_dim=128),
            pruned_fraction=0.3,
            seed=SEED,
        )
    )
    result = pipeline.run(train, val)
    pruned = evaluate(result.zigong.classifier(), behavior_eval_samples(test), "behavior")

    # --- Baseline: same budget, no pruning ----------------------------
    baseline = ZiGong.from_examples(train + val, config=base)
    baseline.finetune(train)
    plain = evaluate(baseline.classifier("no-pruning"), behavior_eval_samples(test), "behavior")

    print()
    print(format_table(
        ["Model", "Acc", "F1", "Miss", "KS"],
        [
            ["ZiGong (TracSeq mix)", pruned.accuracy, pruned.f1, pruned.miss, pruned.ks],
            ["No pruning", plain.accuracy, plain.f1, plain.miss, plain.ks],
        ],
        title="TracSeq data pruning on sequential behavior data",
    ))

    scores = result.scores
    stamps = np.array([e.timestamp for e in train])
    print()
    print("mean TracSeq score by period (recent periods should score higher):")
    for period in sorted(set(stamps)):
        mean = scores[stamps == period].mean()
        print(f"  period {int(period)}: {mean:+.4e}")


if __name__ == "__main__":
    main()
