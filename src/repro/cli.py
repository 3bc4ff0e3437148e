"""Command-line interface.

Subcommands::

    python -m repro datasets                         # list generators
    python -m repro generate --dataset german --out d.jsonl
    python -m repro train --data d.jsonl --out model/
    python -m repro evaluate --model model/ --data test.jsonl
    python -m repro pipeline --dataset german        # full prune+mix+tune
    python -m repro pipeline run --events run.jsonl  # online learning loop
    python -m repro influence --data d.jsonl --estimator datainf --top-k 5
    python -m repro table3                           # config table
    python -m repro obs report --events run.jsonl    # summarize a recorded run

Everything is seeded; rerunning a command reproduces its output.

``repro influence`` is the one front door to attribution: estimator
choice (``tracin`` / ``tracseq`` / ``datainf``), top-k retrieval,
token-wise attribution, worker fan-out and the gradient cache all live
on it.  ``pipeline --estimator`` picks the pruning score backend with
the same vocabulary (it threads through ``PrunerConfig.strategy``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.config import bench_config, table3_rows, test_config
from repro.core import PipelineConfig, PrunerConfig, ZiGong, ZiGongPipeline
from repro.data import (
    build_classification_examples,
    load_jsonl,
    save_jsonl,
)
from repro.datasets import available_datasets, load_dataset
from repro.errors import ReproError
from repro.eval import EvalSample, evaluate, format_table


def _zigong_config(args) -> "object":
    base = bench_config(seed=args.seed) if getattr(args, "preset", "test") == "bench" else test_config(seed=args.seed)
    return dataclasses.replace(
        base,
        training=dataclasses.replace(base.training, epochs=args.epochs),
        base_lr=args.lr,
        min_lr=args.lr / 10,
    )


def _examples_to_samples(examples) -> list[EvalSample]:
    answers = sorted({e.answer for e in examples})
    if len(answers) != 2:
        raise ReproError(
            f"evaluate expects a binary task; found answers {answers}"
        )
    positives = {e.answer for e in examples if e.label == 1}
    if len(positives) != 1:
        raise ReproError("could not infer the positive answer text from labels")
    positive = positives.pop()
    negative = next(a for a in answers if a != positive)
    return [
        EvalSample(prompt=e.prompt, label=e.label, positive_text=positive, negative_text=negative)
        for e in examples
    ]


def cmd_datasets(args) -> int:
    for name in available_datasets():
        print(name)
    return 0


def cmd_generate(args) -> int:
    dataset = load_dataset(args.dataset, n=args.n, seed=args.seed)
    if args.split is not None:
        train, test = dataset.split(test_fraction=args.split, seed=args.seed)
        out = Path(args.out)
        n_train = save_jsonl(build_classification_examples(train), out)
        test_path = out.with_name(out.stem + ".test" + out.suffix)
        n_test = save_jsonl(build_classification_examples(test), test_path)
        print(f"wrote {n_train} train examples to {out}")
        print(f"wrote {n_test} test examples to {test_path}")
    else:
        count = save_jsonl(build_classification_examples(dataset), args.out)
        print(f"wrote {count} examples to {args.out}")
    return 0


def cmd_train(args) -> int:
    examples = load_jsonl(args.data)
    zigong = ZiGong.from_examples(examples, config=_zigong_config(args))
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    history = zigong.finetune(
        examples,
        checkpoint_dir=args.checkpoint_dir,
        use_lora=not args.no_lora,
        resume=args.resume,
    )
    zigong.save(args.out)
    if history.losses:
        print(
            f"trained on {len(examples)} examples: loss {history.losses[0]:.3f} -> "
            f"{history.losses[-1]:.3f}; model saved to {args.out}"
        )
    else:
        # --resume from a checkpoint of an already-finished run: nothing
        # left to train, but the restored model is still saved.
        print(
            f"nothing to train: checkpoint already covers all "
            f"{len(examples)} examples; model saved to {args.out}"
        )
    return 0


def cmd_evaluate(args) -> int:
    zigong = ZiGong.load(args.model)
    examples = load_jsonl(args.data)
    samples = _examples_to_samples(examples)
    result = evaluate(zigong.classifier(), samples, dataset_name=Path(args.data).stem)
    print(format_table(
        ["Dataset", "N", "Acc", "F1", "Miss", "KS", "AUC"],
        [[result.dataset, result.n, result.accuracy, result.f1, result.miss, result.ks, result.auc]],
    ))
    return 0


def cmd_pipeline(args) -> int:
    dataset = load_dataset(args.dataset, n=args.n, seed=args.seed)
    train, test = dataset.split(test_fraction=0.2, seed=args.seed)
    examples = build_classification_examples(train)
    split = int(0.9 * len(examples))
    pipeline = ZiGongPipeline(
        PipelineConfig(
            zigong=_zigong_config(args),
            pruner=PrunerConfig(
                strategy=args.estimator,
                gamma=args.gamma,
                workers=args.workers,
                cache_dir=args.cache_dir,
                seed=args.seed,
            ),
            pruned_fraction=args.pruned_fraction,
            seed=args.seed,
        )
    )
    result = pipeline.run(examples[:split], examples[split:])
    from repro.eval import make_eval_samples

    eval_result = evaluate(
        result.zigong.classifier(), make_eval_samples(test), dataset_name=args.dataset
    )
    print(format_table(
        ["Dataset", "Strategy", "Acc", "F1", "Miss", "KS"],
        [[args.dataset, args.estimator, eval_result.accuracy, eval_result.f1,
          eval_result.miss, eval_result.ks]],
        title="Pipeline result",
    ))
    if args.out:
        result.zigong.save(args.out)
        print(f"model saved to {args.out}")
    return 0


def cmd_pipeline_run(args) -> int:
    """Drive the online drift→retrain→shadow→promote loop on synthetic traffic."""
    import tempfile
    import time as _time

    import numpy as np

    from repro.data import build_behavior_examples
    from repro.datasets import make_behavior
    from repro.obs import Observability, get_observability
    from repro.pipeline import OnlineConfig, OnlinePipeline, PromotionGate
    from repro.serving import ClusterConfig, ScoreRequest
    from repro.serving.behavior_card import default_scores

    obs = Observability.create(events_path=args.events) if args.events else get_observability()

    dataset = make_behavior(n_users=args.users, n_periods=args.periods, seed=args.seed)
    examples = build_behavior_examples(dataset)
    split = len(examples) // 2
    print(f"training the deployed model on {split} of {len(examples)} behavior examples ...")
    zigong = ZiGong.from_examples(examples, config=_zigong_config(args))
    zigong.apply_lora()
    zigong.finetune(examples[:split])

    traffic = [
        ScoreRequest(f"user-{user:04d}-p{period}", dataset.row_text(user, period))
        for user in range(dataset.n_users)
        for period in range(dataset.n_periods)
    ]
    calibration = np.asarray(default_scores(zigong, [r.behavior_text for r in traffic[:32]]))
    if args.no_drift:
        reference = calibration
    else:
        # Seeded synthetic drift: anchor the reference half a unit away
        # from the live score mass so PSI trips once the window fills.
        reference = (calibration + 0.5) % 1.0

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-online-")
    config = OnlineConfig(
        drift_window=max(48, 4 * args.batch),
        min_observations=max(16, 2 * args.batch),
        n_bins=8,
        keep_fraction=args.keep_fraction,
        influence_strategy=args.estimator,
        retrain_epochs=args.retrain_epochs,
        shadow_requests=args.shadow_requests,
        shadow_window=max(32, 3 * args.shadow_requests),
        gate=PromotionGate(
            min_shadow_requests=max(1, args.shadow_requests),
            min_agreement=args.min_agreement,
            max_accuracy_drop=None,
            max_miss_increase=None,
        ),
        seed=args.seed,
    )
    pipeline = OnlinePipeline.for_zigong(
        zigong,
        reference_scores=reference,
        work_dir=work_dir,
        config=config,
        cluster_config=ClusterConfig(replicas=args.replicas),
        obs=obs,
    )
    pipeline.ingest(examples[split:])

    start = _time.perf_counter()
    served = 0
    ticks = 0
    cursor = 0
    for ticks in range(1, args.max_ticks + 1):
        requests = [traffic[(cursor + j) % len(traffic)] for j in range(args.batch)]
        cursor += args.batch
        served += len(pipeline.tick(requests))
        if pipeline.state.promotions or pipeline.state.rollbacks:
            break
    elapsed = _time.perf_counter() - start

    state = pipeline.state
    rows = [
        ["phase", state.phase],
        ["rounds (drift trips)", state.round],
        ["PSI at last trip", "-" if state.drift_psi is None else f"{state.drift_psi:.3f}"],
        ["promotions", state.promotions],
        ["rollbacks", state.rollbacks],
        ["gate failures", state.gate_failures],
        ["requests served", served],
        ["ticks", ticks],
        ["wall clock", f"{elapsed:.2f}s"],
        ["work dir", work_dir],
    ]
    if pipeline.last_gate is not None:
        verdict = "passed" if pipeline.last_gate.passed else "failed"
        detail = "; ".join(pipeline.last_gate.reasons) or (
            f"agreement {pipeline.last_gate.metrics.get('agreement_rate', float('nan')):.3f}"
        )
        rows.append(["last gate", f"{verdict} ({detail})"])
    print(format_table(["Metric", "Value"], rows, title="repro pipeline run: online learning loop"))
    if state.promotions:
        print("\ndrift -> retrain -> shadow -> promote completed; "
              "the cluster now serves the retrained weights.")
    elif state.rollbacks:
        print("\npromotion rolled back; the cluster serves the prior weights.")
    else:
        print(f"\nno promotion within {args.max_ticks} ticks (phase: {state.phase}).")
    if args.events:
        obs.events.emit_metrics(obs.metrics)
        obs.events.close()
        print(f"events written to {args.events}; inspect with: repro obs report --events {args.events}")
    return 0


def cmd_influence(args) -> int:
    """Attribution front door: train (or reuse checkpoints), rank, explain."""
    import tempfile

    from repro.influence import make_estimator
    from repro.influence.gradients import GradientProjector, trainable_parameters
    from repro.training.checkpoint import CheckpointManager

    train = load_jsonl(args.data)
    val = load_jsonl(args.val_data) if args.val_data else None
    if val is None:
        split = max(1, int(0.9 * len(train)))
        train, val = train[:split], train[split:] or train[-1:]
    zigong = ZiGong.from_examples(list(train) + list(val), config=_zigong_config(args))
    checkpoint_dir = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-influence-")
    manager = CheckpointManager(checkpoint_dir)
    if not manager.checkpoints():
        zigong.finetune(train, checkpoint_dir=checkpoint_dir)
    else:
        # Reusing a checkpoint directory: the model must still carry the
        # adapters those checkpoints were written with.
        zigong.apply_lora()
    checkpoints = manager.checkpoints()
    projector = None
    if args.projection_dim:
        dim = sum(p.size for p in trainable_parameters(zigong.model))
        projector = GradientProjector(dim, k=args.projection_dim, seed=args.seed)
    estimator = make_estimator(
        args.estimator,
        zigong.model,
        checkpoints,
        gamma=args.gamma,
        lam=args.lam,
        projector=projector,
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    train_tokens = zigong.tokenize(train)
    val_tokens = zigong.tokenize(val)
    top = estimator.k_most_influential(
        train_tokens, val_tokens, k=args.top_k, proponents=not args.opponents
    )
    direction = "opponents" if args.opponents else "proponents"
    rows = []
    for j in range(len(val)):
        ranked = ", ".join(
            f"#{index}:{score:+.4f}"
            for index, score in zip(top.indices[j], top.scores[j])
        )
        rows.append([j, ranked])
    print(format_table(
        ["Test", f"top-{args.top_k} {direction} (train index:score)"],
        rows,
        title=f"Influence ({estimator.estimator_name}, {len(train)} train examples)",
    ))
    if args.tokens:
        id_to_token = zigong.tokenizer.vocab.id_to_token
        token_rows = []
        for j, example in enumerate(val_tokens):
            attribution = estimator.token_influence(train_tokens, example)
            per_position = attribution.position_totals()
            ranked = sorted(
                zip(attribution.positions, per_position),
                key=lambda ps: abs(ps[1]),
                reverse=True,
            )[:args.top_k]
            token_rows.append([
                j,
                ", ".join(
                    f"{id_to_token(int(example[0][p]))}:{s:+.4f}" for p, s in ranked
                ),
            ])
        print(format_table(
            ["Test", f"top-{args.top_k} tokens (token:score)"],
            token_rows,
            title="Token-wise attribution",
        ))
    return 0


def cmd_serve(args) -> int:
    import json
    import time as _time

    from repro.errors import QueueFullError
    from repro.obs import Observability, get_observability
    from repro.serving import (
        ClusterConfig,
        ClusterSupervisor,
        ScoreRequest,
        zigong_replica_factory,
    )

    if (args.requests is None) == (args.synthetic is None):
        print("error: pass exactly one of --requests or --synthetic", file=sys.stderr)
        return 2

    zigong = ZiGong.load(args.model)
    if args.requests is not None:
        requests = []
        with open(args.requests, encoding="utf-8") as handle:
            for i, line in enumerate(handle):
                if not line.strip():
                    continue
                record = json.loads(line)
                text = record.get("behavior_text") or record.get("text") or record.get("prompt")
                if not text:
                    print(f"error: line {i + 1} has no behavior text", file=sys.stderr)
                    return 2
                requests.append(ScoreRequest(record.get("user_id", f"user-{i}"), text))
    else:
        from repro.datasets import make_behavior

        dataset = make_behavior(n_users=max(1, (args.synthetic + 1) // 2), n_periods=2, seed=args.seed)
        requests = [
            ScoreRequest(f"user-{u:04d}-p{p}", dataset.row_text(u, p))
            for u in range(dataset.n_users)
            for p in range(dataset.n_periods)
        ][: args.synthetic]

    if args.continuous and args.transport != "thread":
        print("error: --continuous requires --transport thread", file=sys.stderr)
        return 2
    obs = Observability.create(events_path=args.events) if args.events else get_observability()
    cluster = ClusterSupervisor(
        zigong_replica_factory(zigong, threshold=args.threshold, quantize=args.quantize),
        ClusterConfig(
            replicas=args.replicas,
            transport=args.transport,
            engine_mode="continuous" if args.continuous else "microbatch",
            max_batch_size=args.max_batch_size,
            queue_capacity=max(64, args.max_batch_size * 4),
        ),
        obs=obs,
        audit_path=args.audit,
    )
    start = _time.perf_counter()
    with cluster:
        pendings = []
        for request in requests:
            while True:
                try:
                    pendings.append(cluster.submit(request))
                    break
                except QueueFullError:
                    _time.sleep(0.002)  # backpressure: wait for queue room
        results = [p.result(timeout=args.timeout) for p in pendings]
    elapsed = _time.perf_counter() - start

    rows = [
        [r.user_id, f"{r.score:.4f}", "yes" if r.approved else "no", r.replica]
        for r in results[: args.show]
    ]
    print(format_table(["User", "P(default)", "Approved", "Replica"], rows,
                       title=f"repro serve: first {len(rows)} of {len(results)} decisions"))
    per_replica = {r.id: 0 for r in cluster.replicas}
    for r in results:
        if r.replica is not None:
            per_replica[r.replica] += 1
    print(
        f"\n{len(results)} requests on {args.replicas} {args.transport} "
        f"{'continuous' if args.continuous else 'micro-batch'} replica(s) "
        f"in {elapsed:.2f}s ({len(results) / elapsed:.1f} req/s); "
        f"per-replica load {per_replica}; restarts {cluster.stats.restarts}"
    )
    if args.events:
        obs.events.emit_metrics(obs.metrics)
        obs.events.close()
        print(f"events written to {args.events}; inspect with: repro obs report --events {args.events}")
    if args.audit:
        print(f"{len(results)} audit.decision records appended to {args.audit}")
    return 0


def cmd_obs_report(args) -> int:
    from repro.obs import read_events, render_report

    events = read_events(args.events)
    print(render_report(events))
    return 0


def cmd_table3(args) -> int:
    print(format_table(
        ["Category", "Parameter", "Paper (Mistral 7B)", "This reproduction"],
        table3_rows(bench_config()),
        title="Table 3: ZiGong configuration",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list available dataset generators").set_defaults(fn=cmd_datasets)

    p = sub.add_parser("generate", help="generate instruction data as jsonl")
    p.add_argument("--dataset", required=True)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", type=float, default=None, help="also write a test split")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="fine-tune ZiGong on a jsonl file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("test", "bench"), default="test")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--no-lora", action="store_true", help="full-parameter fine-tune")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the latest checkpoint in --checkpoint-dir "
        "(bit-identical to an uninterrupted run)",
    )
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a jsonl file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser(
        "pipeline",
        help="data pipelines: prune + mix + fine-tune (default) or the online loop",
    )
    pipe_sub = p.add_subparsers(dest="pipeline_command", required=False)
    run = pipe_sub.add_parser(
        "run",
        help="online learning daemon: drift -> retrain -> shadow -> promote",
    )
    run.add_argument("--users", type=int, default=24, help="synthetic behavior users")
    run.add_argument("--periods", type=int, default=4, help="periods per user")
    run.add_argument("--replicas", type=int, default=2)
    run.add_argument("--batch", type=int, default=8, help="score requests per tick")
    run.add_argument("--max-ticks", type=int, default=60)
    run.add_argument("--epochs", type=int, default=2, help="base fine-tune epochs")
    run.add_argument("--retrain-epochs", type=int, default=1)
    run.add_argument("--estimator", default="agent",
                     help="influence filter for the retrain set "
                     "(tracin/tracseq/datainf/agent/combined/ppl/random)")
    run.add_argument("--keep-fraction", type=float, default=0.7)
    run.add_argument("--shadow-requests", type=int, default=12,
                     help="shadow comparisons collected before the gate decides")
    run.add_argument("--min-agreement", type=float, default=0.0)
    run.add_argument("--no-drift", action="store_true",
                     help="calibrate the reference on live scores (loop stays in monitor)")
    run.add_argument("--work-dir", default=None,
                     help="pipeline state directory (default: a fresh temp dir); "
                     "rerunning over an existing one resumes the persisted phase")
    run.add_argument("--lr", type=float, default=5e-3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--preset", choices=("test", "bench"), default="test")
    run.add_argument("--events", default=None,
                     help="record obs events to this jsonl (view: repro obs report)")
    run.set_defaults(fn=cmd_pipeline_run)

    p.add_argument("--dataset", default="german")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--estimator", default="tracseq",
                   help="pruning score backend (tracin/tracseq/datainf/agent/combined/ppl/random)")
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--workers", type=int, default=0,
                   help="process-pool size for influence checkpoint replay (0 = in-process)")
    p.add_argument("--cache-dir", default=None,
                   help="directory for the gradient store's disk tier (reused across runs)")
    p.add_argument("--pruned-fraction", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("test", "bench"), default="test")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser(
        "influence",
        help="rank influential training examples (and tokens) for test examples",
    )
    p.add_argument("--data", required=True, help="training examples (jsonl)")
    p.add_argument("--val-data", default=None,
                   help="test examples to attribute (jsonl); default: a 10%% tail split of --data")
    p.add_argument("--estimator", choices=("tracin", "tracseq", "datainf"), default="datainf")
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--opponents", action="store_true",
                   help="rank the most *opposing* examples instead of proponents")
    p.add_argument("--tokens", action="store_true",
                   help="also print the token-wise attribution per test example")
    p.add_argument("--gamma", type=float, default=0.9, help="tracseq time decay")
    p.add_argument("--lam", type=float, default=None,
                   help="datainf Hessian regularizer (default: per-layer heuristic)")
    p.add_argument("--projection-dim", type=int, default=128,
                   help="gradient sketch size (0 = exact gradients)")
    p.add_argument("--workers", type=int, default=0,
                   help="process-pool size for influence checkpoint replay (0 = in-process)")
    p.add_argument("--cache-dir", default=None,
                   help="directory for the gradient store's disk tier (reused across runs)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="reuse checkpoints from a previous run instead of retraining")
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--lr", type=float, default=5e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", choices=("test", "bench"), default="test")
    p.set_defaults(fn=cmd_influence)

    p = sub.add_parser("serve", help="score requests on a replicated serving cluster")
    p.add_argument("--model", required=True, help="saved model directory (repro train --out)")
    p.add_argument("--replicas", type=int, default=2)
    p.add_argument("--transport", choices=("thread", "fork"), default="thread")
    p.add_argument(
        "--continuous",
        action="store_true",
        help="continuous-batching engines: generative decode with streaming "
        "admission instead of per-tick micro-batches (thread transport only)",
    )
    p.add_argument("--requests", default=None, help="jsonl with user_id + behavior_text per line")
    p.add_argument("--synthetic", type=int, default=None, help="score N synthetic behavior rows instead")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument(
        "--quantize",
        choices=("int8",),
        default=None,
        help="serve replicas from int8 weights on the fused inference kernel "
        "(~4x less weight memory per replica; the saved checkpoint stays float)",
    )
    p.add_argument("--max-batch-size", type=int, default=8)
    p.add_argument("--timeout", type=float, default=60.0, help="per-request wait bound (seconds)")
    p.add_argument("--show", type=int, default=10, help="decisions to print")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--events", default=None, help="record an obs run file (for `repro obs report`)")
    p.add_argument(
        "--audit",
        default=None,
        help="append one JSON-lines audit.decision record per served decision to this file",
    )
    p.set_defaults(fn=cmd_serve)

    sub.add_parser("table3", help="print the configuration table").set_defaults(fn=cmd_table3)

    p = sub.add_parser("obs", help="observability utilities")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    r = obs_sub.add_parser(
        "report", help="render metrics / spans / events from a recorded JSONL run"
    )
    r.add_argument("--events", required=True, help="JSON-lines file written by an EventSink")
    r.set_defaults(fn=cmd_obs_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
