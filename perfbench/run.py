"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decide_microbatch --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is their
median), measures it untraced and prints every end-to-end metric, its
times scaled to the host's full speed (see ``stats.HostSpeed``).
``--trace 1`` sets up once, measures untraced, then measures again with
per-layer spans recorded and prints every per-layer metric, including the
tracing overhead.  Both check the program's outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  A human-readable report precedes it, and the full report (plus
the spans of a traced run) is written under ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-ups per untraced run; setup_s is their median


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(workload):
    """Set up ``SETUPS`` times, then measure; returns (metrics, runs, extra, problems).

    Each set-up is timed between reference-kernel passes and scaled like
    a round.
    """
    from stats import HostSpeed, Metric

    speed = HostSpeed()
    spans = [speed.run(workload.setup)[1] for _ in range(SETUPS)]
    setup_s = [(end - start) * scale for (start, end), scale in zip(spans, speed.scales(spans))]
    run = workload.measure("measure")
    metrics = workload.metrics(run)
    metrics["setup_s"] = Metric(statistics.median(setup_s), "s", SETUPS, tuple(setup_s))
    metrics["peak_rss_mb"] = Metric(_peak_rss_mb(), "MB", 1)
    return metrics, [run], {}, []


def _traced(workload, out_dir: Path, stem: str):
    """Measure untraced, then traced; returns (metrics, runs, extra, problems)."""
    from spans import Tracer
    from stats import Metric, median

    workload.setup()
    base = workload.measure("untraced")
    tracer = Tracer()
    with tracer:
        # Rebuilt under the wrappers: engines bind the transport at construction.
        workload.rebuild()
        tracer.recording = True
        traced = workload.measure("traced")
        tracer.recording = False
    # Both passes run the same amount of work per round; compare their
    # median rounds at reference speed.
    untraced_s, traced_s = (median(run.round_s()) for run in (base, traced))
    overhead = 100.0 * (traced_s - untraced_s) / untraced_s
    tracer.write(out_dir / f"{stem}-spans.jsonl")
    metrics = {name: Metric(value, unit, len(tracer.spans)) for name, (value, unit) in tracer.metrics(overhead).items()}
    extra = {
        "median_round_s": {"untraced": untraced_s, "traced": traced_s},
        "spans": len(tracer.spans),
        "self_ms": {k: v * 1e3 for k, v in tracer.self_times().items()},
    }
    problems = [f"wrapper not restored: {name}" for name in tracer.leftovers()]
    return metrics, [base, traced], extra, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # One BLAS thread: every time is CPU time of the one driving thread
    # (stats.clock), which work on a BLAS thread would escape, and BLAS
    # threads on these tiny matrices only add scheduling noise.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    work_dir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench" / "out"
    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir)  # keep every temporary file inside the checkout
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds, work_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, runs, extra, problems = _traced(workload, out_dir, stem)
        else:
            metrics, runs, extra, problems = _untraced(workload)
        for run in runs:
            problems += workload.check(run)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tail_percentile": workload.tail_q,
            "metrics": {name: vars(metric) for name, metric in metrics.items()},
            "counts": [workload.counts(run) for run in runs],
            "phase_s": [
                {name: sum(p.seconds for p in run.phases(name)) for name in run.phase_names} for run in runs
            ],
            "round_scales": [run.scales for run in runs],
            "inputs": [workload.report(run) for run in runs],
            "checks": problems,
            "extra": extra,
        }
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2, default=str))
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"(tail = p{workload.tail_q:g})")
    for name, m in metrics.items():
        print(f"  {name:28s} {m.value:14.4f} {m.unit:8s} n={m.samples}")
    for counts in report["counts"]:
        print(f"  counts {json.dumps(counts)}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
