"""Performance ledger: committed benchmark results and paired A/B runs.

Both commands drive ``perfbench/run.py --trace 0`` as it stands and read
the report it writes to ``.perfbench/out/<workload>-seed<n>-trace0.json``.
Usage, from the root of a checkout::

    python3 benchmarks/ledger.py record --workload decide_microbatch --seed 1 --seconds 20
    python3 benchmarks/ledger.py ab --rev HEAD~1 --workload decide_microbatch \\
        --seed 1 --seconds 20 --pairs 10

``record`` runs one workload once and appends an entry
``{git_rev, dirty, seed, seconds, metrics, counts}`` to
``benchmarks/results/BENCH_<workload>.json`` (``--results`` names
another directory).  ``dirty`` is true when tracked files differ from
``git_rev``, so an entry taken in an uncommitted tree says so.  It then
compares the entry's ``counts`` with the last entry of the same seed
and ``--seconds`` and prints each count that differs, "counts identical
to <rev>" or "no previous entry"; this reports and gates nothing.
Besides perfbench's counts, ``counts`` holds the same checkout's
request-path counts (:func:`request_path_counts`): instrument calls and
Python function calls per decision on a synchronous stub cluster, run
in one fresh interpreter that imports only that checkout's ``src/``.
They are exact, so they repeat on any host.

``ab`` checks ``--rev`` out with ``git worktree add`` under a temporary
directory and runs ``--pairs`` pairs of that rev and this checkout,
alternating which side runs first.  It prints each metric's median and
quartiles per side and how many pairs each side won (ties count for
neither; the better direction comes from ``BENCHMARK.json``), then
removes the worktree.  It also compares perfbench's ``counts`` within
each pair and prints every count that differs, or "counts identical":
for a given seed and ``--seconds`` they repeat exactly, so a change
that keeps behaviour leaves them equal.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def git_rev(cwd: Path | str = ROOT) -> tuple[str | None, bool]:
    """``(short HEAD hash, dirty)`` of the checkout at ``cwd``.

    ``dirty`` is true when a tracked file differs from HEAD; untracked
    files do not count.  Outside a checkout: ``(None, False)``.
    """

    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(
                ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = git("rev-parse", "--short", "HEAD")
    if not rev:
        return None, False
    return rev, bool(git("status", "--porcelain", "--untracked-files=no"))


REQUESTS = 256  # decisions in the request-path count run
WAVE = 16  # requests per wave: one full batch of 8 on each of 2 replicas


def request_path_counts(requests: int = REQUESTS, src: Path = ROOT / "src") -> dict[str, float]:
    """Instrument calls and Python function calls per decision on a stub cluster.

    A synchronous 2-replica thread cluster (batches of 8, instruments
    on, no event file) over a stub ``batch_fn`` serves ``requests``
    requests in waves of 16: each wave is submitted, one cluster pump
    scores one full batch per replica, and every result is read.  One
    wave warms the cluster first.  Instrument calls are counter
    ``inc``s, gauge ``set``/``inc``s, histogram ``observe``s and
    ``observe_many``s, spans and hub events; Python calls are
    ``sys.setprofile`` ``call`` events, counted in a second, unwrapped
    run with the garbage collector paused.  Nothing is timed, so both
    numbers are exact.  ``repro`` is imported from ``src`` unless this
    process has imported it already.
    """
    src = str(src)
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs import Counter, Gauge, Histogram, Observability, Tracer
    from repro.serving import ClusterConfig, ClusterSupervisor, ReplicaApp, ScoreRequest, ScoreResult

    def batch_fn(batch):
        return [
            ScoreResult(r.user_id, (len(r.behavior_text) % 10) / 10 + 0.05, True, 0.5)
            for r in batch
        ]

    def serve(count: int, first: int = 0) -> None:
        cluster = serve.cluster
        for start in range(first, first + count, WAVE):
            pendings = [
                cluster.submit(ScoreRequest(f"user-{i}", f"txn {'x' * (i % 11)}"))
                for i in range(start, start + WAVE)
            ]
            cluster.pump()
            for pending in pendings:
                pending.result(timeout=0)

    def fresh_cluster() -> None:
        serve.cluster = ClusterSupervisor(
            lambda replica_id: ReplicaApp(batch_fn=batch_fn),
            ClusterConfig(replicas=2, max_batch_size=8, queue_capacity=64),
            obs=Observability.create(),
        )
        serve.cluster.launch()
        serve(WAVE)  # warm-up wave, not counted

    instrumented = [
        (Counter, "inc"), (Gauge, "set"), (Gauge, "inc"), (Histogram, "observe"),
        (Histogram, "observe_many"), (Tracer, "span"), (Observability, "event"),
    ]
    calls = {"instrument": 0, "python": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["instrument"] += 1
            return fn(*args, **kwargs)

        return wrapper

    originals = [(cls, name, getattr(cls, name)) for cls, name in instrumented]
    for cls, name, fn in originals:
        setattr(cls, name, counted(fn))
    try:
        fresh_cluster()  # built under the wrappers: a hub binds its tracer's span
        calls["instrument"] = 0
        serve(requests, WAVE)
    finally:
        for cls, name, fn in originals:
            setattr(cls, name, fn)
    serve.cluster.stop(drain=False)

    def profile(frame, event, arg):
        if event == "call":
            calls["python"] += 1

    fresh_cluster()
    gc.collect()
    gc.disable()  # a collection would run other objects' finalizers inside the count
    sys.setprofile(profile)
    try:
        serve(requests, WAVE)
    finally:
        sys.setprofile(None)
        gc.enable()
    serve.cluster.stop(drain=False)
    return {
        "instrument_calls_per_decision": calls["instrument"] / requests,
        "python_calls_per_decision": calls["python"] / requests,
    }


def checkout_counts(checkout: Path) -> dict[str, float]:
    """:func:`request_path_counts` of ``checkout``'s ``src/``, in a fresh interpreter."""
    src = Path(checkout) / "src"
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import ledger; "
        "print(json.dumps(ledger.request_path_counts(src=sys.argv[2])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(src)],
        cwd=checkout, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"request-path counts failed in {checkout} (exit {proc.returncode}):\n"
            + (proc.stdout + proc.stderr)[-2000:]
        )
    return json.loads(proc.stdout)


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run ``perfbench/run.py --trace 0`` in ``checkout``; return its report."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} failed in {checkout} (exit {proc.returncode}):\n"
            + (proc.stdout + proc.stderr)[-2000:]
        )
    out = checkout / ".perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(out.read_text())


def record(
    workload: str,
    seed: int,
    seconds: float,
    checkout: Path = ROOT,
    results_dir: Path = RESULTS_DIR,
) -> dict:
    """Run one workload in ``checkout``; append its entry to the workload's ledger.

    Every figure in the entry, the request-path counts included, comes
    from ``checkout``.
    """
    report = run_perfbench(checkout, workload, seed, seconds)
    rev, dirty = git_rev(checkout)
    (counts,) = report["counts"]  # --trace 0 measures one run
    counts = {**counts, **checkout_counts(checkout)}
    item = {
        "git_rev": rev,
        "dirty": dirty,
        "seed": report["seed"],
        "seconds": report["seconds"],
        "metrics": {name: metric["value"] for name, metric in report["metrics"].items()},
        "counts": counts,
    }
    path = Path(results_dir) / f"BENCH_{workload}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    print("\n".join(against_previous(entries, item)))
    entries.append(item)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=2) + "\n")
    return item


def _better() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(base: list[dict], this: list[dict], better: dict[str, str]) -> list[dict]:
    """Per metric: each side's quartiles and pair wins (ties count for neither)."""
    rows = []
    for name in base[0]:
        a = [metrics[name] for metrics in base]
        b = [metrics[name] for metrics in this]
        sign = {"lower": -1, "higher": 1}.get(better.get(name))
        wins = None
        if sign is not None:
            wins = (
                sum(sign * (y - x) > 0 for x, y in zip(a, b)),
                sum(sign * (x - y) > 0 for x, y in zip(a, b)),
            )
        rows.append({"metric": name, "base": _quartiles(a), "this": _quartiles(b), "wins": wins})
    return rows


def count_diffs(base: list[dict], this: list[dict], prefix: str = "pair {i}: ") -> list[str]:
    """Each count that differs within a pair: ``pair i: name base -> this``."""
    lines = []
    for i, (a, b) in enumerate(zip(base, this), 1):
        for name in sorted(a.keys() | b.keys()):
            if a.get(name) != b.get(name):
                lines.append(f"{prefix.format(i=i)}{name} {a.get(name)} -> {b.get(name)}")
    return lines


def against_previous(entries: list[dict], item: dict) -> list[str]:
    """``item``'s counts against the last of ``entries`` with its seed and seconds."""
    same_run = [e for e in entries if (e["seed"], e["seconds"]) == (item["seed"], item["seconds"])]
    if not same_run:
        return ["no previous entry"]
    previous = same_run[-1]
    diffs = count_diffs([previous["counts"]], [item["counts"]], prefix=f"since {previous['git_rev']}: ")
    return diffs or [f"counts identical to {previous['git_rev']}"]


def render(rows: list[dict], rev: str, label: str, pairs: int) -> str:
    def side(q1: float, med: float, q3: float) -> str:
        return f"{med:>10.6g} [{q1:.6g}, {q3:.6g}]"

    lines = [
        f"{'metric':16s} {'base ' + rev + ': median [q1, q3]':>40s} "
        f"{'this ' + label + ': median [q1, q3]':>40s} {'change':>8s}  wins this/base"
    ]
    for row in rows:
        bmed = row["base"][1]
        change = f"{100.0 * (row['this'][1] - bmed) / bmed:+.1f}%" if bmed else "n/a"
        wins = f"{row['wins'][0]}/{row['wins'][1]} of {pairs}" if row["wins"] else "n/a"
        lines.append(
            f"{row['metric']:16s} {side(*row['base']):>40s} {side(*row['this']):>40s} "
            f"{change:>8s}  {wins}"
        )
    return "\n".join(lines)


def ab(rev: str, workload: str, seed: int, seconds: float, pairs: int, checkout: Path = ROOT) -> str:
    """Run ``pairs`` alternating pairs of ``rev`` against ``checkout``; return the table."""
    this_rev, dirty = git_rev(checkout)
    label = f"{this_rev}{'-dirty' if dirty else ''}"
    scratch = Path(tempfile.mkdtemp(prefix="ledger-ab-"))
    other = scratch / "base"
    added = subprocess.run(
        ["git", "worktree", "add", "--detach", str(other), rev],
        cwd=checkout, capture_output=True, text=True,
    )
    if added.returncode != 0:
        shutil.rmtree(scratch, ignore_errors=True)
        raise RuntimeError(f"git worktree add {rev} failed: {added.stderr.strip()}")
    runs: dict[str, list[dict]] = {"base": [], "this": []}
    counts: dict[str, list[dict]] = {"base": [], "this": []}
    try:
        for i in range(pairs):
            order = ("base", "this") if i % 2 == 0 else ("this", "base")
            for side in order:
                report = run_perfbench(other if side == "base" else checkout, workload, seed, seconds)
                runs[side].append({n: m["value"] for n, m in report["metrics"].items()})
                (run_counts,) = report["counts"]  # --trace 0 measures one run
                counts[side].append(run_counts)
                print(f"pair {i + 1}/{pairs}: {side} done", file=sys.stderr, flush=True)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(other)], cwd=checkout, capture_output=True
        )
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=checkout, capture_output=True)
    header = f"ab {workload} seed {seed} seconds {seconds:g}: {pairs} pairs, alternating order"
    table = render(summarize(runs["base"], runs["this"], _better()), rev, label, pairs)
    diffs = count_diffs(counts["base"], counts["this"])
    return "\n".join([header, table, *(diffs or ["counts identical"])])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("record", "ab"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--workload", required=True)
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--seconds", type=float, required=True)
        if name == "record":
            cmd.add_argument("--results", type=Path, default=RESULTS_DIR)
        else:
            cmd.add_argument("--rev", required=True)
            cmd.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.command == "record":
        item = record(args.workload, args.seed, args.seconds, results_dir=args.results)
        print(json.dumps(item, indent=2))
    else:
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        print(ab(args.rev, args.workload, args.seed, args.seconds, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
