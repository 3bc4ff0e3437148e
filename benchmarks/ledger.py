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
``git_rev``, so an entry taken in an uncommitted tree says so.

``ab`` checks ``--rev`` out with ``git worktree add`` under a temporary
directory and runs ``--pairs`` pairs of that rev and this checkout,
alternating which side runs first.  It prints each metric's median and
quartiles per side and how many pairs each side won (ties count for
neither; the better direction comes from ``BENCHMARK.json``), then
removes the worktree.
"""

from __future__ import annotations

import argparse
import json
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
    """Run one workload in ``checkout``; append its entry to the workload's ledger."""
    report = run_perfbench(checkout, workload, seed, seconds)
    rev, dirty = git_rev(checkout)
    (counts,) = report["counts"]  # --trace 0 measures one run
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
    try:
        for i in range(pairs):
            order = ("base", "this") if i % 2 == 0 else ("this", "base")
            for side in order:
                report = run_perfbench(other if side == "base" else checkout, workload, seed, seconds)
                runs[side].append({n: m["value"] for n, m in report["metrics"].items()})
                print(f"pair {i + 1}/{pairs}: {side} done", file=sys.stderr, flush=True)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(other)], cwd=checkout, capture_output=True
        )
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=checkout, capture_output=True)
    header = f"ab {workload} seed {seed} seconds {seconds:g}: {pairs} pairs, alternating order"
    return header + "\n" + render(summarize(runs["base"], runs["this"], _better()), rev, label, pairs)


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
