"""``benchmarks/ledger.py``: ledger entries from a perfbench report, and the git rev helper."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger.py"

REPORT = {
    "workload": "decide_microbatch",
    "seed": 3,
    "seconds": 0.5,
    "trace": 0,
    "metrics": {
        "latency_p50_ms": {"value": 1.25, "unit": "ms", "samples": 40},
        "peak_rss_mb": {"value": 90.5, "unit": "MB", "samples": 1},
    },
    "counts": [{"light.decisions": 40, "deploy.swaps": 2}],
    "phase_s": [{"light": 0.1}],
}

# Stands in for perfbench/run.py: writes the canned report where the real
# harness writes its own, or fails when asked to.
FAKE_RUN = """\
import argparse, json, pathlib, sys
parser = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(name)
args = parser.parse_args()
report = json.loads(pathlib.Path("canned.json").read_text())
if report.get("fail"):
    print("CHECK FAILED: canned"); sys.exit(1)
assert args.trace == "0"
out = pathlib.Path(".perfbench/out")
out.mkdir(parents=True, exist_ok=True)
(out / f"{args.workload}-seed{args.seed}-trace0.json").write_text(json.dumps(report))
"""


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(cwd: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", "-c", "user.name=ledger", "-c", "user.email=ledger@example.com", "-c", "commit.gpgsign=false", *args],
        cwd=cwd, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


@pytest.fixture
def checkout(tmp_path: Path) -> Path:
    """A committed checkout whose perfbench/run.py replays a canned report."""
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "canned.json").write_text(json.dumps(REPORT))
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "canned")
    return root


class TestGitRev:
    def test_clean_then_dirty(self, ledger, checkout):
        head = git(checkout, "rev-parse", "--short", "HEAD")
        assert ledger.git_rev(checkout) == (head, False)
        (checkout / "untracked.txt").write_text("ignored by the marker")
        assert ledger.git_rev(checkout) == (head, False)
        (checkout / "canned.json").write_text(json.dumps(REPORT) + "\n")
        assert ledger.git_rev(checkout) == (head, True)

    def test_outside_a_checkout(self, ledger, tmp_path):
        assert ledger.git_rev(tmp_path) == (None, False)


class TestRecord:
    def test_appends_one_entry_per_run(self, ledger, checkout, tmp_path):
        results = tmp_path / "results"
        head = git(checkout, "rev-parse", "--short", "HEAD")
        first = ledger.record("decide_microbatch", 3, 0.5, checkout=checkout, results_dir=results)
        assert first == {
            "git_rev": head,
            "dirty": False,
            "seed": 3,
            "seconds": 0.5,
            "metrics": {"latency_p50_ms": 1.25, "peak_rss_mb": 90.5},
            "counts": {"light.decisions": 40, "deploy.swaps": 2},
        }
        (checkout / "canned.json").write_text(json.dumps(REPORT, indent=1))
        second = ledger.record("decide_microbatch", 3, 0.5, checkout=checkout, results_dir=results)
        assert second["dirty"] is True
        entries = json.loads((results / "BENCH_decide_microbatch.json").read_text())
        assert entries == [first, second]

    def test_a_failed_run_records_nothing(self, ledger, checkout, tmp_path):
        (checkout / "canned.json").write_text(json.dumps({"fail": True}))
        with pytest.raises(RuntimeError, match="CHECK FAILED: canned"):
            ledger.record("decide_microbatch", 3, 0.5, checkout=checkout, results_dir=tmp_path)
        assert not (tmp_path / "BENCH_decide_microbatch.json").exists()


class TestSummarize:
    def test_wins_follow_the_better_direction_and_ties_count_for_neither(self, ledger):
        base = [{"lat": 2.0, "rps": 10.0}, {"lat": 2.0, "rps": 10.0}, {"lat": 1.0, "rps": 12.0}]
        this = [{"lat": 1.0, "rps": 11.0}, {"lat": 2.0, "rps": 10.0}, {"lat": 1.5, "rps": 11.0}]
        rows = {row["metric"]: row for row in ledger.summarize(base, this, {"lat": "lower", "rps": "higher"})}
        assert rows["lat"]["wins"] == (1, 1)
        assert rows["rps"]["wins"] == (1, 1)
        assert rows["lat"]["base"][1] == 2.0 and rows["lat"]["this"][1] == 1.5

    def test_a_metric_without_a_direction_has_no_wins(self, ledger):
        rows = ledger.summarize([{"x": 1.0}], [{"x": 2.0}], {})
        assert rows == [{"metric": "x", "base": (1.0, 1.0, 1.0), "this": (2.0, 2.0, 2.0), "wins": None}]
