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
    def test_appends_one_entry_per_run(self, ledger, checkout, tmp_path, monkeypatch):
        path_counts = {"instrument_calls_per_decision": 1.5, "python_calls_per_decision": 20.0}
        counted: list[Path] = []
        monkeypatch.setattr(
            ledger, "checkout_counts", lambda root: counted.append(root) or dict(path_counts)
        )
        results = tmp_path / "results"
        head = git(checkout, "rev-parse", "--short", "HEAD")
        first = ledger.record("decide_microbatch", 3, 0.5, checkout=checkout, results_dir=results)
        assert first == {
            "git_rev": head,
            "dirty": False,
            "seed": 3,
            "seconds": 0.5,
            "metrics": {"latency_p50_ms": 1.25, "peak_rss_mb": 90.5},
            "counts": {"light.decisions": 40, "deploy.swaps": 2, **path_counts},
        }
        (checkout / "canned.json").write_text(json.dumps(REPORT, indent=1))
        second = ledger.record("decide_microbatch", 3, 0.5, checkout=checkout, results_dir=results)
        assert second["dirty"] is True
        entries = json.loads((results / "BENCH_decide_microbatch.json").read_text())
        assert entries == [first, second]
        assert counted == [checkout, checkout]

    def test_counts_come_from_the_checkouts_own_src(self, ledger, checkout):
        # The checkout has no src/: the count run must fail rather than
        # fall back on the ledger's own tree.
        with pytest.raises(RuntimeError, match="request-path counts failed"):
            ledger.checkout_counts(checkout)

    def test_a_failed_run_records_nothing(self, ledger, checkout, tmp_path):
        (checkout / "canned.json").write_text(json.dumps({"fail": True}))
        with pytest.raises(RuntimeError, match="CHECK FAILED: canned"):
            ledger.record("decide_microbatch", 3, 0.5, checkout=checkout, results_dir=tmp_path)
        assert not (tmp_path / "BENCH_decide_microbatch.json").exists()


class TestRecordAgainstPrevious:
    """``record`` reports its counts against the last entry of the same run shape."""

    def record(self, ledger, checkout, results, monkeypatch, capsys, counts, seconds=0.5):
        monkeypatch.setattr(ledger, "checkout_counts", lambda root: {})
        monkeypatch.setattr(
            ledger,
            "run_perfbench",
            lambda root, workload, seed, secs: {**REPORT, "seconds": secs, "counts": [counts]},
        )
        ledger.record("decide_microbatch", 3, seconds, checkout=checkout, results_dir=results)
        return capsys.readouterr().out.splitlines()

    def test_first_identical_then_changed_counts(self, ledger, checkout, tmp_path, monkeypatch, capsys):
        head = git(checkout, "rev-parse", "--short", "HEAD")
        results = tmp_path / "results"
        counts = dict(REPORT["counts"][0])

        def run(counts, **kwargs):
            return self.record(ledger, checkout, results, monkeypatch, capsys, counts, **kwargs)

        assert run(counts) == ["no previous entry"]
        assert run(counts) == [f"counts identical to {head}"]
        # Another --seconds is another run shape: nothing to compare with.
        assert run({**counts, "light.decisions": 99}, seconds=2.0) == ["no previous entry"]
        changed = {"light.decisions": 41, "light.extra": 1, "deploy.swaps": 2}
        assert run(changed) == [
            f"since {head}: light.decisions 40 -> 41",
            f"since {head}: light.extra None -> 1",
        ]
        entries = json.loads((results / "BENCH_decide_microbatch.json").read_text())
        assert len(entries) == 4  # reported, never gated

    def test_main_exit_code_is_unchanged_by_differing_counts(self, ledger, checkout, tmp_path, monkeypatch, capsys):
        results = tmp_path / "results"
        monkeypatch.setattr(ledger, "checkout_counts", lambda root: {})
        for decisions in (40, 41):
            monkeypatch.setattr(
                ledger,
                "run_perfbench",
                lambda *args, n=decisions: {**REPORT, "counts": [{"light.decisions": n}]},
            )
            argv = ["record", "--workload", "w", "--seed", "3", "--seconds", "0.5", "--results", str(results)]
            assert ledger.main(argv) == 0
        assert "light.decisions 40 -> 41" in capsys.readouterr().out


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


class TestAbCounts:
    """``ab`` compares perfbench's counts within each pair (perfbench stubbed)."""

    def run_ab(self, ledger, checkout, monkeypatch, this_counts):
        runs = {"base": 0, "this": 0}

        def fake_run(root, workload, seed, seconds):
            side = "this" if Path(root) == checkout else "base"
            runs[side] += 1
            counts = REPORT["counts"][0] if side == "base" else this_counts(runs[side])
            return {**REPORT, "counts": [counts]}

        monkeypatch.setattr(ledger, "run_perfbench", fake_run)
        out = ledger.ab("HEAD", "decide_microbatch", 3, 0.5, 3, checkout=checkout)
        assert runs == {"base": 3, "this": 3}
        return out.splitlines()

    def test_equal_counts_print_counts_identical(self, ledger, checkout, monkeypatch):
        lines = self.run_ab(ledger, checkout, monkeypatch, lambda _run: dict(REPORT["counts"][0]))
        assert lines[-1] == "counts identical"

    def test_each_differing_count_is_printed_per_pair(self, ledger, checkout, monkeypatch):
        def this_counts(run):
            counts = dict(REPORT["counts"][0])
            if run == 2:
                counts["light.decisions"] = 41
                counts["light.extra"] = 1
            return counts

        lines = self.run_ab(ledger, checkout, monkeypatch, this_counts)
        assert "counts identical" not in lines
        assert lines[-2:] == ["pair 2: light.decisions 40 -> 41", "pair 2: light.extra None -> 1"]
