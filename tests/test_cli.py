"""CLI tests (invoking main() in-process)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestDatasetsCommand:
    def test_lists_generators(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "german" in out
        assert "financial_audit" in out


class TestGenerateCommand:
    def test_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code = main(["generate", "--dataset", "german", "--n", "40", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote 40 examples" in capsys.readouterr().out

    def test_split_writes_both_files(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code = main(
            ["generate", "--dataset", "german", "--n", "50", "--split", "0.2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "data.test.jsonl").exists()

    def test_unknown_dataset_fails_cleanly(self, tmp_path, capsys):
        code = main(["generate", "--dataset", "nope", "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainEvaluateRoundtrip:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        data = tmp / "data.jsonl"
        model_dir = tmp / "model"
        assert main([
            "generate", "--dataset", "german", "--n", "100", "--split", "0.2",
            "--out", str(data),
        ]) == 0
        assert main([
            "train", "--data", str(data), "--out", str(model_dir), "--epochs", "5",
        ]) == 0
        return data, model_dir

    def test_model_saved(self, artifacts):
        _, model_dir = artifacts
        assert (model_dir / "weights.npz").exists()
        assert (model_dir / "zigong.json").exists()

    def test_evaluate_prints_metrics(self, artifacts, capsys):
        data, model_dir = artifacts
        test_file = data.with_name("data.test.jsonl")
        assert main(["evaluate", "--model", str(model_dir), "--data", str(test_file)]) == 0
        out = capsys.readouterr().out
        assert "Acc" in out and "Miss" in out

    def test_evaluate_missing_model_fails(self, tmp_path, artifacts, capsys):
        data, _ = artifacts
        code = main(["evaluate", "--model", str(tmp_path / "ghost"), "--data", str(data)])
        assert code == 1


class TestTable3Command:
    def test_prints_table(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "LoRA Rank" in out
        assert "Mistral 7B" in out


class TestPipelineCommand:
    def test_runs_small_pipeline(self, capsys):
        code = main([
            "pipeline", "--dataset", "german", "--n", "120", "--epochs", "3",
            "--estimator", "agent",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pipeline result" in out

    def test_workers_and_cache_dir_reach_pruner_config(self, tmp_path, monkeypatch):
        """--workers/--cache-dir are threaded into the influence stage."""
        import repro.cli as cli_mod

        captured = {}

        class FakePipeline:
            def __init__(self, config):
                captured["pruner"] = config.pruner
                raise SystemExit(0)  # config captured; skip the real run

        monkeypatch.setattr(cli_mod, "ZiGongPipeline", FakePipeline)
        cache_dir = tmp_path / "gradcache"
        with pytest.raises(SystemExit):
            main([
                "pipeline", "--dataset", "german", "--n", "80",
                "--workers", "3", "--cache-dir", str(cache_dir),
            ])
        assert captured["pruner"].workers == 3
        assert captured["pruner"].cache_dir == str(cache_dir)

    def test_negative_workers_rejected(self, capsys):
        code = main(["pipeline", "--dataset", "german", "--n", "80", "--workers", "-2"])
        assert code == 1
        assert "workers" in capsys.readouterr().err


class TestPipelineRunCommand:
    def test_online_loop_promotes_and_records_events(self, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        code = main([
            "pipeline", "run", "--users", "16", "--periods", "4",
            "--max-ticks", "40", "--work-dir", str(tmp_path / "wd"),
            "--events", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "online learning loop" in out
        assert "promotions" in out
        assert "drift -> retrain -> shadow -> promote completed" in out
        assert events.exists()
        # Every phase transition is visible in the recorded obs report.
        assert main(["obs", "report", "--events", str(events)]) == 0
        report = capsys.readouterr().out
        assert "pipeline.transition" in report
        assert "pipeline.gate" in report
        assert "pipeline.promotions" in report

    def test_no_drift_stays_in_monitor(self, tmp_path, capsys):
        code = main([
            "pipeline", "run", "--users", "12", "--periods", "3",
            "--max-ticks", "6", "--no-drift",
            "--work-dir", str(tmp_path / "wd"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "no promotion within 6 ticks (phase: monitor)" in out

    def test_legacy_pipeline_invocation_still_parses(self, monkeypatch):
        """`repro pipeline --dataset german` (no subcommand) is unchanged."""
        import repro.cli as cli_mod

        captured = {}

        class FakePipeline:
            def __init__(self, config):
                captured["config"] = config
                raise SystemExit(0)

        monkeypatch.setattr(cli_mod, "ZiGongPipeline", FakePipeline)
        with pytest.raises(SystemExit):
            main(["pipeline", "--dataset", "german", "--n", "80"])
        assert "config" in captured


class TestInfluenceCommand:
    @pytest.fixture
    def data_path(self, tmp_path):
        out = tmp_path / "inf.jsonl"
        assert main(["generate", "--dataset", "german", "--n", "30", "--out", str(out)]) == 0
        return out

    def test_ranks_influential_examples(self, data_path, tmp_path, capsys):
        code = main([
            "influence", "--data", str(data_path), "--estimator", "datainf",
            "--top-k", "2", "--epochs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Influence (datainf" in out
        assert "top-2 proponents" in out

    def test_tokens_flag_prints_attribution(self, data_path, tmp_path, capsys):
        code = main([
            "influence", "--data", str(data_path), "--estimator", "tracin",
            "--top-k", "2", "--epochs", "2", "--tokens",
            "--checkpoint-dir", str(tmp_path / "ckpts"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Token-wise attribution" in out

    def test_checkpoint_dir_reused_across_runs(self, data_path, tmp_path, capsys):
        ckpts = tmp_path / "ckpts"
        args = [
            "influence", "--data", str(data_path), "--estimator", "datainf",
            "--top-k", "2", "--epochs", "2", "--checkpoint-dir", str(ckpts),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0  # second run reuses the checkpoints
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_estimator_flag_reaches_pruner_config(self, tmp_path, monkeypatch):
        """pipeline --estimator threads through PrunerConfig.strategy."""
        import repro.cli as cli_mod

        captured = {}

        class FakePipeline:
            def __init__(self, config):
                captured["pruner"] = config.pruner
                raise SystemExit(0)

        monkeypatch.setattr(cli_mod, "ZiGongPipeline", FakePipeline)
        with pytest.raises(SystemExit):
            main(["pipeline", "--dataset", "german", "--n", "80",
                  "--estimator", "datainf"])
        assert captured["pruner"].strategy == "datainf"


class TestServeCommand:
    @pytest.fixture(scope="class")
    def model_dir(self, tmp_path_factory):
        import dataclasses

        from repro.config import test_config
        from repro.core import ZiGong
        from repro.data import build_behavior_examples
        from repro.datasets import make_behavior

        examples = build_behavior_examples(make_behavior(n_users=16, n_periods=2, seed=0))
        config = test_config()
        config = dataclasses.replace(
            config, training=dataclasses.replace(config.training, epochs=2)
        )
        zigong = ZiGong.from_examples(examples, config=config)
        zigong.finetune(examples[:24])
        model_dir = tmp_path_factory.mktemp("serve-cli") / "model"
        zigong.save(model_dir)
        return model_dir

    def test_synthetic_traffic_on_cluster(self, model_dir, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        code = main([
            "serve", "--model", str(model_dir), "--replicas", "2",
            "--synthetic", "8", "--events", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "of 8 decisions" in out
        assert "2 thread micro-batch replica(s)" in out
        assert events.exists()
        # The recorded run renders with the cluster counters visible.
        assert main(["obs", "report", "--events", str(events)]) == 0
        report = capsys.readouterr().out
        assert "cluster.submitted" in report
        assert "cluster.completed" in report

    def test_requests_jsonl_input(self, model_dir, tmp_path, capsys):
        import json

        requests_file = tmp_path / "requests.jsonl"
        rows = [
            {"user_id": "alice", "behavior_text": "spend high utilization rising"},
            {"user_id": "bob", "text": "payments on time balance low"},
        ]
        requests_file.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code = main([
            "serve", "--model", str(model_dir), "--replicas", "1",
            "--requests", str(requests_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "alice" in out and "bob" in out

    def test_audit_file_has_one_record_per_decision(self, model_dir, tmp_path, capsys):
        from repro.obs import read_events

        audit = tmp_path / "audit.jsonl"
        code = main([
            "serve", "--model", str(model_dir), "--replicas", "2",
            "--synthetic", "6", "--audit", str(audit),
        ])
        assert code == 0
        assert "6 audit.decision records appended" in capsys.readouterr().out
        records = read_events(audit)
        assert [r["kind"] for r in records] == ["audit.decision"] * 6
        assert len({r["user_id"] for r in records}) == 6
        assert {r["replica"] for r in records} <= {0, 1}

    def test_requires_exactly_one_source(self, model_dir, capsys):
        assert main(["serve", "--model", str(model_dir)]) == 2
        assert main([
            "serve", "--model", str(model_dir), "--synthetic", "4",
            "--requests", "x.jsonl",
        ]) == 2

    def test_continuous_mode_serves_synthetic_traffic(self, model_dir, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        code = main([
            "serve", "--model", str(model_dir), "--replicas", "2",
            "--continuous", "--synthetic", "6", "--events", str(events),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "of 6 decisions" in out
        assert "2 thread continuous replica(s)" in out
        # Continuous counters land in the recorded obs report.
        assert main(["obs", "report", "--events", str(events)]) == 0
        report = capsys.readouterr().out
        assert "generation.continuous.admitted" in report

    def test_quantized_serving_matches_float_decisions(self, model_dir, capsys):
        code = main([
            "serve", "--model", str(model_dir), "--replicas", "1",
            "--synthetic", "6",
        ])
        assert code == 0
        float_out = capsys.readouterr().out

        code = main([
            "serve", "--model", str(model_dir), "--replicas", "1",
            "--synthetic", "6", "--quantize", "int8",
        ])
        assert code == 0
        quant_out = capsys.readouterr().out
        assert "of 6 decisions" in quant_out

        def decisions(out: str) -> list[tuple[str, str]]:
            # Table rows: User  P(default)  Approved  Replica
            return [
                (line.split()[0], line.split()[2])
                for line in out.splitlines()
                if line.startswith("user-")
            ]

        parsed = decisions(quant_out)
        assert len(parsed) == 6
        assert parsed == decisions(float_out)

    def test_quantize_rejects_unknown_dtype(self, model_dir, capsys):
        with pytest.raises(SystemExit):  # argparse choices=("int8",)
            main([
                "serve", "--model", str(model_dir), "--synthetic", "2",
                "--quantize", "fp4",
            ])

    def test_continuous_requires_thread_transport(self, model_dir, capsys):
        code = main([
            "serve", "--model", str(model_dir), "--replicas", "1",
            "--continuous", "--transport", "fork", "--synthetic", "2",
        ])
        assert code == 2
        assert "thread" in capsys.readouterr().err
