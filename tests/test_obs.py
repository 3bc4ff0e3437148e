"""Observability layer tests: metrics, spans, events, report, wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ObservabilityError, QueueFullError
import repro.obs.metrics as metrics_module
from repro.obs import (
    EventSink,
    Histogram,
    MetricsRegistry,
    Observability,
    Tracer,
    read_events,
    render_registry,
    render_report,
)


class FakeClock:
    """Advances by ``tick`` every call — deterministic durations."""

    def __init__(self, start: float = 100.0, tick: float = 1.0):
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value


class TestMetricsRegistry:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        assert gauge.value == 9.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", route="x") is registry.histogram("h", route="x")

    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("req", path="a").inc()
        registry.counter("req", path="b").inc(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["req{path=a}"] == 1
        assert snapshot["counters"]["req{path=b}"] == 2

    def test_histogram_summary(self):
        hist = MetricsRegistry().histogram("lat")
        for value in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 10.0
        assert hist.mean == 2.5
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 4.0
        assert hist.quantile(0.5) in (2.0, 3.0)

    def test_observe_many_matches_one_observe_per_value(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "HISTOGRAM_WINDOW", 4)
        values = [0.3, 1e-9, 7.25, 0.1, 2.0, 0.1]
        one, many = Histogram("one"), Histogram("many")
        for value in values:
            one.observe(value)
        many.observe_many(values)
        many.observe_many([])
        assert many.summary() == one.summary()
        assert many.sum == one.sum  # same order of additions, same bits

    def test_concurrent_observers_and_readers_lose_nothing(self, monkeypatch):
        """Lock-free recording: no observation is lost or counted twice under threads."""
        import sys
        import threading

        monkeypatch.setattr(metrics_module, "HISTOGRAM_WINDOW", 64)  # folds happen mid-run
        hist = Histogram("h")
        values = [float(i % 7) for i in range(3000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def observer(many):
                if many:
                    for i in range(0, len(values), 5):
                        hist.observe_many(values[i : i + 5])
                else:
                    for value in values:
                        hist.observe(value)

            threads = [threading.Thread(target=observer, args=(i % 2,)) for i in range(6)]
            threads.append(threading.Thread(target=lambda: [hist.count for _ in range(2000)]))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert hist.count == 6 * len(values)
        assert hist.sum == 6 * sum(values)
        assert (hist.min, hist.max) == (0.0, 6.0)

    def test_histogram_quantile_validation(self):
        hist = MetricsRegistry().histogram("lat")
        with pytest.raises(ObservabilityError):
            hist.quantile(1.5)

    def test_histogram_window_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(metrics_module, "HISTOGRAM_WINDOW", 4)
        hist = Histogram("lat")
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100  # exact totals survive the window
        assert hist.max == 99.0
        assert hist.quantile(0.0) == 96.0  # quantiles see the recent window

    def test_a_window_label_is_an_ordinary_label(self):
        registry = MetricsRegistry()
        hourly = registry.histogram("h", window="1h")
        small = registry.histogram("h", window=4)
        hourly.observe(1.0)
        assert hourly.labels == {"window": "1h"} and small.labels == {"window": 4}
        assert small is not hourly and small.window == hourly.window
        assert set(registry.snapshot()["histograms"]) == {"h{window=1h}", "h{window=4}"}

    def test_empty_histogram_is_quiet(self):
        hist = MetricsRegistry().histogram("lat")
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0
        assert hist.min == 0.0 and hist.max == 0.0

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x")
        counter.inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_is_json_able(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.5)
        json.dumps(registry.snapshot())  # must not raise


class TestTracer:
    def test_nested_spans_form_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attrs == {"kind": "test"}
        assert [child.name for child in root.children] == ["inner"]
        assert root.duration_s > root.children[0].duration_s

    def test_exception_marks_error_and_reraises(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("fails"):
                raise ValueError("boom")
        assert tracer.roots[0].status == "error"

    def test_aggregates(self):
        metrics = MetricsRegistry()
        tracer = Tracer(clock=FakeClock(tick=1.0), metrics=metrics)
        for _ in range(3):
            with tracer.span("work"):
                pass
        hist = metrics.histogram("span.duration_s", name="work")
        assert hist.count == 3
        assert hist.sum == pytest.approx(3.0)
        assert hist.mean == pytest.approx(1.0)

    def test_spans_feed_metrics_histogram(self):
        metrics = MetricsRegistry()
        tracer = Tracer(clock=FakeClock(), metrics=metrics)
        with tracer.span("step"):
            pass
        hist = metrics.histogram("span.duration_s", name="step")
        assert hist.count == 1

    def test_spans_feed_event_sink(self):
        sink = EventSink(clock=FakeClock())
        tracer = Tracer(clock=FakeClock(), events=sink)
        with tracer.span("step", index=3):
            pass
        (event,) = sink.events()
        assert event["kind"] == "span"
        assert event["name"] == "step"
        assert event["attrs"] == {"index": 3}

    def test_disabled_tracer_records_nothing(self):
        metrics = MetricsRegistry()
        tracer = Tracer(enabled=False, metrics=metrics)
        with tracer.span("x") as span:
            span.attrs["ignored"] = True  # writes on a null span vanish
        assert len(tracer.roots) == 0
        assert metrics.snapshot()["histograms"] == {}

    def test_disabled_span_is_one_shared_object(self):
        """A disabled span allocates nothing per call: every call returns the same object."""
        tracer = Tracer(enabled=False)
        first, second = tracer.span("a", size=1), tracer.span("b")
        assert first is second
        with first as span:
            assert span is first

    def test_attrs_mutable_while_open(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x") as span:
            span.attrs["late"] = 42
        assert tracer.roots[0].attrs["late"] == 42


class TestEventSink:
    def test_in_memory_ring(self):
        sink = EventSink(clock=FakeClock())
        sink.emit("a", value=1)
        sink.emit("b", value=2)
        kinds = [event["kind"] for event in sink.events()]
        assert kinds == ["a", "b"]
        assert sink.n_events == 2

    def test_ring_is_bounded(self):
        sink = EventSink(clock=FakeClock(), max_events=3)
        for i in range(10):
            sink.emit("tick", i=i)
        assert sink.n_events == 3
        assert [event["i"] for event in sink.events()] == [7, 8, 9]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with EventSink(path, clock=FakeClock()) as sink:
            sink.emit("alpha", n=1)
            sink.emit("beta", flag=True)
        events = read_events(path)
        assert [event["kind"] for event in events] == ["alpha", "beta"]
        assert events[1]["flag"] is True

    def test_read_events_missing_file(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_events(tmp_path / "absent.jsonl")

    def test_read_events_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ObservabilityError):
            read_events(path)

    def test_emit_many_writes_a_batch_in_order_with_one_write(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        sink = EventSink(path, clock=FakeClock())
        sink.emit("before", n=0)
        writes = []
        write = sink._file.write
        sink._file.write = lambda text: writes.append(text) or write(text)
        sink.emit_many("decision", [{"n": 1}, {"n": 2}, {"n": 3}])
        sink.emit_many("decision", [])
        assert len(writes) == 1
        ring = sink.events()
        assert [(e["kind"], e["n"]) for e in ring] == [
            ("before", 0), ("decision", 1), ("decision", 2), ("decision", 3)
        ]
        assert len({e["ts"] for e in ring[1:]}) == 1  # one clock read per batch
        assert read_events(path) == ring  # flushed: readable before close
        sink.close()

    def test_emit_metrics_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        sink = EventSink(clock=FakeClock())
        sink.emit_metrics(registry)
        (event,) = sink.events()
        assert event["kind"] == "metrics"
        assert event["snapshot"]["counters"]["c"] == 5


class TestReport:
    def test_empty(self):
        assert render_report([]) == "(no events recorded)"

    def test_report_sections(self):
        events = [
            {"ts": 1.0, "kind": "span", "name": "serving.batch", "duration_s": 0.5},
            {"ts": 2.0, "kind": "span", "name": "serving.batch", "duration_s": 1.5},
            {"ts": 3.0, "kind": "serving.batch", "size": 4},
            {
                "ts": 4.0,
                "kind": "metrics",
                "snapshot": {
                    "counters": {"serving.completed": 4},
                    "gauges": {"serving.queue_depth": 0},
                    "histograms": {
                        "serving.latency_s": {
                            "count": 4, "mean": 0.5, "p50": 0.4, "p90": 0.9,
                            "p99": 1.0, "max": 1.1,
                        }
                    },
                },
            },
        ]
        report = render_report(events)
        assert "Recorded run: 4 events" in report
        assert "serving.batch" in report
        assert "serving.completed" in report
        assert "serving.latency_s" in report
        # span aggregation: 2 spans, total 2.0, mean 1.0
        assert "2" in report and "1" in report

    def test_render_registry(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        text = render_registry(registry)
        assert "hits" in text and "3" in text

    def test_last_metrics_snapshot_wins(self):
        events = [
            {"kind": "metrics", "snapshot": {"counters": {"c": 1}, "gauges": {}, "histograms": {}}},
            {"kind": "metrics", "snapshot": {"counters": {"c": 9}, "gauges": {}, "histograms": {}}},
        ]
        assert "9" in render_report(events)


class TestObservabilityHub:
    def test_create_wires_spans_into_metrics(self):
        obs = Observability.create(clock=FakeClock())
        with obs.span("unit"):
            pass
        assert obs.metrics.histogram("span.duration_s", name="unit").count == 1

    def test_disabled_hub(self):
        obs = Observability.disabled()
        assert not obs.enabled
        with obs.span("x"):
            pass
        assert obs.event("anything", a=1) is None
        assert obs.metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_event_passthrough(self, tmp_path):
        obs = Observability.create(events_path=tmp_path / "run.jsonl")
        obs.event("custom", value=1)
        assert obs.events.n_events == 1

    def test_process_default_hub(self):
        from repro.obs import get_observability

        hub = get_observability()
        assert isinstance(hub, Observability)
        assert get_observability() is hub


class _StubClassifier:
    def score(self, prompt, positive, negative):
        return 0.25

    def score_batch(self, prompts, positive, negative):
        return [0.25] * len(prompts)


class TestServingWiring:
    def make_service(self, obs, **config_kwargs):
        from repro.serving import BehaviorCardService, EngineConfig

        defaults = dict(max_batch_size=4, queue_capacity=8)
        defaults.update(config_kwargs)
        return BehaviorCardService(_StubClassifier(), EngineConfig(**defaults), obs=obs)

    def test_counters_match_engine_stats(self):
        from repro.serving import ScoreRequest

        obs = Observability.create()
        service = self.make_service(obs)
        service.score_requests([ScoreRequest(f"u{i}", f"x={i}") for i in range(6)])
        counters = obs.metrics.snapshot()["counters"]
        stats = service.replicas[0].engine.stats
        assert counters["serving.submitted"] == stats.submitted == 6
        assert counters["serving.completed"] == stats.completed == 6
        assert counters["cluster.completed"] == service.stats.completed == 6
        # 0.25 < 0.5 threshold: every audited decision approves.
        assert [entry["approved"] for entry in service.audit_log()] == [True] * 6

    def test_latency_histogram_and_stats_quantiles(self):
        from repro.serving import ScoreRequest

        obs = Observability.create()
        service = self.make_service(obs)
        service.score_requests([ScoreRequest("u", "x=1")])
        hist = obs.metrics.histogram("serving.latency_s")
        assert hist.count == 1

    def test_rejected_counter(self):
        from repro.serving import ScoreRequest

        obs = Observability.create()
        service = self.make_service(obs, queue_capacity=2)
        service.submit(ScoreRequest("a", "x=1"))
        service.submit(ScoreRequest("b", "x=2"))
        with pytest.raises(QueueFullError):
            service.submit(ScoreRequest("c", "x=3"))
        assert obs.metrics.counter("serving.rejected").value == 1
        service.drain()

    def test_queue_depth_gauge_tracks_queue(self):
        """The gauge is set once per pump: the depth that pump left behind."""
        from repro.serving import ScoreRequest

        obs = Observability.create()
        service = self.make_service(obs)  # batches of 4
        gauge = obs.metrics.gauge("serving.queue_depth")
        for i in range(6):
            service.submit(ScoreRequest(f"u{i}", f"x={i}"))
        service.pump()
        assert gauge.value == 2
        service.drain()
        assert gauge.value == 0

    def test_batch_spans_recorded(self):
        from repro.serving import ScoreRequest

        obs = Observability.create()
        service = self.make_service(obs)
        service.score_requests([ScoreRequest(f"u{i}", f"x={i}") for i in range(4)])
        assert obs.metrics.histogram("span.duration_s", name="serving.batch").count >= 1
        assert obs.metrics.histogram("span.duration_s", name="serving.forward").count >= 1
        root = next(r for r in obs.tracer.roots if r.name != "cluster.launch")
        assert root.name == "serving.batch"
        assert [child.name for child in root.children] == ["serving.forward"]

    def test_drift_monitor_metrics(self):
        from repro.serving import DriftMonitor

        obs = Observability.create()
        rng = np.random.default_rng(0)
        monitor = DriftMonitor(rng.uniform(size=100), obs=obs)
        monitor.observe_many([0.5])
        monitor.observe_many([0.2, 0.9])
        monitor.psi()
        assert obs.metrics.counter("monitoring.observations").value == 3
        # psi() refreshes the gauge with its return value
        assert obs.metrics.gauge("monitoring.psi").value == pytest.approx(monitor.psi())

    def test_shadow_deployment_metrics(self):
        from repro.serving import ShadowDeployment

        obs = Observability.create()
        shadow = ShadowDeployment(lambda text: 0.2, obs=obs)
        shadow.compare("p1", 0.8)
        shadow.compare("p2", 0.8)
        assert obs.metrics.counter("monitoring.shadow_requests").value == 2
        assert obs.metrics.counter("monitoring.shadow_disagreements").value == 2


class TestTrainingWiring:
    def train_briefly(self, tiny_model, obs):
        from repro.optim import AdamW
        from repro.training import Trainer, TrainingConfig

        rng = np.random.default_rng(0)
        examples = [
            (list(rng.integers(5, 60, size=8)), list(rng.integers(5, 60, size=8)))
            for _ in range(8)
        ]
        trainer = Trainer(
            tiny_model,
            AdamW(tiny_model.parameters(), lr=1e-3),
            TrainingConfig(epochs=1, batch_size=4, shuffle=False),
            obs=obs,
            clock=FakeClock(tick=0.5),
        )
        return trainer.train(examples)

    def test_step_metrics_published(self, tiny_model):
        obs = Observability.create()
        history = self.train_briefly(tiny_model, obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["training.steps"] == len(history.steps) == 2
        assert counters["training.tokens"] == sum(log.tokens for log in history.steps)
        assert obs.metrics.histogram("training.step_s").count == 2
        assert obs.metrics.gauge("training.loss").value == history.steps[-1].loss

    def test_step_log_timing_fields(self, tiny_model):
        obs = Observability.create()
        history = self.train_briefly(tiny_model, obs)
        for log in history.steps:
            assert log.step_s > 0
            assert log.tokens == 4 * 8  # 4 sequences of 8 tokens per step
            assert log.tokens_per_s > 0

    def test_step_spans(self, tiny_model):
        obs = Observability.create()
        self.train_briefly(tiny_model, obs)
        assert obs.metrics.histogram("span.duration_s", name="training.step").count == 2

    def test_metrics_logger_standalone(self):
        from repro.training import MetricsLogger, StepLog

        obs = Observability.create()
        logger = MetricsLogger(obs)
        logger.on_step(StepLog(step=1, loss=0.5, lr=1e-3, grad_norm=1.0,
                               step_s=0.25, tokens=100))
        assert obs.metrics.gauge("training.tokens_per_s").value == pytest.approx(400.0)
        logger.on_epoch_end(0, 0.4)  # no sink attached: still a no-op, not an error


class TestInfluenceWiring:
    @pytest.fixture
    def traced(self, tiny_model, tmp_path):
        from repro.influence import TracInCP
        from repro.optim import AdamW
        from repro.training import CheckpointManager, Trainer, TrainingConfig

        rng = np.random.default_rng(0)
        examples = [
            (list(rng.integers(5, 60, size=8)), list(rng.integers(5, 60, size=8)))
            for _ in range(6)
        ]
        manager = CheckpointManager(tmp_path)
        trainer = Trainer(
            tiny_model,
            AdamW(tiny_model.parameters(), lr=3e-3),
            TrainingConfig(epochs=1, batch_size=2, checkpoint_every=2, shuffle=False),
            checkpoint_manager=manager,
            obs=Observability.disabled(),
        )
        trainer.train(examples)
        obs = Observability.create()
        tracer = TracInCP(tiny_model, manager.checkpoints(), obs=obs)
        return tracer, obs, examples

    def test_checkpoint_spans_and_counters(self, traced):
        tracer, obs, examples = traced
        tracer.influence(examples[:4], examples[4:])
        n_ckpt = len(tracer.checkpoints)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["influence.checkpoints_replayed"] == n_ckpt
        assert counters["influence.gradient_passes"] == n_ckpt * 6
        spans = obs.metrics.histogram("span.duration_s", name="influence.checkpoint")
        assert spans.count == n_ckpt
        root = obs.tracer.roots[-1]
        assert root.name == "influence.matrix"
        assert len(root.children) == n_ckpt


class TestCLIReport:
    def test_obs_report_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        registry = MetricsRegistry()
        registry.counter("serving.completed").inc(3)
        with EventSink(path, clock=FakeClock()) as sink:
            sink.emit("span", name="serving.batch", duration_s=0.5)
            sink.emit_metrics(registry)
        assert main(["obs", "report", "--events", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serving.batch" in out
        assert "serving.completed" in out

    def test_obs_report_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "report", "--events", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err
