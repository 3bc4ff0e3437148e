"""The three workloads: set-up, measured rounds and correctness checks.

Every workload drives the program from one load-generator thread through
its synchronous API (``submit`` + ``pump``) as a closed loop of virtual
callers: a caller sends its next request only after the previous one
completed.  With no worker or health-check threads and no arrival timer,
batch composition, routing, cache contents and every count depend only
on the seed; the timings are the only thing that varies between runs.

Every time is CPU time of that one thread (``stats.clock``), so time the
thread waits for a core another process holds is not charged to the
program.  A run is split into short rounds that each run every phase of
the workload on a fresh slice of requests.  The 2-core reference box is
shared: for stretches of seconds to minutes everything runs 1.3-1.7x
slower.  Each round therefore runs between two passes of a reference
kernel (``stats.HostSpeed``), its times are scaled to reference speed by
the kernel passes near it, and a metric is the median over rounds of its
scaled per-round value.

A run's amount of work is fixed by ``--seconds`` through the per-second
budgets below, measured on that box; it is not cut by a timer, so counts
repeat exactly and a faster program simply finishes sooner.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import stats
from inputs import MODEL_SEED, Applicant, applicants, input_report, refresh_pool

THRESHOLD = 0.5
# Batched and single scoring agree to this tolerance, not bit for bit
# (tests/test_serving_engine.py pins the same atol).
SCORE_ATOL = 1e-6
MODEL_TRAIN = 96  # corpus examples the served model is fine-tuned on


def counter(name: str, **labels) -> float:
    """Current value of one of the program's own obs counters."""
    from repro.obs import get_observability

    return get_observability().metrics.counter(name, **labels).value


def build_model(n_train: int = MODEL_TRAIN, checkpoint_dir: Path | None = None):
    """Fine-tune the ``bench_config`` model on the fixed behavior corpus."""
    from repro.config import bench_config
    from repro.core import ZiGong
    from repro.data import build_behavior_examples
    from repro.datasets import make_behavior

    gc.collect()
    corpus = build_behavior_examples(make_behavior(n_users=24, n_periods=8, seed=MODEL_SEED))
    zigong = ZiGong.from_examples(corpus, config=bench_config())
    zigong.finetune(corpus[:n_train], checkpoint_dir=checkpoint_dir)
    return zigong, corpus[:n_train]


def prompt_text(behavior_text: str) -> str:
    from repro.data.templates import CLASSIFICATION_TEMPLATE
    from repro.serving.behavior_card import DEFAULT_QUESTION

    return CLASSIFICATION_TEMPLATE.format(sentence=behavior_text, question=DEFAULT_QUESTION)


# ----------------------------------------------------------------------
# Closed-loop drive
# ----------------------------------------------------------------------


@dataclass
class Flight:
    """One request as the caller saw it."""

    applicant: Applicant
    submitted: float
    pending: object = None  # PendingResult, or the returned result / raised error
    done_at: float | None = None
    token_at: list[float] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return (self.done_at - self.submitted) * 1e3

    @property
    def result(self):
        return self.pending.result(timeout=0)

    @property
    def ok(self) -> bool:
        return self.done_at is not None and self.pending.error is None


@dataclass
class Phase:
    flights: list[Flight]
    seconds: float  # CPU time of the whole phase

    @property
    def failed(self) -> int:
        return sum(not f.ok for f in self.flights)


def closed_loop(submit, pump, queue: list[Applicant], callers: int, stream_tokens: bool = False) -> Phase:
    """Serve ``queue`` with ``callers`` virtual callers through submit + pump.

    Latency runs from just before ``submit`` to the completion callback,
    which fires inside the pump that finished the request.
    """
    from repro.serving import ScoreRequest

    flights: list[Flight] = []
    cursor = 0

    def launch() -> Flight:
        nonlocal cursor
        applicant = queue[cursor]
        cursor += 1
        flight = Flight(applicant, stats.clock())
        flight.pending = submit(ScoreRequest(applicant.user_id, applicant.behavior_text))
        flight.pending.add_done_callback(
            lambda _p, f=flight: setattr(f, "done_at", stats.clock())
        )
        if stream_tokens:
            flight.pending.add_token_callback(
                lambda _p, _t, f=flight: f.token_at.append(stats.clock())
            )
        flights.append(flight)
        return flight

    started = stats.clock()
    active = [launch() for _ in range(min(callers, len(queue)))]
    while active:
        if not pump():
            raise RuntimeError("closed loop stalled: a pump made no progress")
        nxt = []
        for flight in active:
            if flight.done_at is None:
                nxt.append(flight)
            elif cursor < len(queue):
                nxt.append(launch())
        active = nxt
    return Phase(flights, stats.clock() - started)


def _timed(fn, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        started = stats.clock()
        fn()
        times.append(stats.clock() - started)
    return times


def _chunks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _sample(items: list, k: int) -> list:
    step = max(1, len(items) // k)
    return items[::step][:k]


@dataclass
class Run:
    """What one measured pass produced: one ``{phase: Phase}`` per round,
    and the host-speed scale of each round."""

    attempted: int
    failed: int
    rounds: list[dict[str, Phase]]
    scales: list[float]
    extra: dict = field(default_factory=dict)

    def phases(self, name: str) -> list[Phase]:
        return [r[name] for r in self.rounds]

    def flights(self, name: str) -> list[Flight]:
        return [f for phase in self.phases(name) for f in phase.flights]

    @property
    def phase_names(self) -> list[str]:
        return list(self.rounds[0])

    def round_s(self) -> list[float]:
        """Each round's time over all phases, scaled to reference speed."""
        return stats.scaled([sum(p.seconds for p in r.values()) for r in self.rounds], self.scales)


def per_round(run: Run, name: str, statistic, unit: str, higher_is_better: bool = False) -> stats.Metric:
    """A statistic of phase ``name`` per round, scaled, then the median over rounds."""
    phases = run.phases(name)
    samples = sum(len(p.flights) for p in phases)
    return stats.over_rounds([statistic(p) for p in phases], run.scales, unit, samples, higher_is_better)


def pooled(run: Run, name: str, of, statistic, unit: str) -> stats.Metric:
    """A statistic of a per-request time pooled over the run, each scaled by its round."""
    values = [of(f) * scale for phase, scale in zip(run.phases(name), run.scales) for f in phase.flights]
    return stats.Metric(statistic(values), unit, len(values))


class Workload:
    """Set up once per ``setup()``; measure a stream of fresh requests."""

    name = ""
    tail_q = 90.0  # the tail percentile every workload reports
    ROUND_S = 0.5  # seconds one round takes on the reference box
    MIN_ROUNDS = 10

    def __init__(self, seed: int, seconds: float, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.rounds = max(self.MIN_ROUNDS, round(seconds / self.ROUND_S))
        self._prompt_lengths: dict[str, int] = {}

    def latency(self, run: Run, name: str, of=lambda f: f.latency_ms) -> dict[str, stats.Metric]:
        """p50 and tail of a per-request time, each per round then over rounds."""
        return {
            "p50": per_round(run, name, lambda p: stats.median([of(f) for f in p.flights]), "ms"),
            "tail": per_round(run, name, lambda p: stats.tail([of(f) for f in p.flights], self.tail_q), "ms"),
        }

    def close(self) -> None:
        """Release what the last set-up built."""


# ----------------------------------------------------------------------
# decide_microbatch: Behavior Card scoring through the replica cluster
# ----------------------------------------------------------------------


class DecideMicrobatch(Workload):
    name = "decide_microbatch"
    DEPTHS = (1, 8)
    LIGHT_CALLERS = 4
    SATURATED_CALLERS = 32
    ROUND_S = 0.25
    # Requests per round: multiples of the caller counts (and of 16 for
    # saturated, so every batch is full), with 10 beyond each round's p90.
    LIGHT_ROUND = 120
    SATURATED_ROUND = 160
    WARMUP = (256, 512)  # light, saturated warm-up requests per set-up
    DEPLOYS_PER_ROUND = 5
    # A rolling deploy is mostly weight copies, memory-bound work that a
    # contended host slows more than the compute-bound reference kernel:
    # over ten runs its times grew as the kernel's to the power 1.3
    # (scaled with 0.9 they spread 0.16, with 1.3 0.02; see README.md).
    DEPLOY_EXPONENT = 1.3

    def setup(self) -> None:
        self.zigong, _ = build_model()
        self.reference = self.zigong.classifier()
        self.rebuild()

    def rebuild(self) -> None:
        from repro.serving import ClusterConfig, ClusterSupervisor, zigong_replica_factory

        self.close()
        self.cluster = ClusterSupervisor(
            zigong_replica_factory(self.zigong, threshold=THRESHOLD),
            ClusterConfig(replicas=2, transport="thread", max_batch_size=8),
        )
        self.cluster.launch()
        light, saturated = self.WARMUP
        warm = applicants(self.seed, "warmup", light + saturated, self.DEPTHS)
        closed_loop(self.cluster.submit, self.cluster.pump, warm[:light], self.LIGHT_CALLERS)
        closed_loop(self.cluster.submit, self.cluster.pump, warm[light:], self.SATURATED_CALLERS)

    def close(self) -> None:
        cluster = getattr(self, "cluster", None)
        if cluster is not None:
            cluster.stop(drain=False)
            self.cluster = None

    def _batches(self) -> int:
        return sum(r.engine.stats.batches for r in self.cluster.replicas)

    def measure(self, stream: str) -> Run:
        cluster = self.cluster
        light_in = applicants(self.seed, f"{stream}-light", self.LIGHT_ROUND * self.rounds, self.DEPTHS)
        sat_in = applicants(self.seed, f"{stream}-saturated", self.SATURATED_ROUND * self.rounds, self.DEPTHS)
        state = {k: v.copy() for k, v in self.zigong.model.state_dict().items()}
        swaps = cluster.stats.swaps
        gc.collect()
        speed = stats.HostSpeed()
        rounds, spans, deploys, batches = [], [], [], {"light": 0, "saturated": 0}

        def one_round(light_chunk, sat_chunk):
            before = self._batches()
            light = closed_loop(cluster.submit, cluster.pump, light_chunk, self.LIGHT_CALLERS)
            middle = self._batches()
            saturated = closed_loop(cluster.submit, cluster.pump, sat_chunk, self.SATURATED_CALLERS)
            batches["light"] += middle - before
            batches["saturated"] += self._batches() - middle
            deploys.append(_timed(lambda: cluster.deploy(state), self.DEPLOYS_PER_ROUND))
            return {"light": light, "saturated": saturated}

        for light_chunk, sat_chunk in zip(_chunks(light_in, self.LIGHT_ROUND), _chunks(sat_in, self.SATURATED_ROUND)):
            phases, span = speed.run(lambda: one_round(light_chunk, sat_chunk))
            rounds.append(phases)
            spans.append(span)
        return Run(
            attempted=len(light_in) + len(sat_in) + sum(map(len, deploys)),
            failed=sum(p.failed for r in rounds for p in r.values()),
            rounds=rounds,
            scales=speed.scales(spans),
            extra={
                "deploy_s": deploys,
                "deploy_scales": speed.scales(spans, self.DEPLOY_EXPONENT),
                "counts": {
                    "light.batches": batches["light"],
                    "saturated.batches": batches["saturated"],
                    "deploy.swaps": cluster.stats.swaps - swaps,
                },
            },
        )

    def _prompt_tokens(self, flights) -> list[int]:
        lengths = self._prompt_lengths
        for f in flights:
            if f.applicant.user_id not in lengths:
                prompt = prompt_text(f.applicant.behavior_text)
                lengths[f.applicant.user_id] = len(self.reference._prompt_ids(prompt))
        return [lengths[f.applicant.user_id] for f in flights]

    def metrics(self, run: Run) -> dict[str, stats.Metric]:
        lat, ttft = self.latency(run, "light"), self.latency(run, "saturated")

        def batch_gap_ms(phase):
            done = [f.done_at for f in phase.flights]
            return stats.median(stats.batch_gaps(done, [f.result.batch_size for f in phase.flights])) * 1e3

        deploys = run.extra["deploy_s"]
        return {
            "latency_p50_ms": lat["p50"],
            "latency_tail_ms": lat["tail"],
            "throughput_rps": per_round(run, "saturated", lambda p: len(p.flights) / p.seconds, "1/s", True),
            "tokens_per_s": per_round(
                run, "saturated", lambda p: sum(self._prompt_tokens(p.flights)) / p.seconds, "1/s", True
            ),
            "ttft_p50_ms": ttft["p50"],
            "ttft_tail_ms": ttft["tail"],
            "itl_p50_ms": per_round(run, "saturated", batch_gap_ms, "ms"),
            "refresh_s": stats.over_rounds(
                [stats.median(times) for times in deploys],
                run.extra["deploy_scales"],
                "s",
                sum(map(len, deploys)),
            ),
        }

    def counts(self, run: Run) -> dict[str, int]:
        counts = dict(run.extra["counts"])
        for name in run.phase_names:
            flights = run.flights(name)
            counts[f"{name}.decisions"] = len(flights)
            counts[f"{name}.prompt_tokens"] = sum(self._prompt_tokens(flights))
        return counts

    def report(self, run: Run) -> dict:
        return {
            name: input_report(
                [f.applicant for f in run.flights(name)],
                self._prompt_tokens(run.flights(name)),
                [1] * len(run.flights(name)),  # one scored answer token per decision
            )
            for name in run.phase_names
        }

    def check(self, run: Run) -> list[str]:
        problems = []
        counts = run.extra["counts"]
        # Each pump scores every queued request: light keeps 2 per replica
        # queued; saturated keeps 16 per replica and scores 8 of them.
        expected = (
            ("light", self.LIGHT_CALLERS // 2),
            ("saturated", 8),
        )
        for name, size in expected:
            flights = run.flights(name)
            failed = sum(not f.ok for f in flights)
            if failed:
                problems.append(f"{name}: {failed} decisions failed")
                continue
            sizes = {f.result.batch_size for f in flights}
            if sizes != {size}:
                problems.append(f"{name}: batch sizes {sorted(sizes)}, expected only {size}")
            if counts[f"{name}.batches"] != len(flights) // size:
                problems.append(f"{name}: {counts[f'{name}.batches']} batches, expected {len(flights) // size}")
            replicas = [f.result.replica for f in flights]
            if replicas.count(0) != replicas.count(1):
                problems.append(f"{name}: uneven routing {replicas.count(0)}/{replicas.count(1)}")
        deploys = sum(map(len, run.extra["deploy_s"]))
        if counts["deploy.swaps"] != 2 * deploys:
            problems.append(f"deploy swapped {counts['deploy.swaps']} replicas, expected {2 * deploys}")
        if problems:
            return problems
        # Scores against sequential LMClassifier.score on a fixed sample.
        for name in run.phase_names:
            for flight in _sample(run.flights(name), 32):
                result = flight.result
                ref = self.reference.score(prompt_text(flight.applicant.behavior_text), "yes", "no")
                if abs(result.score - ref) > SCORE_ATOL:
                    problems.append(f"{flight.applicant.user_id}: score {result.score!r} vs sequential {ref!r}")
                elif result.approved != (ref < THRESHOLD) and abs(ref - THRESHOLD) > SCORE_ATOL:
                    problems.append(f"{flight.applicant.user_id}: decision differs from sequential scoring")
        return problems


# ----------------------------------------------------------------------
# decide_generative: generate-and-parse decisions on an int8 replica
# ----------------------------------------------------------------------


class DecideGenerative(Workload):
    name = "decide_generative"
    DEPTHS = (1, 4)
    CALLERS = 16
    LIVE_ROWS = 8
    NEW_TOKENS = 24
    ROUND_S = 0.3
    # Requests per round (10 beyond each round's p90); each round drains
    # the engine, because the live decode state only shrinks back when no
    # row is left (see README).
    ROUND = 112
    WARMUP = 192

    def setup(self) -> None:
        self.zigong, _ = build_model()
        self.rebuild()

    def rebuild(self) -> None:
        from repro.serving import ContinuousEngine, GenerationApp, zigong_replica_factory
        from repro.serving.engine import EngineConfig

        factory = zigong_replica_factory(self.zigong, threshold=THRESHOLD, quantize="int8")
        generation = factory(0).generation
        self.app = GenerationApp(
            model=generation.model,
            encode=generation.encode,
            finish=generation.finish,
            # Forced-length output: no stop token, every decision decodes 24 tokens.
            generation=replace(generation.generation, max_new_tokens=self.NEW_TOKENS, stop_tokens=()),
            prefix_cache=generation.prefix_cache,
        )
        self.engine = ContinuousEngine(
            self.app, config=EngineConfig(max_batch_size=self.LIVE_ROWS, queue_capacity=64)
        )
        warm = applicants(self.seed, "warmup", self.WARMUP, self.DEPTHS)
        closed_loop(self.engine.submit, self.engine.pump, warm, self.CALLERS, stream_tokens=True)

    def _counters(self) -> dict[str, float]:
        prefix = self.app.prefix_cache.stats
        return {
            "steps": counter("generation.continuous.steps"),
            "tokens": counter("generation.tokens_generated"),
            "prefill_tokens": counter("generation.prefill_tokens"),
            "prefix_hits": prefix.hits,
            "prefix_misses": prefix.misses,
        }

    def measure(self, stream: str) -> Run:
        from repro.serving import zigong_quantized_state

        requests = applicants(self.seed, stream, self.ROUND * self.rounds, self.DEPTHS)
        counts = dict.fromkeys(self._counters(), 0)
        gc.collect()
        speed = stats.HostSpeed()
        rounds, spans, refreshes = [], [], []

        def one_round(chunk):
            before = self._counters()
            decode = closed_loop(self.engine.submit, self.engine.pump, chunk, self.CALLERS, stream_tokens=True)
            for key, value in self._counters().items():
                counts[key] += int(value - before[key])
            # Refresh: rebuild the int8 deploy payload and swap it in.
            refreshes.extend(
                _timed(lambda: self.app.model.load_state_dict(zigong_quantized_state(self.zigong)), 1)
            )
            return {"decode": decode}

        for chunk in _chunks(requests, self.ROUND):
            phases, span = speed.run(lambda: one_round(chunk))
            rounds.append(phases)
            spans.append(span)
        return Run(
            attempted=len(requests) + len(refreshes),
            failed=sum(r["decode"].failed for r in rounds),
            rounds=rounds,
            scales=speed.scales(spans),
            extra={"refresh_s": refreshes, "counts": counts},
        )

    def metrics(self, run: Run) -> dict[str, stats.Metric]:
        latency = self.latency(run, "decode")
        ttft = self.latency(run, "decode", of=lambda f: (f.token_at[0] - f.submitted) * 1e3)

        def gaps_ms(phase):
            return [(b - a) * 1e3 for f in phase.flights for a, b in zip(f.token_at, f.token_at[1:])]

        def tokens(phase):
            return sum(len(f.token_at) for f in phase.flights)

        return {
            "latency_p50_ms": latency["p50"],
            "latency_tail_ms": latency["tail"],
            "throughput_rps": per_round(run, "decode", lambda p: len(p.flights) / p.seconds, "1/s", True),
            "tokens_per_s": per_round(run, "decode", lambda p: tokens(p) / p.seconds, "1/s", True),
            "ttft_p50_ms": ttft["p50"],
            "ttft_tail_ms": ttft["tail"],
            "itl_p50_ms": per_round(run, "decode", lambda p: stats.median(gaps_ms(p)), "ms"),
            "refresh_s": stats.over_rounds(
                run.extra["refresh_s"], run.scales, "s", len(run.extra["refresh_s"])
            ),
        }

    def counts(self, run: Run) -> dict[str, int]:
        return {"decisions": len(run.flights("decode")), **run.extra["counts"]}

    def report(self, run: Run) -> dict:
        from repro.serving import ScoreRequest

        flights = run.flights("decode")
        budget = self.zigong.config.model.max_seq_len - self.NEW_TOKENS
        prompts = [
            min(budget, len(self.app.encode(ScoreRequest(f.applicant.user_id, f.applicant.behavior_text))))
            for f in flights
        ]
        return {
            "decode": input_report(
                [f.applicant for f in flights], prompts, [len(f.pending.stream) for f in flights]
            )
        }

    def check(self, run: Run) -> list[str]:
        from repro.nn.generation import generate
        from repro.serving import ScoreRequest

        flights = run.flights("decode")
        if run.failed:
            return [f"{run.failed} decisions failed"]
        problems = []
        short = [f for f in flights if len(f.pending.stream) != self.NEW_TOKENS]
        if short:
            problems.append(f"{len(short)} streams did not decode {self.NEW_TOKENS} tokens")
        expected_tokens = self.NEW_TOKENS * len(flights)
        if run.extra["counts"]["tokens"] != expected_tokens:
            problems.append(f"{run.extra['counts']['tokens']} tokens generated, expected {expected_tokens}")
        # Streamed tokens on a sample are bit-identical to sequential generate().
        for flight in _sample(flights, 16):
            request = ScoreRequest(flight.applicant.user_id, flight.applicant.behavior_text)
            expected = generate(self.app.model, self.app.encode(request), self.app.generation)
            if list(flight.pending.stream) != expected:
                problems.append(f"{flight.applicant.user_id}: streamed tokens differ from generate()")
        return problems


# ----------------------------------------------------------------------
# prune_and_explain: TracSeq refresh job plus influence queries
# ----------------------------------------------------------------------


class PruneAndExplain(Workload):
    name = "prune_and_explain"
    ROUND_S = 0.3  # one round of explain queries plus its share of the refreshes
    MIN_ROUNDS = 40  # 200 queries: p90 keeps 20 beyond it
    DEPTHS = (1, 8)
    EXPLAIN_TRAIN = 64  # training rows explanations are attributed against
    EXPLAIN_ROUND = 5
    WARMUP = 16
    REFRESHES = 15  # spread evenly over the rounds
    REFRESH_USERS = 4  # refresh pool: 4 users x 8 periods
    REFRESH_VAL = 4
    TOP_K = 3

    def __init__(self, seed, seconds, work_dir):
        super().__init__(seed, seconds, work_dir)
        self._dirs = 0

    def _fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        return self.work_dir / f"{label}-{self._dirs}"

    def setup(self) -> None:
        from repro.training.checkpoint import CheckpointManager

        checkpoint_dir = self._fresh_dir("explain-ckpt")
        self.zigong, self.train_examples = build_model(self.EXPLAIN_TRAIN, checkpoint_dir)
        self.checkpoints = CheckpointManager(checkpoint_dir).checkpoints()
        self.rebuild()

    def rebuild(self) -> None:
        from repro.serving.explain import ExplainConfig, ExplainService

        self.service = ExplainService.for_zigong(
            self.zigong,
            self.train_examples,
            self.checkpoints,
            estimator="datainf",
            config=ExplainConfig(top_k=self.TOP_K),
        )
        for applicant in applicants(self.seed, "warmup", self.WARMUP, self.DEPTHS):
            self.service.explain(applicant.user_id, applicant.behavior_text)

    def _refresh(self, train, val) -> dict:
        from repro.config import bench_config
        from repro.core import PipelineConfig, PrunerConfig, ZiGongPipeline

        config = PipelineConfig(
            zigong=bench_config(),
            pruner=PrunerConfig(strategy="tracseq", projection_dim=128, workers=0),
        )
        checkpoint_dir = self._fresh_dir("refresh-ckpt")
        misses = counter("influence.store.misses")
        started = stats.clock()
        result = ZiGongPipeline(config).run(train, val, checkpoint_dir=checkpoint_dir)
        seconds = stats.clock() - started
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        steps = result.warmup_history.steps + result.finetune_history.steps
        selected = hashlib.sha1(
            "\n".join(f"{e.prompt}\t{e.answer}" for e in result.mixed_examples).encode()
        ).hexdigest()[:16]
        return {
            "seconds": seconds,
            "selected": selected,
            "trainer_steps": len(steps),
            "trainer_tokens": sum(s.tokens for s in steps),
            "store_misses": int(counter("influence.store.misses") - misses),
        }

    def _explain(self, queries: list[Applicant]) -> Phase:
        flights = []
        started = stats.clock()
        for applicant in queries:
            flight = Flight(applicant, stats.clock())
            try:
                flight.pending = self.service.explain(applicant.user_id, applicant.behavior_text)
            except Exception as error:  # counted as a failed query, never dropped
                flight.pending = error
            flight.done_at = stats.clock()
            flights.append(flight)
        return Phase(flights, stats.clock() - started)

    def measure(self, stream: str) -> Run:
        train, val = refresh_pool(self.seed, self.REFRESH_USERS, self.REFRESH_VAL)
        queries = applicants(self.seed, f"{stream}-explain", self.EXPLAIN_ROUND * self.rounds, self.DEPTHS)
        rounds, spans, refreshes, refresh_spans = [], [], [], []
        store = {"explain.store_misses": 0, "explain.store_hits": 0}
        gc.collect()
        speed = stats.HostSpeed()
        for index, chunk in enumerate(_chunks(queries, self.EXPLAIN_ROUND)):
            if index % (self.rounds // self.REFRESHES) == 0 and len(refreshes) < self.REFRESHES:
                refresh, span = speed.run(lambda: self._refresh(train, val))
                refreshes.append(refresh)
                refresh_spans.append(span)
            misses, hits = counter("influence.store.misses"), counter("influence.store.hits", tier="memory")
            explain, span = speed.run(lambda: self._explain(chunk))
            rounds.append({"explain": explain})
            spans.append(span)
            store["explain.store_misses"] += int(counter("influence.store.misses") - misses)
            store["explain.store_hits"] += int(counter("influence.store.hits", tier="memory") - hits)
        for refresh, scale in zip(refreshes, speed.scales(refresh_spans)):
            refresh["scale"] = scale
        failed = sum(isinstance(f.pending, Exception) for r in rounds for f in r["explain"].flights)
        return Run(
            attempted=len(queries) + len(refreshes),
            failed=failed,
            rounds=rounds,
            scales=speed.scales(spans),
            extra={"refreshes": refreshes, "pool": (len(train), len(val)), "counts": store},
        )

    def metrics(self, run: Run) -> dict[str, stats.Metric]:
        # Too few queries per round for a per-round tail: both are pooled
        # over the run, each query scaled by its round.
        p50 = pooled(run, "explain", lambda f: f.latency_ms, stats.median, "ms")
        tail = pooled(run, "explain", lambda f: f.latency_ms, lambda v: stats.tail(v, self.tail_q), "ms")

        def gap_ms(phase):
            done = [f.done_at for f in phase.flights]
            return stats.median([(b - a) * 1e3 for a, b in zip(done, done[1:])])

        refreshes = run.extra["refreshes"]
        scales = [r["scale"] for r in refreshes]
        return {
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
            "throughput_rps": per_round(run, "explain", lambda p: len(p.flights) / p.seconds, "1/s", True),
            # Trainer tokens per second of refresh job (prune, mix and train).
            "tokens_per_s": stats.over_rounds(
                [r["trainer_tokens"] / r["seconds"] for r in refreshes],
                scales,
                "1/s",
                len(refreshes),
                higher_is_better=True,
            ),
            # An explanation is the request's one output, so its time to
            # first output is its latency.
            "ttft_p50_ms": p50,
            "ttft_tail_ms": tail,
            "itl_p50_ms": per_round(run, "explain", gap_ms, "ms"),
            "refresh_s": stats.over_rounds([r["seconds"] for r in refreshes], scales, "s", len(refreshes)),
        }

    def counts(self, run: Run) -> dict:
        first = run.extra["refreshes"][0]
        return {
            "queries": len(run.flights("explain")),
            "refresh.train_examples": run.extra["pool"][0],
            "refresh.val_examples": run.extra["pool"][1],
            "refresh.trainer_steps": first["trainer_steps"],
            "refresh.trainer_tokens": first["trainer_tokens"],
            "refresh.store_misses": first["store_misses"],
            "refresh.selected": first["selected"],
            **run.extra["counts"],
        }

    def _test_example(self, behavior_text: str, answer: str):
        input_ids, labels = self.zigong.tokenizer.encode_pair(prompt_text(behavior_text), answer)
        max_len = self.zigong.config.model.max_seq_len
        return input_ids[:max_len], labels[:max_len]

    def report(self, run: Run) -> dict:
        flights = run.flights("explain")
        return {
            "explain": input_report(
                [f.applicant for f in flights],
                [len(self._test_example(f.applicant.behavior_text, "yes")[0]) for f in flights],
                [self.TOP_K] * len(flights),  # influential examples returned per query
            )
        }

    def check(self, run: Run) -> list[str]:
        problems = []
        refreshes = run.extra["refreshes"]
        for key in ("selected", "trainer_steps", "trainer_tokens", "store_misses"):
            values = {r[key] for r in refreshes}
            if len(values) != 1:
                problems.append(f"refresh {key} differs between repetitions: {sorted(values)}")
        if refreshes[0]["store_misses"] == 0:
            problems.append("refresh computed no gradient rows")
        if run.failed:
            return problems + [f"{run.failed} explain queries failed"]
        # Top-k indices equal a direct k_most_influential call.
        estimator = self.service.estimator
        for flight in _sample(run.flights("explain"), 8):
            result = flight.pending
            answer = "no" if result.approved else "yes"
            direct = estimator.k_most_influential(
                self.service.train_examples,
                [self._test_example(flight.applicant.behavior_text, answer)],
                k=self.TOP_K,
            )
            served = [example.index for example in result.influential]
            if served != [int(i) for i in direct.indices[0]]:
                problems.append(f"{flight.applicant.user_id}: top-k {served} vs direct {list(direct.indices[0])}")
        return problems


WORKLOADS = {w.name: w for w in (DecideMicrobatch, DecideGenerative, PruneAndExplain)}
