"""Multi-worker serving cluster: supervisor, replicated engines, router.

One :class:`~repro.serving.engine.MicroBatchEngine` on one thread was
the whole serving tier; this module is the "heavy traffic" unlock.  It
follows the supervisor/worker architecture of production stacks
(xinference's ``WorkerActor`` lifecycle: registry, launch/terminate,
auto-restart of dead workers), scaled to this reproduction:

* :class:`ClusterSupervisor` — owns N *replicas*.  Each replica is a
  :class:`MicroBatchEngine` over its own model instance, reached
  through a transport: ``"thread"`` (in-process, deterministic — what
  the tests drive) or ``"fork"`` (a subprocess per replica; scoring
  escapes the parent entirely, and a SIGKILL is a *real* crash).
* **Load-aware routing** — requests go to the least-loaded replica
  whose state and circuit breaker admit traffic.  Per-tenant admission
  quotas and full queues reject with
  :class:`~repro.errors.QueueFullError`, propagating backpressure
  end-to-end instead of queueing unboundedly.
* **Health-gated dispatch** — periodic health checks feed a per-replica
  :class:`~repro.resilience.CircuitBreaker`; an open circuit routes
  traffic around a dead or slow worker without waiting for it to time
  out mid-request.
* **Auto-restart** — a crashed replica is declared dead, its queued
  requests are withdrawn and re-dispatched to healthy replicas (up to
  ``max_redispatch`` attempts — a crash never silently drops traffic),
  and the supervisor restarts it (``cluster.replica_restarted``).
* **Rolling weight deploys** — :meth:`ClusterSupervisor.deploy` stages
  a new state dict, then per replica: drain, swap, resume
  (``cluster.deploy_swapped``).  Swaps ride on
  ``Module.load_state_dict`` bumping ``weight_version``, which the
  :class:`~repro.nn.cache.PrefixCache` syncs against — no stale cache
  entry survives a deploy.  Replicas restarted mid- or post-deploy
  re-apply the staged weights, so a crash cannot resurrect old ones.

Every lifecycle transition lands on the observability hub as a
``cluster.replica`` event plus ``cluster.*`` counters and gauges
(``docs/serving.md`` documents the names); ``repro serve --replicas N``
is the CLI front end and ``benchmarks/bench_serving.py`` measures the
scaling curve.

Drive modes mirror the engine: **synchronous** (``submit`` +
``pump``/``drain``/``serve``, plus explicit ``check_health()`` — fully
deterministic) and **threaded** (``start()`` spins each replica's
worker plus a health-check loop; callers block on
``PendingResult.result()``).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.errors import (
    ClusterError,
    ConfigError,
    DeadlineExceededError,
    QueueFullError,
    ReplicaCrashedError,
    ServingError,
)
from repro.obs import Observability, get_observability
from repro.resilience import CircuitBreaker
from repro.resilience.faults import fault_point
from repro.serving.engine import (
    BatchFn,
    EngineConfig,
    MicroBatchEngine,
    PendingResult,
    ScoreRequest,
    ScoreResult,
)

# Replica lifecycle states.
STARTING = "starting"
HEALTHY = "healthy"
DRAINING = "draining"
DEAD = "dead"


@dataclass
class ReplicaApp:
    """What one replica actually runs: a scorer plus lifecycle hooks.

    ``batch_fn`` has the engine contract — one :class:`ScoreResult` per
    request, in order.  ``swap_weights`` applies a staged state dict
    (enables rolling deploys); ``weight_version`` reports the model's
    monotonic weight counter; ``ping`` is an optional deep health probe
    (transport liveness is always checked regardless).
    """

    batch_fn: BatchFn
    swap_weights: Callable[[Mapping[str, object]], None] | None = None
    weight_version: Callable[[], int] | None = None
    ping: Callable[[], None] | None = None
    # Optional generation bundle (a serving.continuous.GenerationApp):
    # required when the cluster runs engine_mode="continuous", unused
    # otherwise.  Thread transport only — the fork RPC ships whole score
    # batches, not token streams.
    generation: object | None = None


ReplicaFactory = Callable[[int], ReplicaApp]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-level knobs (per-replica engine knobs included).

    replicas:
        Number of engine replicas to run.
    transport:
        ``"thread"`` (in-process replicas, deterministic) or ``"fork"``
        (one subprocess per replica).
    tenant_quota:
        Maximum in-flight requests per tenant (``user_id``); admissions
        beyond it raise :class:`QueueFullError`.  ``None`` disables.
    max_redispatch:
        How many times one request may be re-dispatched off crashed
        replicas before the crash error is surfaced to the caller.
    max_restarts:
        Auto-restarts allowed per replica before the supervisor
        abandons it (leaves it ``dead``).
    health_interval_s:
        Period of the threaded health-check loop.
    rpc_timeout_s:
        Fork transport: how long one scoring round trip may take before
        the replica is declared crashed.
    ping_timeout_s:
        Fork transport: health-probe round-trip bound.
    drain_timeout_s:
        Rolling deploy: how long to wait for one replica to drain
        before aborting the deploy.
    """

    replicas: int = 2
    transport: str = "thread"
    engine_mode: str = "microbatch"  # or "continuous" (streaming decode)
    max_batch_size: int = 8
    max_wait_s: float = 0.005
    queue_capacity: int = 64
    tenant_quota: int | None = None
    max_redispatch: int = 2
    max_restarts: int = 8
    health_interval_s: float = 0.05
    rpc_timeout_s: float = 30.0
    ping_timeout_s: float = 2.0
    drain_timeout_s: float = 10.0
    breaker_window: int = 8
    breaker_min_calls: int = 2
    breaker_failure_threshold: float = 0.5
    breaker_reset_timeout_s: float = 0.25

    def __post_init__(self):
        if self.replicas <= 0:
            raise ClusterError(f"replicas must be positive, got {self.replicas}")
        if self.transport not in ("thread", "fork"):
            raise ClusterError(
                f"transport must be 'thread' or 'fork', got {self.transport!r}"
            )
        if self.engine_mode not in ("microbatch", "continuous"):
            raise ClusterError(
                f"engine_mode must be 'microbatch' or 'continuous', got {self.engine_mode!r}"
            )
        if self.engine_mode == "continuous" and self.transport != "thread":
            raise ClusterError(
                "engine_mode='continuous' requires the thread transport: "
                "the fork RPC ships whole score batches, not token streams"
            )
        if self.tenant_quota is not None and self.tenant_quota <= 0:
            raise ClusterError(f"tenant_quota must be positive, got {self.tenant_quota}")
        if self.max_redispatch < 0:
            raise ClusterError(f"max_redispatch must be >= 0, got {self.max_redispatch}")
        if self.max_restarts < 0:
            raise ClusterError(f"max_restarts must be >= 0, got {self.max_restarts}")
        for name in ("health_interval_s", "rpc_timeout_s", "ping_timeout_s", "drain_timeout_s"):
            if getattr(self, name) <= 0:
                raise ClusterError(f"{name} must be positive, got {getattr(self, name)}")
        self.engine_config()  # validate engine knobs eagerly

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            queue_capacity=self.queue_capacity,
        )


@dataclass
class ClusterStats:
    """Supervisor-level counters (each replica's engine keeps its own)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0  # no replica could admit the request
    quota_rejected: int = 0  # per-tenant admission quota hit
    redispatched: int = 0  # requests moved off a crashed replica
    restarts: int = 0
    swaps: int = 0  # rolling-deploy weight swaps applied
    health_checks: int = 0

    @property
    def resolved(self) -> int:
        return self.completed + self.failed


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


class ThreadTransport:
    """In-process replica: the app lives in the supervisor's process.

    Deterministic and cheap — the default for tests and for workloads
    where subprocess isolation isn't worth a fork.  A "crash" is
    simulated: :meth:`kill` (or a scoring path that raises
    :class:`ReplicaCrashedError`, e.g. via an armed fault point) marks
    the transport dead until :meth:`restart` rebuilds the app.
    """

    def __init__(self, factory: ReplicaFactory, replica_id: int):
        self._factory = factory
        self.replica_id = replica_id
        self._app: ReplicaApp | None = None
        self._crashed = False

    @property
    def alive(self) -> bool:
        return self._app is not None and not self._crashed

    def start(self) -> None:
        if self._app is None:
            self._app = self._factory(self.replica_id)
            self._crashed = False

    def _check_alive(self) -> ReplicaApp:
        if self._app is None or self._crashed:
            raise ReplicaCrashedError(f"replica {self.replica_id} is dead")
        return self._app

    def score(self, requests: list[ScoreRequest]) -> list[ScoreResult]:
        app = self._check_alive()
        try:
            fault_point("cluster.replica.forward", replica=self.replica_id)
            return app.batch_fn(requests)
        except ReplicaCrashedError:
            self._crashed = True
            raise

    def generation_app(self):
        """The app's generation bundle (continuous engine mode).

        The continuous engine calls this every pump, so a restarted
        replica's fresh app is picked up automatically and a dead one
        raises :class:`ReplicaCrashedError` mid-loop — the same crash
        signal ``score`` gives the micro-batch engine.
        """
        app = self._check_alive()
        if app.generation is None:
            raise ClusterError(
                f"replica {self.replica_id} app has no generation bundle; "
                "engine_mode='continuous' needs ReplicaApp.generation"
            )
        return app.generation

    def ping(self) -> None:
        app = self._check_alive()
        try:
            fault_point("cluster.replica.ping", replica=self.replica_id)
            if app.ping is not None:
                app.ping()
        except ReplicaCrashedError:
            self._crashed = True
            raise

    def swap(self, state: Mapping[str, object]) -> None:
        app = self._check_alive()
        if app.swap_weights is None:
            raise ClusterError(
                f"replica {self.replica_id} app does not support weight swaps"
            )
        app.swap_weights(state)

    def weight_version(self) -> int | None:
        app = self._check_alive()
        return app.weight_version() if app.weight_version is not None else None

    def kill(self) -> None:
        """Chaos helper: make this replica dead until restarted."""
        self._crashed = True

    def restart(self) -> None:
        self._app = self._factory(self.replica_id)
        self._crashed = False

    def stop(self) -> None:
        self._app = None
        self._crashed = False


def _replica_child_main(conn, factory: ReplicaFactory, replica_id: int) -> None:
    """The fork-transport child loop: recv op, run it, send the reply.

    Scoring errors are *replies* (the replica stays up); ``SystemExit``
    and ``KeyboardInterrupt`` — including ones raised by an armed fault
    point — hard-exit without replying, which the parent observes as a
    dead pipe and maps to :class:`ReplicaCrashedError`.
    """
    app = factory(replica_id)
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        try:
            if op == "score":
                fault_point("cluster.replica.forward", replica=replica_id)
                conn.send(("ok", app.batch_fn(payload)))
            elif op == "ping":
                fault_point("cluster.replica.ping", replica=replica_id)
                if app.ping is not None:
                    app.ping()
                conn.send(("ok", None))
            elif op == "swap":
                if app.swap_weights is None:
                    raise ClusterError(
                        f"replica {replica_id} app does not support weight swaps"
                    )
                app.swap_weights(payload)
                conn.send(("ok", None))
            elif op == "version":
                version = app.weight_version() if app.weight_version is not None else None
                conn.send(("ok", version))
            elif op == "stop":
                conn.send(("ok", None))
                os._exit(0)
            else:
                conn.send(("err", "ClusterError", f"unknown op {op!r}"))
        except (SystemExit, KeyboardInterrupt):
            os._exit(1)
        except BaseException as error:  # noqa: BLE001 — replied, not fatal
            conn.send(("err", type(error).__name__, str(error)))


def _rebuild_error(type_name: str, message: str) -> BaseException:
    """Map a child-side error reply back onto the library hierarchy."""
    import repro.errors as errors_module

    cls = getattr(errors_module, type_name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls(message)
    return ServingError(f"{type_name}: {message}")


class ForkTransport:
    """Subprocess replica: the app lives in a forked child.

    The parent side is a tiny RPC client over a duplex pipe; the
    replica's engine (in the parent) batches, the child scores.  Fork
    start keeps the factory closure-friendly — the child inherits the
    interpreter state, including any installed
    :class:`~repro.resilience.FaultInjector`, so chaos schedules travel
    into replicas exactly like they do into influence workers.
    """

    def __init__(
        self,
        factory: ReplicaFactory,
        replica_id: int,
        rpc_timeout_s: float = 30.0,
        ping_timeout_s: float = 2.0,
    ):
        self._factory = factory
        self.replica_id = replica_id
        self._rpc_timeout_s = rpc_timeout_s
        self._ping_timeout_s = ping_timeout_s
        self._proc = None
        self._conn = None
        self._lock = threading.Lock()

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def start(self) -> None:
        if self._proc is not None:
            return
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_replica_child_main,
            args=(child_conn, self._factory, self.replica_id),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc, self._conn = proc, parent_conn

    def _dead(self, reason: str) -> ReplicaCrashedError:
        return ReplicaCrashedError(f"replica {self.replica_id} {reason}")

    def _rpc(self, op: str, payload, timeout: float):
        with self._lock:
            if self._conn is None:
                raise self._dead("is not running")
            try:
                self._conn.send((op, payload))
                if not self._conn.poll(timeout):
                    raise self._dead(f"timed out after {timeout}s on {op!r}")
                status, value = self._conn.recv()
            except ReplicaCrashedError:
                raise
            except (EOFError, OSError, BrokenPipeError):
                raise self._dead(f"pipe lost during {op!r}") from None
        if status == "err":
            raise _rebuild_error(*value) if isinstance(value, tuple) else _rebuild_error(value[0], value[1])
        return value

    def score(self, requests: list[ScoreRequest]) -> list[ScoreResult]:
        return self._rpc("score", requests, self._rpc_timeout_s)

    def ping(self) -> None:
        if not self.alive:
            raise self._dead("process exited")
        self._rpc("ping", None, self._ping_timeout_s)

    def swap(self, state: Mapping[str, object]) -> None:
        self._rpc("swap", dict(state), self._rpc_timeout_s)

    def weight_version(self) -> int | None:
        return self._rpc("version", None, self._ping_timeout_s)

    def kill(self) -> None:
        """Chaos helper: SIGKILL the child — a real, unannounced crash."""
        if self._proc is not None and self._proc.is_alive():
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=5.0)

    def _teardown(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
            if self._proc is not None:
                if self._proc.is_alive():
                    self._proc.terminate()
                self._proc.join(timeout=5.0)
            self._proc = self._conn = None

    def restart(self) -> None:
        self._teardown()
        self.start()

    def stop(self) -> None:
        with self._lock:
            if self._conn is not None and self._proc is not None and self._proc.is_alive():
                try:
                    self._conn.send(("stop", None))
                    self._conn.poll(1.0)
                except (OSError, BrokenPipeError):
                    pass
        self._teardown()


# ----------------------------------------------------------------------
# Replica + supervisor
# ----------------------------------------------------------------------


class Replica:
    """One engine + transport + breaker under supervisor management.

    ``engine`` is a :class:`MicroBatchEngine` or (continuous mode) a
    :class:`~repro.serving.continuous.ContinuousEngine`; the supervisor
    only touches what both inherit from the
    :class:`~repro.serving.engine.ServingEngine` core (submit/pump/
    start/stop/withdraw_all/queue_depth/stats).
    """

    def __init__(
        self,
        replica_id: int,
        transport,
        engine,
        breaker: CircuitBreaker,
    ):
        self.id = replica_id
        self.transport = transport
        self.engine = engine
        self.breaker = breaker
        self.state = STARTING
        self.restarts = 0
        self.outstanding = 0  # dispatched (queued or scoring), not yet finalized

    @property
    def routable(self) -> bool:
        """State admits traffic (breaker consulted separately at pick time)."""
        return self.state == HEALTHY


class ClusterSupervisor:
    """Launches, routes to, heals and redeploys N engine replicas.

    Parameters
    ----------
    factory:
        ``factory(replica_id) -> ReplicaApp`` — builds one replica's
        scorer over **its own model instance**.  Runs in the supervisor
        process (thread transport) or in the forked child (fork
        transport).
    config:
        :class:`ClusterConfig`.
    clock:
        Wall clock for engines (deadlines, latency); injectable.
    breaker_clock:
        Monotonic clock for the per-replica circuit breakers;
        injectable so tests can step breaker timeouts by hand.
    obs:
        Observability hub shared by the supervisor and every
        parent-side engine.
    """

    def __init__(
        self,
        factory: ReplicaFactory,
        config: ClusterConfig | None = None,
        clock: Callable[[], float] = time.time,
        breaker_clock: Callable[[], float] = time.monotonic,
        obs: Observability | None = None,
    ):
        self.config = config or ClusterConfig()
        self._factory = factory
        self._clock = clock
        self.obs = obs or get_observability()
        metrics = self.obs.metrics
        self._m_submitted = metrics.counter("cluster.submitted")
        self._m_completed = metrics.counter("cluster.completed")
        self._m_failed = metrics.counter("cluster.failed")
        self._m_rejected = metrics.counter("cluster.rejected")
        self._m_quota_rejected = metrics.counter("cluster.quota_rejected")
        self._m_redispatched = metrics.counter("cluster.redispatched")
        self._m_restarted = metrics.counter("cluster.replica_restarted")
        self._m_swapped = metrics.counter("cluster.deploy_swapped")
        self._m_health_checks = metrics.counter("cluster.health_checks")
        self._m_health_errors = metrics.counter("cluster.health_check_errors")
        self._g_healthy = metrics.gauge("cluster.replicas_healthy")
        self._g_outstanding = metrics.gauge("cluster.outstanding")
        self.stats = ClusterStats()
        self._lock = threading.RLock()
        self._drained = threading.Condition(self._lock)
        self._tenant_inflight: dict[str, int] = {}
        self._staged_state: Mapping[str, object] | None = None
        self._launched = False
        self._running = False
        self._health_thread: threading.Thread | None = None
        self._health_stop = threading.Event()
        self._replicas: list[Replica] = []
        for i in range(self.config.replicas):
            if self.config.transport == "fork":
                transport = ForkTransport(
                    factory,
                    i,
                    rpc_timeout_s=self.config.rpc_timeout_s,
                    ping_timeout_s=self.config.ping_timeout_s,
                )
            else:
                transport = ThreadTransport(factory, i)
            if self.config.engine_mode == "continuous":
                from repro.serving.continuous import ContinuousEngine

                engine = ContinuousEngine(
                    app=transport.generation_app,
                    config=self.config.engine_config(),
                    clock=clock,
                    obs=self.obs,
                )
            else:
                engine = MicroBatchEngine(
                    batch_fn=transport.score,
                    config=self.config.engine_config(),
                    clock=clock,
                    obs=self.obs,
                )
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                window=self.config.breaker_window,
                min_calls=self.config.breaker_min_calls,
                reset_timeout_s=self.config.breaker_reset_timeout_s,
                clock=breaker_clock,
                obs=self.obs,
                name=f"replica-{i}",
            )
            self._replicas.append(Replica(i, transport, engine, breaker))

    # -- introspection -------------------------------------------------

    @property
    def replicas(self) -> list[Replica]:
        return list(self._replicas)

    def replica_states(self) -> dict[int, str]:
        with self._lock:
            return {r.id: r.state for r in self._replicas}

    def healthy_count(self) -> int:
        with self._lock:
            return sum(r.state == HEALTHY for r in self._replicas)

    @property
    def outstanding(self) -> int:
        with self._lock:
            return sum(r.outstanding for r in self._replicas)

    def weight_versions(self) -> dict[int, int | None]:
        """Per-replica model weight version (None where unsupported)."""
        versions: dict[int, int | None] = {}
        for r in self._replicas:
            try:
                versions[r.id] = r.transport.weight_version()
            except (ReplicaCrashedError, ClusterError):
                versions[r.id] = None
        return versions

    def _event(self, kind: str, **fields) -> None:
        self.obs.event(kind, **fields)

    def _set_state(self, replica: Replica, state: str) -> None:
        """Record a lifecycle transition (lock held or single-threaded)."""
        if replica.state == state:
            return
        replica.state = state
        self._g_healthy.set(sum(r.state == HEALTHY for r in self._replicas))
        self._event("cluster.replica", replica=replica.id, state=state)

    # -- lifecycle -----------------------------------------------------

    def launch(self) -> None:
        """Start every replica's transport (idempotent)."""
        with self._lock:
            if self._launched:
                return
            self._launched = True
        with self.obs.span("cluster.launch", replicas=len(self._replicas)):
            for replica in self._replicas:
                replica.transport.start()
                with self._lock:
                    self._set_state(replica, HEALTHY)

    def start(self) -> None:
        """Launch replicas, their worker threads, and the health loop."""
        self.launch()
        if self._running:
            return
        self._running = True
        for replica in self._replicas:
            replica.engine.start()
        self._health_stop.clear()
        self._health_thread = threading.Thread(target=self._health_loop, daemon=True)
        self._health_thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the health loop and workers; optionally drain the queues."""
        if self._running:
            self._running = False
            self._health_stop.set()
            if self._health_thread is not None:
                self._health_thread.join()
                self._health_thread = None
            for replica in self._replicas:
                replica.engine.stop(drain=False)
        if drain and self._launched:
            self.drain()
        for replica in self._replicas:
            replica.transport.stop()
            with self._lock:
                self._set_state(replica, STARTING)
        with self._lock:
            self._launched = False

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- routing + admission -------------------------------------------

    def _pick(self, exclude: set[int]) -> Replica | None:
        """Least-loaded routable replica whose breaker admits traffic."""
        with self._lock:
            candidates = sorted(
                (r for r in self._replicas if r.id not in exclude and r.routable),
                key=lambda r: (r.outstanding, r.id),
            )
        for replica in candidates:
            if replica.breaker.allow():
                return replica
        return None

    def submit(self, request: ScoreRequest) -> PendingResult:
        """Route one request to a replica; raises on admission failure.

        Raises :class:`QueueFullError` when the tenant is at quota or no
        routable replica has queue room — backpressure, exactly like the
        single-engine ``submit``.
        """
        if not request.behavior_text.strip():
            raise ServingError("behavior_text must be non-empty")
        self.launch()
        tenant = request.user_id
        with self._lock:
            quota = self.config.tenant_quota
            if quota is not None and self._tenant_inflight.get(tenant, 0) >= quota:
                self.stats.quota_rejected += 1
                self._m_quota_rejected.inc()
                raise QueueFullError(
                    f"tenant {tenant!r} at admission quota ({quota} in flight)"
                )
            self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
        pending = PendingResult(request)
        pending.add_done_callback(self._release_tenant)
        error = self._dispatch(pending, attempt=0, exclude=set())
        if error is not None:
            self.stats.rejected += 1
            self._m_rejected.inc()
            pending._reject(error)
            raise error
        self.stats.submitted += 1
        self._m_submitted.inc()
        return pending

    def _release_tenant(self, pending: PendingResult) -> None:
        tenant = pending.request.user_id
        with self._lock:
            count = self._tenant_inflight.get(tenant, 0) - 1
            if count > 0:
                self._tenant_inflight[tenant] = count
            else:
                self._tenant_inflight.pop(tenant, None)

    def _dispatch(
        self, pending: PendingResult, attempt: int, exclude: set[int]
    ) -> QueueFullError | None:
        """Place ``pending`` on the best replica; returns the admission error
        (without finalizing) when every routable replica is excluded or full."""
        exclude = set(exclude)
        while True:
            replica = self._pick(exclude)
            if replica is None:
                return QueueFullError(
                    "no replica can admit the request "
                    f"(states: {self.replica_states()})"
                )
            try:
                engine_pending = replica.engine.submit(pending.request)
            except QueueFullError:
                exclude.add(replica.id)
                continue
            with self._lock:
                replica.outstanding += 1
                self._g_outstanding.set(sum(r.outstanding for r in self._replicas))
            engine_pending.add_done_callback(
                lambda ep, p=pending, r=replica, a=attempt: self._on_replica_done(p, r, ep, a)
            )
            return None

    def _on_replica_done(
        self, pending: PendingResult, replica: Replica, engine_pending: PendingResult, attempt: int
    ) -> None:
        with self._lock:
            replica.outstanding -= 1
            self._g_outstanding.set(sum(r.outstanding for r in self._replicas))
            self._drained.notify_all()
        error = engine_pending.error
        if error is None:
            result = replace(engine_pending.result(timeout=0), replica=replica.id)
            replica.breaker.record_success()
            self.stats.completed += 1
            self._m_completed.inc()
            pending._resolve(result)
            return
        if isinstance(error, ReplicaCrashedError):
            replica.breaker.record_failure()
            self._declare_dead(replica, error)
            if attempt < self.config.max_redispatch:
                self.stats.redispatched += 1
                self._m_redispatched.inc()
                admission_error = self._dispatch(
                    pending, attempt=attempt + 1, exclude={replica.id}
                )
                if admission_error is None:
                    return
                error = admission_error
        elif not isinstance(error, (DeadlineExceededError, QueueFullError)):
            # Model-path failure: the replica answered, but brokenly.
            replica.breaker.record_failure()
        self.stats.failed += 1
        self._m_failed.inc()
        pending._reject(error)

    # -- failure handling ----------------------------------------------

    def _declare_dead(self, replica: Replica, error: BaseException) -> None:
        """Mark a replica dead and move its queued traffic elsewhere."""
        with self._lock:
            if replica.state == DEAD:
                return
            self._set_state(replica, DEAD)
        # Rejecting the queued requests triggers their done-callbacks,
        # which re-dispatch each one to a healthy replica.
        replica.engine.withdraw_all(
            ReplicaCrashedError(f"replica {replica.id} died with queued requests: {error}")
        )

    def restart_replica(self, replica: Replica) -> bool:
        """Restart one dead replica; returns False once past max_restarts."""
        if replica.restarts >= self.config.max_restarts:
            return False
        with self.obs.span("cluster.restart", replica=replica.id):
            replica.transport.restart()
            if self._staged_state is not None:
                # A deploy happened while this replica was down (or it
                # crashed mid-deploy): the factory rebuilt original
                # weights, so re-apply the staged checkpoint.
                replica.transport.swap(self._staged_state)
            replica.restarts += 1
            self.stats.restarts += 1
            self._m_restarted.inc()
            replica.breaker.reset()
            with self._lock:
                self._set_state(replica, HEALTHY)
        self._event("cluster.replica_restarted", replica=replica.id, restarts=replica.restarts)
        return True

    # -- health --------------------------------------------------------

    def check_health(self) -> dict[int, str]:
        """One health sweep: ping replicas, feed breakers, restart the dead.

        Deterministic — the synchronous drive mode calls this directly;
        the threaded health loop calls it on a timer.
        """
        fault_point("cluster.health_check")
        self.stats.health_checks += 1
        self._m_health_checks.inc()
        for replica in self._replicas:
            if replica.state == DEAD:
                self.restart_replica(replica)
                continue
            if replica.state == DRAINING:
                continue  # mid-deploy; leave it alone
            try:
                replica.transport.ping()
            except ReplicaCrashedError as error:
                replica.breaker.record_failure()
                self._declare_dead(replica, error)
                self.restart_replica(replica)
            except Exception:
                # Deep probe failed but the process is up: count it
                # against the breaker; enough failures route around it.
                replica.breaker.record_failure()
            else:
                replica.breaker.record_success()
        return self.replica_states()

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self.config.health_interval_s):
            try:
                self.check_health()
            except Exception:
                # The loop itself must survive chaos (an armed
                # cluster.health_check fault point, a transport bug):
                # count the crash and keep sweeping.
                self._m_health_errors.inc()
                self._event("cluster.health_check_error")

    # -- synchronous drive ---------------------------------------------

    def pump(self) -> int:
        """Score one batch on every live replica; returns requests scored."""
        total = 0
        for replica in self._replicas:
            if replica.state == DEAD:
                continue
            total += replica.engine.pump()
        return total

    def drain(self) -> None:
        """Pump until no replica holds queued work (redispatches included)."""
        while True:
            pumped = self.pump()
            leftovers = [r for r in self._replicas if r.engine.queue_depth]
            if not leftovers:
                if pumped == 0:
                    return
                continue
            if pumped == 0:
                # Only dead replicas hold work: withdraw it so the
                # done-callbacks redispatch (or surface explicit errors).
                for replica in leftovers:
                    if replica.state == DEAD:
                        replica.engine.withdraw_all(
                            ReplicaCrashedError(
                                f"replica {replica.id} is dead; request withdrawn"
                            )
                        )
                if all(r.state != DEAD for r in leftovers):
                    raise ClusterError(
                        f"drain stalled with live replicas still queued: "
                        f"{[(r.id, r.state, r.engine.queue_depth) for r in leftovers]}"
                    )

    def serve(self, requests: Sequence[ScoreRequest]) -> list[ScoreResult]:
        """Submit, drain, collect — the synchronous batched entry point."""
        pendings = [self.submit(request) for request in requests]
        self.drain()
        return [p.result(timeout=0) for p in pendings]

    # -- rolling deploy ------------------------------------------------

    def deploy(self, state: Mapping[str, object], drain_timeout_s: float | None = None) -> int:
        """Rolling weight deploy: stage, then drain/swap/resume per replica.

        Returns the number of replicas swapped.  Replicas that are dead
        (or die mid-deploy) pick the staged weights up on restart, so
        the cluster converges on the new version either way.
        """
        self.launch()
        timeout = drain_timeout_s if drain_timeout_s is not None else self.config.drain_timeout_s
        self._staged_state = dict(state)
        swapped = 0
        with self.obs.span("cluster.deploy", replicas=len(self._replicas)):
            for replica in self._replicas:
                if replica.state == DEAD:
                    # restart_replica (health loop or next sweep) applies
                    # the staged weights; nothing to drain here.
                    continue
                with self._lock:
                    self._set_state(replica, DRAINING)
                try:
                    self._await_drained(replica, timeout)
                    fault_point("cluster.deploy.swap", replica=replica.id)
                    replica.transport.swap(self._staged_state)
                except ReplicaCrashedError as error:
                    self._declare_dead(replica, error)
                    self.restart_replica(replica)  # restart applies staged state
                    swapped += 1
                    continue
                except Exception:
                    # Swap failed for a non-crash reason (e.g. a state
                    # dict that does not fit the replica's architecture):
                    # the replica still holds working weights, so return
                    # it to service before surfacing the error.
                    with self._lock:
                        self._set_state(replica, HEALTHY)
                    raise
                with self._lock:
                    self._set_state(replica, HEALTHY)
                swapped += 1
                self.stats.swaps += 1
                self._m_swapped.inc()
                self._event("cluster.deploy_swapped", replica=replica.id)
        return swapped

    def _await_drained(self, replica: Replica, timeout: float) -> None:
        """Wait (threaded) or pump (sync) until a replica has no work."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if replica.outstanding == 0:
                    return
                if self._running:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._drained.wait(timeout=min(remaining, 0.05))
                    continue
            # Synchronous mode: drive the replica's own engine dry.
            if replica.engine.pump() == 0 and replica.outstanding > 0:
                # Queued nothing but outstanding: engine callbacks run
                # inline in pump, so this means bookkeeping is stuck.
                if time.monotonic() >= deadline:
                    break
        raise ClusterError(
            f"replica {replica.id} failed to drain within {timeout}s "
            f"({replica.outstanding} outstanding)"
        )


# ----------------------------------------------------------------------
# ZiGong wiring
# ----------------------------------------------------------------------


def zigong_quantized_state(zigong) -> dict:
    """Stage an int8 deploy payload from a (float, possibly LoRA) ZiGong.

    Builds a throwaway copy of the source model, merges any LoRA
    adapters, runs :func:`repro.nn.quantize_model` and returns its
    ``state_dict()`` — the exact key/dtype layout that replicas built by
    ``zigong_replica_factory(..., quantize="int8")`` expect, so the
    result can be handed straight to
    :meth:`ClusterSupervisor.deploy` for a stage->drain->swap rollout.
    The source ``zigong`` is never mutated (checkpoints stay float).
    """
    from repro.lora.inject import apply_lora, merge_lora
    from repro.nn.quant import quantize_model
    from repro.nn.transformer import MistralTiny

    config = zigong.config
    model = MistralTiny(config.model, rng=config.seed)
    if getattr(zigong, "_lora_applied", False):
        apply_lora(model, config.lora, rng=config.seed)
    model.load_state_dict({k: v.copy() for k, v in zigong.model.state_dict().items()})
    merge_lora(model)
    quantize_model(model)
    return model.state_dict()


def zigong_replica_factory(
    zigong,
    threshold: float = 0.5,
    question: str | None = None,
    quantize: str | None = None,
) -> ReplicaFactory:
    """A :class:`ReplicaFactory` serving Behavior-Card-style decisions.

    Each replica builds **its own** :class:`~repro.nn.transformer.MistralTiny`
    instance (same config/seed as the source model, then loads its
    weights) plus its own
    :class:`~repro.baselines.lm.LMClassifier`/:class:`~repro.nn.cache.PrefixCache`
    — replicas share nothing mutable, which is what makes fork
    transport, kills and rolling swaps safe.  ``swap_weights`` loads a
    staged state dict (bumping ``weight_version``, which flushes the
    prefix cache on the next generate call).

    With ``quantize="int8"`` every replica merges its LoRA adapters and
    runs :func:`repro.nn.quantize_model` after loading the source
    weights: replicas serve from int8 weights on the fused inference
    kernel (~4x less weight memory per replica) while the source
    ``zigong`` — and therefore training, influence and explain paths —
    stays float.  Rolling deploys to quantized replicas must stage a
    matching quantized state dict; :func:`zigong_quantized_state` builds
    one from a float model.
    """
    from repro.baselines.lm import LMClassifier
    from repro.data.templates import CLASSIFICATION_TEMPLATE
    from repro.eval.parsing import parse_answer
    from repro.lora.inject import apply_lora, merge_lora
    from repro.nn.quant import quantize_model
    from repro.nn.transformer import MistralTiny
    from repro.serving.behavior_card import DEFAULT_QUESTION
    from repro.serving.continuous import GenerationApp

    if quantize not in (None, "int8"):
        raise ConfigError(f"unsupported replica quantization {quantize!r}; use 'int8' or None")
    config = zigong.config
    tokenizer = zigong.tokenizer
    lora_applied = getattr(zigong, "_lora_applied", False)
    source_state = {k: v.copy() for k, v in zigong.model.state_dict().items()}
    asked = question if question is not None else DEFAULT_QUESTION

    def factory(replica_id: int) -> ReplicaApp:
        model = MistralTiny(config.model, rng=config.seed)
        if lora_applied:
            # Mirror the source model's structure so its state dict
            # (which names LoRA params) loads one-to-one.
            apply_lora(model, config.lora, rng=config.seed)
        model.load_state_dict(source_state)
        if quantize is not None:
            merge_lora(model)
            quantize_model(model, dtype=quantize)
        classifier = LMClassifier(model, tokenizer, name=f"replica-{replica_id}")

        def batch_fn(requests: list[ScoreRequest]) -> list[ScoreResult]:
            prompts = [
                CLASSIFICATION_TEMPLATE.format(sentence=r.behavior_text, question=asked)
                for r in requests
            ]
            if len(prompts) > 1:
                scores = [float(s) for s in classifier.score_batch(prompts, "yes", "no")]
            else:
                scores = [float(classifier.score(prompts[0], "yes", "no"))]
            return [
                ScoreResult(
                    user_id=r.user_id,
                    score=s,
                    approved=s < threshold,
                    threshold=threshold,
                    cached=False,
                )
                for r, s in zip(requests, scores)
            ]

        def encode(request: ScoreRequest):
            prompt = CLASSIFICATION_TEMPLATE.format(
                sentence=request.behavior_text, question=asked
            )
            return classifier._prompt_ids(prompt)

        def finish(request: ScoreRequest, tokens: list[int]) -> ScoreResult:
            # Generative read-out: the decoded answer text is parsed the
            # same way the eval harness counts the Miss metric.  A miss
            # scores 0.5 and is conservatively not approved.
            text = tokenizer.decode(tokens)
            label = parse_answer(text, "yes", "no")
            score = 1.0 if label == 1 else 0.0 if label == 0 else 0.5
            return ScoreResult(
                user_id=request.user_id,
                score=score,
                approved=label == 0,
                threshold=threshold,
                cached=False,
            )

        generation = GenerationApp(
            model=model,
            encode=encode,
            finish=finish,
            generation=classifier._generation_config(),
            prefix_cache=classifier.prefix_cache,
        )

        return ReplicaApp(
            batch_fn=batch_fn,
            swap_weights=model.load_state_dict,
            weight_version=lambda: model.weight_version,
            generation=generation,
        )

    return factory
