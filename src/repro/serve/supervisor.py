"""Supervised serving: one shard executor, two replica transports.

:class:`PermutationService` (PR 5) is a single failure domain: one stuck
sweep, one corrupted kernel or one crashed thread takes every shard down
with it.  This module applies the repo's fault-injection philosophy one
layer up — the serving stack itself is treated as hardware that *will*
fail, and correctness under failure is verified, not assumed.

Architecture
------------

Sweeps are executed by **replicas**: each batch-group key ``(kind, n)``
is a shard holding a fixed number of replica slots, and each replica
owns a *private* engine.  :class:`ShardExecutor` drives every sweep
through the shard's **degradation ladder**, the one copy of it in the
package:

1. **worker** — acquire an idle live replica (respawning a retired one
   once its restart backoff has elapsed), run the sweep under a
   response deadline and oracle-check the result.  A crash, a stall (the
   deadline expires; the replica is abandoned exactly like
   :func:`~repro.parallel.sharding.hardened_map_reduce` abandons a
   timed-out process — any late result is discarded) or a failed
   response check retires the replica, counts against the shard's
   **circuit breaker** and schedules its respawn with
   :func:`~repro.parallel.sharding.retry_backoff` on the monotonic
   clock (tests drive ``_monotonic`` directly).  The sweep then retries
   on another live replica, at most ``replicas − 1`` times — so with one
   replica a failure goes straight to the next rung.
2. **fallback** — while no replica can serve, sweeps run on the
   in-process interp fallback (the functional model for converter
   shards — a different algorithm and code path from the compiled
   datapath, so a kernel bug cannot follow the sweep down the ladder).
   The fallback has its own breaker.
3. **cache-only** — with both breakers open the shard serves cache hits
   only; everything else is shed with
   :class:`~repro.errors.ServiceDegradedError` at admission.

Every worker-produced **and** fallback-produced batch is end-to-end
self-checked through :func:`repro.robustness.checkers.check_served_batch`
(bijectivity for all sweeps, the independent Lehmer rank-oracle for
converter sweeps) before any future resolves — a corrupted result is
never served silently.  A check failure additionally **quarantines**
whatever parent-side artefact the replica swept through (for in-thread
replicas, the compiled kernel via :func:`repro.hdl.compile.evict_kernel`)
so the replacement recompiles from the netlist.

The executor reaches replicas through one seam — :class:`Replica` —
with two transports behind it:

* **thread** (:class:`ShardWorker`, :class:`SweepSupervisor`): one
  replica per shard on its own thread, with a heartbeat and an
  in-thread chaos plan;
* **process** (:mod:`repro.serve.pool`): ``workers`` replica processes
  per shard, a control pipe and a shared-memory result ring each.

The breaker is the classic three-state machine::

            failure_threshold consecutive failures
   CLOSED ──────────────────────────────────────────▶ OPEN
      ▲                                                │ recovery_s
      │ one probe success                   elapsed    ▼
      └──────────────────────────────────────────── HALF-OPEN
                         (any failure reopens)

Everything is observable, identically for both transports: replica
restarts, failovers, check failures and quarantines are counters;
breaker state is the Prometheus enum gauge ``repro_serve_breaker_state``;
in-flight sweeps per shard are ``repro_serve_pool_queue_depth``; and
with a tracer attached every failover, restart and check failure
becomes a span.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.core.converter import IndexToPermutationConverter
from repro.errors import (
    FaultDetectedError,
    ServiceDegradedError,
    ServiceOverloadedError,
    WorkerCrashedError,
    WorkerStalledError,
)
from repro.hdl.compile import evict_kernel
from repro.obs import metrics as _metrics
from repro.obs.tracing import Span, Tracer
from repro.parallel.sharding import retry_backoff
from repro.robustness.checkers import check_served_batch
from repro.serve.engine import EngineBank
from repro.serve.service import PermutationService, ServiceConfig, batch_indices

__all__ = [
    "BREAKER_STATES",
    "BreakerConfig",
    "CircuitBreaker",
    "SupervisorConfig",
    "Replica",
    "ShardWorker",
    "FunctionalConverterEngine",
    "ShardExecutor",
    "SweepSupervisor",
    "SupervisedService",
]

# Injectable clock/sleep seams (monotonic), mirroring parallel.sharding:
# every deadline, backoff and heartbeat computation goes through these.
_monotonic = time.monotonic
_sleep = time.sleep

#: Breaker states in enum-gauge order (closed is the healthy state).
BREAKER_STATES = ("closed", "open", "half_open")

#: How long an idle worker thread waits on its queue between heartbeats,
#: and how long a sweep waits for a busy replica before re-scanning.
_POLL_S = 0.05

#: Maximum heartbeat age of an idle thread replica before it is declared
#: stuck and retired.  Idle threads beat every ``_POLL_S``.
HEARTBEAT_TIMEOUT_S = 5.0

_WORKER_RESTARTS = _metrics.REGISTRY.counter(
    "repro_serve_worker_restarts_total",
    "replica retirements and respawns by shard and reason",
    ("shard", "reason"),
)
_BREAKER_STATE = _metrics.REGISTRY.gauge(
    "repro_serve_breaker_state",
    "circuit-breaker state per shard and ladder path (enum gauge)",
    ("shard", "path", "state"),
)
_CHECK_FAILURES = _metrics.REGISTRY.counter(
    "repro_serve_check_failures_total",
    "served-response check failures by shard and check kind",
    ("shard", "kind"),
)
_FAILOVERS = _metrics.REGISTRY.counter(
    "repro_serve_failovers_total",
    "worker attempts that failed and moved the sweep down the ladder",
    ("shard",),
)
_QUARANTINES = _metrics.REGISTRY.counter(
    "repro_serve_kernel_quarantines_total",
    "compiled kernels evicted after a response-check conviction",
    ("shard",),
)
_SWEEP_DIGEST = _metrics.REGISTRY.digest(
    "repro_serve_sweep_seconds",
    "supervised sweep duration digest by shard and ladder rung",
    ("shard", "rung"),
)
_DEPTH = _metrics.REGISTRY.gauge(
    "repro_serve_pool_queue_depth",
    "in-flight sweeps per shard (the backpressure signal)",
    ("shard",),
)
_REPLICA_SWEEPS = _metrics.REGISTRY.counter(
    "repro_serve_pool_worker_sweeps_total",
    "sweeps served per worker replica",
    ("shard", "replica"),
)
_WORKER_CACHE = _metrics.REGISTRY.counter(
    "repro_serve_pool_cache_total",
    "worker-side result-cache lookups by shard and result",
    ("shard", "result"),
)


# --------------------------------------------------------------------- #
# circuit breaker


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds for one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive failures trip the breaker OPEN;
    after ``recovery_s`` (monotonic) it half-opens and admits probe
    traffic; one probe success closes it again, a probe failure
    re-opens it and restarts the recovery clock.
    """

    failure_threshold: int = 3
    recovery_s: float = 0.25

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if self.recovery_s < 0:
            raise ValueError("recovery_s must be non-negative")


class CircuitBreaker:
    """Closed → open → half-open breaker on the monotonic clock.

    A pure, lock-free state machine: the caller (the executor, under the
    shard lock) invokes :meth:`allow` before attempting the guarded path
    and exactly one of :meth:`record_success` / :meth:`record_failure`
    after.  The OPEN → HALF_OPEN transition is computed lazily from the
    clock seam on read, so no timer thread exists and tests can drive
    recovery by stepping a fake clock.
    """

    def __init__(self, config: BreakerConfig | None = None):
        self.config = config or BreakerConfig()
        self._failures = 0  # consecutive failures while closed
        self._opened_at: float | None = None
        self.trips = 0  # lifetime closed→open transitions

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if _monotonic() - self._opened_at >= self.config.recovery_s:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May the guarded path be attempted right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        self._opened_at = None
        self._failures = 0

    def record_failure(self) -> None:
        if self._opened_at is not None:
            # a half-open probe failed: re-open and restart recovery
            self._opened_at = _monotonic()
            return
        self._failures += 1
        if self._failures >= self.config.failure_threshold:
            self._opened_at = _monotonic()
            self.trips += 1


# --------------------------------------------------------------------- #
# replicas: the transport seam


class Replica:
    """One sweep-executing replica, whichever transport carries it.

    The executor drives a replica only through this surface: :meth:`run`
    one sweep under a deadline (raising
    :class:`~repro.errors.WorkerCrashedError` /
    :class:`~repro.errors.WorkerStalledError`), :meth:`kill` it, order a
    chaos ``send_crash`` and ``join`` its exit, and :meth:`quarantine`
    the parent-side artefact a convicted sweep came from.  ``busy`` and ``sweeps`` are
    executor bookkeeping, guarded by the shard lock; ``last_hits`` /
    ``last_misses`` report the worker-side cache of the last sweep.
    """

    pid: int | None = None
    heartbeat_age_s = 0.0
    last_hits = last_misses = 0
    cache_hits = cache_misses = 0

    def __init__(self, key, worker_id: int, slot: int):
        self.key = key
        self.worker_id = worker_id
        self.slot = slot
        self.busy = False
        self.sweeps = 0

    def quarantine(self) -> int | None:
        """Evict what a convicted sweep ran on → evicted count, or
        ``None`` when the transport has nothing parent-side to evict."""
        return None


class _SweepJob:
    """One sweep handed to a worker thread, with a settled-event.

    ``traced`` asks the worker thread to time its sweep in a span
    (minted worker-side, grafted by the caller after the job settles —
    never touched concurrently from both threads); the finished span
    lands in ``span``.
    """

    __slots__ = ("payload", "plan", "event", "value", "error", "traced", "span")

    def __init__(self, payload, plan=None, traced: bool = False):
        self.payload = payload
        self.plan = plan
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None
        self.traced = traced
        self.span: Span | None = None


#: Queue sentinel: the chaos harness's hard crash of an idle thread.
_CRASH = object()


class ShardWorker(Replica):
    """The thread transport: a private engine swept on its own thread.

    The thread is the in-process stand-in for a worker process: it owns
    the engine (built before the thread starts, on the spawning thread,
    so a failed build surfaces as a failed spawn, not a dead worker),
    beats a heartbeat timestamp while idle and around every sweep, and
    dies — ``alive`` goes ``False`` — when a sweep raises
    :class:`~repro.errors.WorkerCrashedError` (how the chaos harness
    simulates a worker-process crash).  Any other sweep exception fails
    the sweep but leaves the thread up, like a process surviving one bad
    request.

    :meth:`run` enforces the response deadline: if the worker does not
    settle the job in time it raises
    :class:`~repro.errors.WorkerStalledError` and the worker must be
    :meth:`kill`-ed — the stalled thread is abandoned (it cannot be
    interrupted, exactly like a stuck worker process) and any late
    result it produces is discarded with the job object.
    """

    def __init__(self, key, worker_id: int, engine, slot: int = 0):
        super().__init__(key, worker_id, slot)
        self.engine = engine
        self.alive = True
        self.last_beat = _monotonic()
        self._killed = False
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"serve-worker-{key[0]}-{key[1]}-{worker_id}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------ #

    def run(self, payload, deadline_s: float, parent: Span | None = None, plan=None):
        """One sweep with a response deadline; raises typed failures.

        ``plan`` is the chaos plan drawn for this sweep; its ``before``
        step (crash or sleep) runs on the worker thread.  With ``parent``
        given, the worker thread times the sweep — compiled-kernel
        execution included — in its own span, which is grafted under
        ``parent`` (restamped onto its trace) once the job settles.  A
        stalled job's span is *not* grafted: the abandoned thread may
        still be mutating it.
        """
        if not self.alive:
            raise WorkerCrashedError(
                f"worker {self.worker_id} for shard {self.key} is dead"
            )
        job = _SweepJob(payload, plan, traced=parent is not None)
        self._queue.put(job)
        if not job.event.wait(deadline_s):
            raise WorkerStalledError(
                f"worker {self.worker_id} for shard {self.key} missed its "
                f"{deadline_s:g}s sweep deadline (stall detected)"
            )
        if parent is not None and job.span is not None:
            parent.children.append(
                job.span.restamp(parent.trace_id, parent.span_id)
            )
        if job.error is not None:
            raise job.error
        return job.value

    def send_crash(self) -> bool:
        """Chaos hook: the thread dies at its next queue read."""
        self._queue.put(_CRASH)
        return True

    def join(self, timeout_s: float) -> None:
        self._thread.join(timeout_s)

    def kill(self) -> None:
        """Abandon the worker; a stalled thread exits at its next beat."""
        self.alive = False
        self._killed = True
        self._queue.put(None)  # wake an idle loop so the thread exits

    def quarantine(self) -> int | None:
        fingerprint = getattr(self.engine, "kernel_fingerprint", None)
        return None if fingerprint is None else evict_kernel(fingerprint)

    @property
    def heartbeat_age_s(self) -> float:
        return max(0.0, _monotonic() - self.last_beat)

    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while not self._killed:
            try:
                job = self._queue.get(timeout=_POLL_S)
            except queue.Empty:
                self.last_beat = _monotonic()
                continue
            if job is None or job is _CRASH or self._killed:
                break
            self.last_beat = _monotonic()
            sweep_span = (
                Span(
                    "serve.worker_sweep",
                    {
                        "shard": str(self.key),
                        "worker_id": self.worker_id,
                        "kernel": getattr(
                            self.engine, "kernel_fingerprint", None
                        ),
                    },
                )
                if job.traced
                else None
            )
            try:
                if job.plan is not None:
                    job.plan.before()  # may crash the worker or stall it
                value = self.engine.run(job.payload)
            except BaseException as exc:
                if sweep_span is not None:
                    job.span = sweep_span.end(
                        "error", error=f"{type(exc).__name__}: {exc}"
                    )
                job.error = exc
                job.event.set()
                if isinstance(exc, WorkerCrashedError):
                    break  # the worker "process" dies with the failing sweep
            else:
                if sweep_span is not None:
                    job.span = sweep_span.end("ok")
                job.value = value
                job.event.set()
            self.last_beat = _monotonic()
        self.alive = False


class FunctionalConverterEngine:
    """The interp fallback rung: the stage-accurate functional model.

    Shares no code with the compiled datapath — a corrupted or
    miscompiled kernel cannot reproduce its own bug here, which is what
    makes failover a *correctness* recovery and not just an
    availability one.
    """

    kind = "converter"

    def __init__(self, n: int):
        self.n = n
        self.converter = IndexToPermutationConverter(n)

    def run(self, indices):
        return self.converter.convert_batch(list(indices))


# --------------------------------------------------------------------- #
# the executor


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning knobs for the shard executor's ladder.

    ``sweep_deadline_s`` is the per-sweep response deadline (stall
    detection).  Restart backoff doubles per consecutive failure of a
    replica slot from ``restart_backoff_s`` up to
    ``restart_backoff_max_s`` and resets on success.  ``fallback``
    enables the interp rung of the ladder (off turns every worker outage
    into cache-only mode).  The response oracle is always on — it is
    the whole point of the tier.
    """

    sweep_deadline_s: float = 1.0
    restart_backoff_s: float = 0.02
    restart_backoff_max_s: float = 1.0
    fallback: bool = True
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    fallback_breaker: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(failure_threshold=2, recovery_s=0.5)
    )

    def __post_init__(self) -> None:
        if self.sweep_deadline_s <= 0:
            raise ValueError("sweep_deadline_s must be positive")
        if self.restart_backoff_s < 0 or self.restart_backoff_max_s < 0:
            raise ValueError("restart backoffs must be non-negative")


class _Shard:
    """Executor-side state for one ``(kind, n)`` shard.

    Everything mutable is guarded by ``cond``; the per-slot lists are
    indexed by :attr:`Replica.slot`.
    """

    __slots__ = (
        "key",
        "label",
        "cond",
        "replicas",
        "spawns",
        "failures",
        "retry_at",
        "depth",
        "breaker",
        "fallback_breaker",
        "fallback_engine",
        "fallback_lock",
        "restarts",
        "check_failures",
        "quarantines",
        "served",
        "cache_hits",
        "cache_misses",
    )

    def __init__(self, key, config: SupervisorConfig, replicas: int):
        self.key = key
        self.label = f"{key[0]}:{key[1]}"
        self.cond = threading.Condition()
        self.replicas: list[Replica | None] = [None] * replicas
        self.spawns = [0] * replicas
        self.failures = [0] * replicas  # consecutive, per slot
        self.retry_at = [0.0] * replicas
        self.depth = 0  # in-flight sweeps
        self.breaker = CircuitBreaker(config.breaker)
        self.fallback_breaker = CircuitBreaker(config.fallback_breaker)
        self.fallback_engine = None
        # the shuffle fallback advances LFSR state per sweep; the
        # functional converter is stateless — one lock covers both
        self.fallback_lock = threading.Lock()
        self.restarts = 0
        self.check_failures = 0
        self.quarantines = 0
        self.served = {"worker": 0, "fallback": 0}
        self.cache_hits = 0
        self.cache_misses = 0


class ShardExecutor:
    """Drives sweeps through the per-shard degradation ladder.

    Subclasses supply the transport: :meth:`_spawn` builds one
    :class:`Replica` for a slot.  ``replicas`` is the slot count per
    shard; ``sweep_limit`` (``None`` for no limit) is the in-flight
    sweep depth past which :meth:`admission_gate` sheds.  ``serving`` —
    the service's config — shapes the replicas' private engines
    and the fallback engine.  ``chaos`` is an optional injection policy
    (see :mod:`repro.serve.chaos`) consulted once per worker attempt and
    once per fallback sweep.
    """

    def __init__(
        self,
        config: SupervisorConfig,
        serving: ServiceConfig,
        *,
        replicas: int,
        sweep_limit: int | None = None,
        chaos=None,
        tracer: Tracer | None = None,
    ):
        self.config = config
        self.replicas = replicas
        self.sweep_limit = sweep_limit
        self.serving = serving
        self.chaos = chaos
        self.tracer = tracer
        self._lock = threading.Lock()
        self._shards: dict[tuple, _Shard] = {}
        self._worker_ids = itertools.count()
        self._closed = False

    def _spawn(self, key, slot: int, worker_id: int, engines: EngineBank) -> Replica:
        """Build a ready replica for ``slot`` of shard ``key`` (or raise);
        ``engines`` builds its private engine."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # admission

    def admission_gate(self, key) -> None:
        """Per-shard backpressure + degradation veto (lock-free healthy path).

        Raises :class:`~repro.errors.ServiceOverloadedError` once the
        shard's in-flight sweep depth reaches ``sweep_limit`` — the wire
        protocol's ``OVERLOADED`` — and
        :class:`~repro.errors.ServiceDegradedError` when the shard is in
        cache-only mode.  A shard nobody has used yet admits
        unconditionally.
        """
        shard = self._shards.get(key)
        if shard is None:
            return
        # GIL-atomic read; overshoot by a racing request is one sweep
        depth = shard.depth
        limit = self.sweep_limit
        if limit is not None and depth >= limit:
            raise ServiceOverloadedError(
                f"shard {key} has {depth} sweeps in flight (limit {limit}); "
                "request shed",
                queue_depth=depth,
                limit=limit,
            )
        if self.mode_for(key) == "cache_only":
            raise ServiceDegradedError(
                f"shard {key} is in cache-only mode; request shed",
                mode="cache_only",
                shard=key,
            )

    def mode_for(self, key) -> str:
        """The shard's ladder rung: ``full`` / ``degraded`` / ``cache_only``.

        Called by the admission gate on *every* request, so the healthy
        path is lock-free: a dict read and one attribute read, both
        GIL-atomic.  A closed breaker (``_opened_at is None``) means the
        worker rung is up; only a shard whose breaker has opened pays
        for the locked state walk.  The read may be one transition stale
        — harmless, because :meth:`execute` re-evaluates the ladder
        authoritatively under the shard lock.
        """
        shard = self._shards.get(key)
        if shard is None or shard.breaker._opened_at is None:
            return "full"
        with shard.cond:
            return self._mode_locked(shard)

    def _mode_locked(self, shard: _Shard) -> str:
        if shard.breaker.allow():
            return "full"
        if self.config.fallback and shard.fallback_breaker.allow():
            return "degraded"
        return "cache_only"

    # ------------------------------------------------------------------ #
    # the ladder

    def execute(self, key, payload, span: Span | None = None):
        """Run one sweep → ``(perms, mode)``; raises when fully degraded.

        ``payload`` is the list of indices for a converter sweep or the
        lane count for a shuffle sweep.  ``mode`` is the rung that
        served it (``"worker"`` or ``"fallback"``).  When every rung is
        exhausted the sweep fails with
        :class:`~repro.errors.ServiceDegradedError` — never with a
        wrong result: both rungs are oracle-checked before returning.

        ``span`` is the enclosing (sampled) batch span: every ladder
        step taken for this sweep — worker attempts, failovers, replica
        restarts, check failures, the fallback rung — is attached as a
        child, so one ``trace_id`` tells the sweep's whole story.
        """
        shard = self._shards.get(key) or self._shard(key)
        indices = payload if isinstance(payload, (list, tuple)) else None
        metrics_on = _metrics.REGISTRY.enabled
        with shard.cond:
            shard.depth += 1
            if metrics_on:
                _DEPTH.set(shard.depth, shard=shard.label)
        try:
            for _ in range(self.replicas):
                replica = self._acquire(shard, span)
                if replica is None:
                    break
                perms = self._attempt(shard, replica, payload, indices, span)
                if perms is not None:
                    return perms, "worker"
            return self._run_fallback(shard, payload, indices, span), "fallback"
        finally:
            with shard.cond:
                shard.depth -= 1
                if metrics_on:
                    _DEPTH.set(shard.depth, shard=shard.label)

    def _attempt(self, shard: _Shard, replica: Replica, payload, indices, span):
        """One checked sweep on ``replica`` → perms, or ``None`` on failure."""
        attempt = (
            span.child(
                "serve.worker_attempt",
                shard=str(shard.key),
                worker_id=replica.worker_id,
                replica=replica.slot,
            )
            if span is not None
            else None
        )
        plan = (
            self.chaos.plan_sweep(shard.key, replica.worker_id)
            if self.chaos is not None
            else None
        )
        t0 = time.perf_counter()
        try:
            perms = replica.run(payload, self.config.sweep_deadline_s, attempt, plan)
            if plan is not None:
                perms = plan.apply(perms)
            check_served_batch(perms, indices)
        except Exception as exc:
            if attempt is not None:
                attempt.end("error", error=f"{type(exc).__name__}: {exc}")
            self._on_worker_failure(shard, replica, exc, span)
            return None
        if attempt is not None:
            attempt.end("ok")
        with shard.cond:
            replica.busy = False
            replica.sweeps += 1
            shard.failures[replica.slot] = 0
            shard.breaker.record_success()
            shard.served["worker"] += 1
            shard.cache_hits += replica.last_hits
            shard.cache_misses += replica.last_misses
            shard.cond.notify()
        if _metrics.REGISTRY.enabled:
            self._publish_breakers(shard)
            _SWEEP_DIGEST.observe(
                time.perf_counter() - t0, shard=shard.label, rung="worker"
            )
            _REPLICA_SWEEPS.inc(shard=shard.label, replica=str(replica.slot))
            if replica.last_hits:
                _WORKER_CACHE.inc(replica.last_hits, shard=shard.label, result="hit")
            if replica.last_misses:
                _WORKER_CACHE.inc(
                    replica.last_misses, shard=shard.label, result="miss"
                )
        return perms

    def _run_fallback(self, shard: _Shard, payload, indices, span: Span | None = None):
        """The interp rung; raises ``ServiceDegradedError`` past it."""
        with shard.cond:
            allowed = (
                self.config.fallback
                and not self._closed
                and shard.fallback_breaker.allow()
            )
            if allowed and shard.fallback_engine is None:
                kind, n = shard.key
                shard.fallback_engine = (
                    EngineBank(
                        self.serving.shuffle_m, self.serving.rng_seed + 104729
                    ).shuffle(n)
                    if kind == "shuffle"
                    else FunctionalConverterEngine(n)
                )
            engine = shard.fallback_engine
        if allowed:
            fspan = (
                span.child("serve.fallback", shard=str(shard.key))
                if span is not None
                else None
            )
            t0 = time.perf_counter()
            try:
                plan = (
                    self.chaos.plan_fallback(shard.key)
                    if self.chaos is not None
                    else None
                )
                with shard.fallback_lock:
                    perms = engine.run(payload)
                if plan is not None:
                    perms = plan.apply(perms)
                check_served_batch(perms, indices)
            except Exception as exc:  # noqa: BLE001 - breaker accounting
                if fspan is not None:
                    fspan.end("error", error=f"{type(exc).__name__}: {exc}")
                with shard.cond:
                    shard.fallback_breaker.record_failure()
                    if isinstance(exc, FaultDetectedError):
                        shard.check_failures += 1
                if isinstance(exc, FaultDetectedError):
                    self._note_check_failure(shard, exc, "fallback", parent=span)
            else:
                if fspan is not None:
                    fspan.end("ok")
                with shard.cond:
                    shard.fallback_breaker.record_success()
                    shard.served["fallback"] += 1
                if _metrics.REGISTRY.enabled:
                    self._publish_breakers(shard)
                    _SWEEP_DIGEST.observe(
                        time.perf_counter() - t0, shard=shard.label, rung="fallback"
                    )
                return perms
        self._publish_breakers(shard)
        raise ServiceDegradedError(
            f"shard {shard.key} is degraded to cache-only mode "
            "(worker and fallback rungs unavailable)",
            mode="cache_only",
            shard=shard.key,
        )

    # ------------------------------------------------------------------ #
    # replica management

    def _acquire(self, shard: _Shard, span: Span | None = None) -> Replica | None:
        """An idle live replica, marked busy — or ``None``.

        Scans the slots: an idle live replica is taken; one found dead or
        with a stale heartbeat while idle is retired in place; an empty
        slot past its backoff is respawned.  While every live replica is
        busy the sweep waits for one — each busy replica settles within
        the sweep deadline.  ``None`` means the worker rung sits this
        sweep out: breaker open, executor closed, or every slot empty
        and backing off.
        """
        with shard.cond:
            while True:
                if self._closed or not shard.breaker.allow():
                    return None
                spawn_slot = None
                busy = False
                for slot, replica in enumerate(shard.replicas):
                    if replica is None:
                        if spawn_slot is None and _monotonic() >= shard.retry_at[slot]:
                            spawn_slot = slot
                    elif replica.busy:
                        busy = True
                    elif replica.alive and replica.heartbeat_age_s <= HEARTBEAT_TIMEOUT_S:
                        replica.busy = True
                        return replica
                    else:
                        # dead or stuck while idle: no sweep failed, so the
                        # slot respawns at once; rescan, as the failure may
                        # have opened the breaker.  The kill is immediate.
                        reason = "heartbeat" if replica.alive else "crash"
                        self._retire_locked(shard, replica, reason, backoff=False)
                        replica.kill()
                        break
                else:
                    if spawn_slot is not None:
                        replica = self._spawn_locked(shard, spawn_slot, span)
                        if replica is not None:
                            replica.busy = True
                            return replica
                        continue  # spawn failed: backoff scheduled, rescan
                    if not busy:
                        return None
                    shard.cond.wait(_POLL_S)

    def _spawn_locked(self, shard: _Shard, slot: int, span: Span | None) -> Replica | None:
        """Spawn one replica into ``slot`` (shard lock held)."""
        worker_id = next(self._worker_ids)
        respawn = shard.spawns[slot] > 0
        try:
            # distinct salt per spawned replica: a restarted shuffle
            # worker must not replay its predecessor's LFSR stream
            salt = self.serving.rng_seed + 7919 * (worker_id + 1)
            engines = EngineBank(self.serving.shuffle_m, salt, self.serving.engine)
            replica = self._spawn(shard.key, slot, worker_id, engines)
        except Exception as exc:
            self._fail_slot_locked(shard, slot, "spawn_failed")
            self._adopt_span(
                "serve.worker_restart",
                {"shard": str(shard.key), "outcome": "spawn_failed"},
                error=f"{type(exc).__name__}: {exc}",
                parent=span,
            )
            return None
        shard.replicas[slot] = replica
        shard.spawns[slot] += 1
        if respawn:
            shard.restarts += 1
            if _metrics.REGISTRY.enabled:
                _WORKER_RESTARTS.inc(shard=shard.label, reason="respawn")
            self._adopt_span(
                "serve.worker_restart",
                {
                    "shard": str(shard.key),
                    "worker_id": worker_id,
                    "replica": slot,
                    "restarts": shard.restarts,
                },
                parent=span,
            )
        return replica

    def _retire_locked(
        self, shard: _Shard, replica: Replica, reason: str, backoff: bool = True
    ) -> None:
        """Drop ``replica`` from its slot and count the failure (lock held).

        The caller kills the replica — outside the lock when it may
        still be running.
        """
        if shard.replicas[replica.slot] is replica:
            shard.replicas[replica.slot] = None
        replica.busy = False
        self._fail_slot_locked(shard, replica.slot, reason, backoff)
        shard.cond.notify_all()

    def _fail_slot_locked(
        self, shard: _Shard, slot: int, reason: str, backoff: bool = True
    ) -> None:
        """One slot failure: count the breaker, back off the respawn."""
        if backoff:
            shard.failures[slot] += 1
            shard.retry_at[slot] = _monotonic() + retry_backoff(
                shard.failures[slot],
                self.config.restart_backoff_s,
                cap=self.config.restart_backoff_max_s,
            )
        shard.breaker.record_failure()
        if _metrics.REGISTRY.enabled:
            _WORKER_RESTARTS.inc(shard=shard.label, reason=reason)

    def _on_worker_failure(
        self, shard: _Shard, replica: Replica, exc: Exception, span: Span | None
    ) -> None:
        """Retire a failed replica; a convicted one is quarantined first."""
        convicted = isinstance(exc, FaultDetectedError)
        evicted = replica.quarantine() if convicted else None
        reason = (
            "check_failure"
            if convicted
            else "stall"
            if isinstance(exc, WorkerStalledError)
            else "crash"
            if isinstance(exc, WorkerCrashedError)
            else "error"
        )
        with shard.cond:
            if convicted:
                shard.check_failures += 1
                if evicted is not None:
                    shard.quarantines += 1
            self._retire_locked(shard, replica, reason)
        replica.kill()
        if _metrics.REGISTRY.enabled:
            _FAILOVERS.inc(shard=shard.label)
            if evicted is not None:
                _QUARANTINES.inc(shard=shard.label)
        if convicted:
            self._note_check_failure(
                shard, exc, "worker", evicted=evicted or 0, parent=span
            )
        else:
            self._adopt_span(
                "serve.failover",
                {"shard": str(shard.key), "reason": reason},
                error=f"{type(exc).__name__}: {exc}",
                parent=span,
            )

    def _note_check_failure(
        self,
        shard: _Shard,
        exc: Exception,
        path: str,
        evicted: int = 0,
        parent: Span | None = None,
    ) -> None:
        kind = (
            "rank_oracle"
            if type(exc).__name__ == "SilentCorruptionError"
            else "bijectivity"
        )
        if _metrics.REGISTRY.enabled:
            _CHECK_FAILURES.inc(shard=shard.label, kind=kind)
        self._adopt_span(
            "serve.check_failure",
            {
                "shard": str(shard.key),
                "path": path,
                "kind": kind,
                "quarantined_kernels": evicted,
            },
            error=str(exc),
            parent=parent,
        )

    def _shard(self, key) -> _Shard:
        with self._lock:
            shard = self._shards.get(key)
            if shard is None:
                shard = self._shards[key] = _Shard(key, self.config, self.replicas)
            return shard

    def _all_shards(self) -> list[_Shard]:
        with self._lock:
            return list(self._shards.values())

    # ------------------------------------------------------------------ #
    # chaos, introspection, lifecycle

    def kill_worker(self, key=None) -> tuple | None:
        """Order one live replica to hard-crash (chaos hook).

        With ``key`` given, targets that shard; otherwise the first shard
        with a live replica.  Returns ``(key, replica slot)`` of the
        victim or ``None`` when no live replica exists.  The replica dies
        at its next read of its job queue or pipe — after the sweep it
        may be running — and the ladder must absorb it: retire, respawn,
        serve zero wrong results.  Returns once the victim is gone (or
        after one sweep deadline), so the next sweep finds a dead replica
        rather than racing its exit.
        """
        with self._lock:
            shards = (
                [self._shards[key]]
                if key is not None and key in self._shards
                else list(self._shards.values())
            )
        for shard in shards:
            with shard.cond:
                victim = next(
                    (
                        r
                        for r in shard.replicas
                        if r is not None and r.alive and r.send_crash()
                    ),
                    None,
                )
            if victim is not None:
                victim.join(self.config.sweep_deadline_s)
                return (shard.key, victim.slot)
        return None

    def worker_rows(self) -> list[dict]:
        """Per-replica liveness rows (the ``obs top`` worker table)."""
        rows = []
        for shard in self._all_shards():
            with shard.cond:
                for replica in shard.replicas:
                    if replica is None:
                        continue
                    rows.append(
                        {
                            "shard": shard.label,
                            "replica": replica.slot,
                            "pid": replica.pid,
                            "alive": replica.alive,
                            "busy": replica.busy,
                            "sweeps": replica.sweeps,
                            "cache_hits": replica.cache_hits,
                            "cache_misses": replica.cache_misses,
                            "restarts": shard.restarts,
                        }
                    )
        return rows

    def stats(self) -> dict:
        shards = {}
        for s in self._all_shards():
            with s.cond:
                alive = sum(1 for r in s.replicas if r is not None and r.alive)
                shards[str(s.key)] = {
                    "mode": self._mode_locked(s),
                    "breaker": s.breaker.state,
                    "fallback_breaker": s.fallback_breaker.state,
                    "breaker_trips": s.breaker.trips + s.fallback_breaker.trips,
                    "depth": s.depth,
                    "restarts": s.restarts,
                    "check_failures": s.check_failures,
                    "quarantines": s.quarantines,
                    "served": dict(s.served),
                    "worker_alive": alive > 0,
                    "workers_alive": alive,
                    "cache_hits": s.cache_hits,
                    "cache_misses": s.cache_misses,
                }
        totals = {
            name: sum(shard[name] for shard in shards.values())
            for name in (
                "restarts",
                "check_failures",
                "quarantines",
                "breaker_trips",
                "workers_alive",
                "cache_hits",
                "cache_misses",
            )
        }
        for rung in ("worker", "fallback"):
            totals[f"served_{rung}"] = sum(
                shard["served"][rung] for shard in shards.values()
            )
        return {"shards": shards, **totals}

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._all_shards():
            with shard.cond:
                victims = [r for r in shard.replicas if r is not None]
                shard.replicas = [None] * len(shard.replicas)
                shard.cond.notify_all()
            for replica in victims:
                replica.kill()

    # ------------------------------------------------------------------ #

    def _publish_breakers(self, shard: _Shard) -> None:
        if not _metrics.REGISTRY.enabled:
            return
        _BREAKER_STATE.set_enum(
            shard.breaker.state, BREAKER_STATES, shard=shard.label, path="worker"
        )
        _BREAKER_STATE.set_enum(
            shard.fallback_breaker.state,
            BREAKER_STATES,
            shard=shard.label,
            path="fallback",
        )

    def _adopt_span(
        self,
        name: str,
        attrs: dict,
        error: str | None = None,
        parent: Span | None = None,
    ) -> None:
        """One finished event-span: a child of ``parent``, else adopted.

        With a ``parent`` (the sampled batch span) the event joins that
        trace directly; without one — unsampled batch, or executor
        housekeeping outside any sweep — it becomes its own adopted root
        so the event is still never lost.
        """
        if parent is not None:
            parent.child(name, **attrs).end(
                "ok" if error is None else "error", error=error
            )
            return
        if self.tracer is None:
            return
        span = Span(name, attrs)
        span.end("ok" if error is None else "error", error=error)
        self.tracer.adopt(span)


class SweepSupervisor(ShardExecutor):
    """The executor over one in-thread replica (:class:`ShardWorker`) per shard."""

    # Its own ``__dict__`` entry: the traced benchmark patches ``execute``
    # per class, so supervised and pooled sweeps stay separate spans.
    execute = ShardExecutor.execute

    def __init__(self, config: SupervisorConfig | None, serving: ServiceConfig, **kwargs):
        super().__init__(config or SupervisorConfig(), serving, replicas=1, **kwargs)

    def _spawn(self, key, slot: int, worker_id: int, engines: EngineBank) -> ShardWorker:
        return ShardWorker(key, worker_id, engines.for_key(key), slot=slot)


# --------------------------------------------------------------------- #
# the services


class ExecutorService(PermutationService):
    """:class:`PermutationService` whose sweeps run through a shard executor.

    The admission/batching/caching hot path is inherited unchanged; only
    the seams differ — ``_run_sweep`` routes each closed batch through
    the executor's ladder instead of the in-process engine bank, and
    ``_degrade_gate`` consults the executor's admission gate (cache hits
    always serve; past cache-only, misses shed with
    :class:`~repro.errors.ServiceDegradedError`; past the sweep-depth
    limit, with :class:`~repro.errors.ServiceOverloadedError`).
    Subclasses name the executor's section of :meth:`stats` in
    ``stats_key``.
    """

    stats_key: str

    def __init__(self, config: ServiceConfig, executor: ShardExecutor, tracer=None):
        self._executor = executor
        super().__init__(config, tracer=tracer)

    def close(self) -> None:
        # order matters: the base close drains every queued and
        # in-flight batch first, so no replica is killed under a sweep
        super().close()
        self._executor.close()

    def stats(self) -> dict:
        stats = super().stats()
        stats[self.stats_key] = self._executor.stats()
        return stats

    def _degrade_gate(self, workload: str, key: tuple[str, int]) -> None:
        self._executor.admission_gate(key)

    def _run_sweep(self, batch, kind: str, n: int, span: Span | None = None):
        payload = batch.lanes if kind == "shuffle" else batch_indices(batch)
        return self._executor.execute(batch.key, payload, span)


class SupervisedService(ExecutorService):
    """The executor over one thread replica per shard, in-process."""

    stats_key = "supervisor"

    def __init__(
        self,
        config: ServiceConfig | None = None,
        supervisor: SupervisorConfig | None = None,
        chaos=None,
        tracer: Tracer | None = None,
    ):
        cfg = config or ServiceConfig()
        self.supervisor = SweepSupervisor(supervisor, cfg, chaos=chaos, tracer=tracer)
        super().__init__(cfg, self.supervisor, tracer=tracer)
