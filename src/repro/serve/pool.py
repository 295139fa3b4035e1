"""Multi-process serving: shard worker processes + shared-memory rings.

The supervised tier (PR 6) keeps every rung of its degradation ladder in
one process — worker "crashes" are thread deaths, and every sweep still
competes for the same GIL.  This module moves the sweep work into real
worker **processes** so sweeps for different shards (and replicas of the
same shard) run on separate cores:

* one **shard group** per batch key ``(kind, n)``, holding
  ``PoolConfig.workers`` replica processes.  Each replica owns a private
  compiled-kernel engine, its ring slots sized to the service's
  ``max_batch`` lanes, plus a private
  :class:`~repro.serve.cache.ResultCache` for converter shards;
* a **control pipe** per replica carries tiny messages only: the sweep
  order (indices or lane count) down, ``(ok, job, rows, hits, misses)``
  back.  The permutation words themselves travel through a
  ``multiprocessing.shared_memory`` **ring buffer** — ``ring_slots``
  sweep-sized slots per replica, written by the child as a NumPy view
  and copied out by the parent in one vectorised memcpy.  Result arrays
  are never pickled on the hot path;
* **supervision** reuses the hardened map-reduce semantics
  (:func:`~repro.parallel.sharding.retry_backoff`): a dead pipe raises
  :class:`~repro.errors.WorkerCrashedError`, a blown sweep deadline
  :class:`~repro.errors.WorkerStalledError`, both retire the replica and
  schedule a respawn with exponential backoff while the sweep retries on
  another replica.  Each group runs the supervised tier's breaker
  ladder — worker rung, checked in-process fallback rung, cache-only —
  so a pool-wide outage degrades exactly like the single-process tier;
* **backpressure** is per shard: every in-flight sweep counts against
  the group's depth (the ``repro_serve_pool_queue_depth`` gauge), and
  :meth:`WorkerPool.admission_gate` sheds new requests with
  :class:`~repro.errors.ServiceOverloadedError` once the depth reaches
  ``queue_limit_sweeps`` — which the socket protocol surfaces as the
  ``OVERLOADED`` status.

Every worker-produced **and** fallback-produced batch is oracle-checked
(:func:`~repro.robustness.checkers.check_served_batch`) before any
future resolves, and a convicted replica is retired — its replacement
process recompiles the kernel from scratch, so quarantine is the respawn
itself.

:class:`PooledService` plugs the pool into the service's execution seam
and hands batch execution to a small thread pool: each in-flight batch
parks its executor thread in ``Connection.poll`` (releasing the GIL)
while a worker process sweeps, which is what lets ``--workers 4`` use
four cores from one front-end process.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.errors import (
    FaultDetectedError,
    ServiceDegradedError,
    ServiceOverloadedError,
    WorkerCrashedError,
    WorkerStalledError,
)
from repro.obs import metrics as _metrics
from repro.obs.tracing import Tracer
from repro.parallel.sharding import retry_backoff
from repro.robustness.checkers import check_served_batch
from repro.serve.cache import ResultCache
from repro.serve.engine import ConverterEngine, ShuffleEngine
from repro.serve.service import PermutationService, ServiceConfig, batch_indices
from repro.serve.supervisor import (
    BreakerConfig,
    CircuitBreaker,
    FunctionalConverterEngine,
)

__all__ = ["PoolConfig", "WorkerPool", "PooledService"]

# Injectable clock seam (monotonic), as everywhere else in the repo.
_monotonic = time.monotonic

_POOL_DEPTH = _metrics.REGISTRY.gauge(
    "repro_serve_pool_queue_depth",
    "in-flight sweeps per shard group (pool backpressure signal)",
    ("shard",),
)
_POOL_WORKERS = _metrics.REGISTRY.gauge(
    "repro_serve_pool_workers",
    "live worker processes per shard group",
    ("shard",),
)
_POOL_SWEEPS = _metrics.REGISTRY.counter(
    "repro_serve_pool_sweeps_total",
    "pool sweeps by shard and serving rung",
    ("shard", "rung"),
)
_POOL_RESTARTS = _metrics.REGISTRY.counter(
    "repro_serve_pool_restarts_total",
    "worker-process retirements by shard and reason",
    ("shard", "reason"),
)
_POOL_CACHE = _metrics.REGISTRY.counter(
    "repro_serve_pool_cache_total",
    "worker-side result-cache lookups by shard and result",
    ("shard", "result"),
)
_POOL_WORKER_SWEEPS = _metrics.REGISTRY.counter(
    "repro_serve_pool_worker_sweeps_total",
    "sweeps served per worker replica",
    ("shard", "replica"),
)


# --------------------------------------------------------------------- #
# configuration


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs for :class:`WorkerPool`.

    ``workers`` is the replica count per shard group.  Workers always
    sweep the compiled kernel; the service's ``max_batch`` sets how many
    lanes one sweep carries.  ``ring_slots`` sizes the shared-memory
    result ring (slots × one full sweep each).  ``queue_limit_sweeps``
    bounds in-flight sweeps per shard before admission sheds (default
    ``4 × workers``).  ``start_method`` picks the multiprocessing start
    method; ``None`` means fork where the platform offers it (worker
    spawn in ~20 ms instead of re-importing the package) and spawn
    elsewhere.  Restart backoff and the two breakers mirror the
    supervised tier; ``check`` enables the per-response oracle.
    """

    workers: int = 2
    sweep_deadline_s: float = 10.0
    spawn_timeout_s: float = 60.0
    restart_backoff_s: float = 0.05
    restart_backoff_max_s: float = 1.0
    retries: int = 2
    ring_slots: int = 2
    worker_cache_capacity: int = 4096
    queue_limit_sweeps: "int | None" = None
    start_method: "str | None" = None
    check: bool = True
    fallback: bool = True
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    fallback_breaker: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(failure_threshold=2, recovery_s=0.5)
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.sweep_deadline_s <= 0 or self.spawn_timeout_s <= 0:
            raise ValueError("deadlines must be positive")
        if self.restart_backoff_s < 0 or self.restart_backoff_max_s < 0:
            raise ValueError("restart backoffs must be non-negative")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.ring_slots < 1:
            raise ValueError("ring_slots must be positive")
        if self.queue_limit_sweeps is not None and self.queue_limit_sweeps < 1:
            raise ValueError("queue_limit_sweeps must be positive")

    @property
    def sweep_limit(self) -> int:
        return (
            self.queue_limit_sweeps
            if self.queue_limit_sweeps is not None
            else 4 * self.workers
        )


# --------------------------------------------------------------------- #
# the worker process


def _worker_main(
    conn,
    shm_name: str,
    slots: int,
    slot_lanes: int,
    kind: str,
    n: int,
    cache_capacity: int,
    shuffle_m: int,
    seed_salt: int,
) -> None:
    """Worker-process entry point: build one engine, sweep forever.

    The child's first act is disabling the (inherited, under fork) global
    metrics registry — worker-side observability flows back over the
    control pipe as plain counts, never through a forked registry whose
    series nobody will ever scrape.  The engine is built eagerly so a
    failed kernel compile surfaces as a failed spawn in the parent, not
    as a broken first sweep.

    Protocol (all tiny tuples; permutation words go through the ring):

    * ``("sweep", job_id, payload)`` → write the ``(rows, n)`` result
      into ring slot ``job_id % slots``, reply
      ``("ok", job_id, rows, hits, misses)`` — or ``("err", job_id,
      type_name, detail)`` if the sweep raised;
    * ``("crash",)`` → ``os._exit(13)`` (the chaos harness's simulated
      hard crash — no cleanup, exactly like a segfault);
    * ``("stall", seconds)`` → sleep (simulated stuck kernel);
    * ``("stop",)`` / EOF → clean exit.
    """
    _metrics.REGISTRY.disable()
    # under fork the child inherits the parent's signal dispositions
    # (the CLI's listen mode remaps SIGTERM to a clean-drain raise);
    # reset to defaults so the supervisor's terminate() stays a kill
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        shm = shared_memory.SharedMemory(name=shm_name, track=False)
    except TypeError:
        # Python < 3.13 has no ``track`` flag and registers every attach
        # with the resource tracker — which the parent (who owns the
        # segment) already did, so the duplicate would make the tracker
        # unlink or double-unregister the ring.  Suppress registration
        # for just this attach instead.
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: (
            None if rtype == "shared_memory" else orig_register(name, rtype)
        )
        try:
            shm = shared_memory.SharedMemory(name=shm_name)
        finally:
            resource_tracker.register = orig_register
    ring = np.ndarray((slots, slot_lanes, n), dtype=np.int64, buffer=shm.buf)
    cache: ResultCache | None = None
    try:
        if kind == "shuffle":
            engine = ShuffleEngine(n, m=shuffle_m, seed_salt=seed_salt)
        else:
            engine = ConverterEngine(n)
            cache = ResultCache(cache_capacity)
        conn.send(("ready", os.getpid()))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            tag = msg[0]
            if tag == "sweep":
                _, job_id, payload = msg
                try:
                    hits = misses = 0
                    if kind == "shuffle":
                        rows = int(payload)
                        perms = engine.run(rows)
                    else:
                        rows = len(payload)
                        perms, hits, misses = _cached_convert(
                            engine, cache, payload, n
                        )
                    ring[job_id % slots, :rows] = perms
                    conn.send(("ok", job_id, rows, hits, misses))
                except Exception as exc:  # noqa: BLE001 - reported upstream
                    conn.send(("err", job_id, type(exc).__name__, str(exc)))
            elif tag == "crash":
                os._exit(13)
            elif tag == "stall":
                time.sleep(float(msg[1]))
            elif tag == "stop":
                return
    finally:
        shm.close()


def _cached_convert(engine, cache, indices, n: int):
    """Converter sweep through the worker-side cache → ``(perms, h, m)``."""
    out = np.empty((len(indices), n), dtype=np.int64)
    missing: list[int] = []
    missing_pos: list[int] = []
    for pos, idx in enumerate(indices):
        row = cache.get(idx)
        if row is None:
            missing.append(idx)
            missing_pos.append(pos)
        else:
            out[pos] = row
    if missing:
        computed = engine.run(missing)
        for j, pos in enumerate(missing_pos):
            out[pos] = computed[j]
            # row copies: the cache must outlive this sweep's array
            cache.put(missing[j], computed[j].copy())
    return out, len(indices) - len(missing), len(missing)


# --------------------------------------------------------------------- #
# parent-side replica handle


class _WorkerProc:
    """One replica process: control pipe + private shared-memory ring.

    The parent creates the ring *before* spawning so both sides map the
    same segment; the child writes sweeps into slot ``job_id % slots``
    and the parent copies the slot out (one vectorised memcpy) before
    the replica is released — so a slot is never overwritten while its
    rows are still being encoded.
    """

    def __init__(self, key, replica: int, worker_id: int, ctx, config: PoolConfig,
                 slot_lanes: int, shuffle_m: int, seed_salt: int):
        kind, n = key
        self.key = key
        self.replica = replica
        self.worker_id = worker_id
        self.busy = False
        self.pid: int | None = None
        self.sweeps = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.last_hits = 0
        self.last_misses = 0
        self._jobs = 0
        self._slots = config.ring_slots
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, config.ring_slots * slot_lanes * n * 8)
        )
        self._ring = np.ndarray(
            (config.ring_slots, slot_lanes, n), dtype=np.int64, buffer=self._shm.buf
        )
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._shm.name,
                config.ring_slots,
                slot_lanes,
                kind,
                n,
                config.worker_cache_capacity,
                shuffle_m,
                seed_salt,
            ),
            name=f"serve-pool-{kind}-{n}-{worker_id}",
            daemon=True,
        )
        self._proc.start()
        child_conn.close()
        self._dead = False

    # ------------------------------------------------------------------ #

    def wait_ready(self, timeout_s: float) -> None:
        """Block until the child reports its engine built (or fail typed)."""
        try:
            if not self._conn.poll(timeout_s):
                raise WorkerStalledError(
                    f"worker for shard {self.key} failed to become ready "
                    f"within {timeout_s:g}s"
                )
            msg = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashedError(
                f"worker for shard {self.key} died during spawn"
            ) from exc
        if msg[0] != "ready":
            raise WorkerCrashedError(
                f"worker for shard {self.key} spoke out of turn: {msg[0]!r}"
            )
        self.pid = msg[1]

    @property
    def alive(self) -> bool:
        return not self._dead and self._proc.is_alive()

    def sweep(self, payload, rows: int, deadline_s: float) -> np.ndarray:
        """One sweep on this replica → ``(rows, n)`` rows (a fresh copy)."""
        job_id = self._jobs
        self._jobs += 1
        try:
            self._conn.send(("sweep", job_id, payload))
            if not self._conn.poll(deadline_s):
                raise WorkerStalledError(
                    f"worker {self.worker_id} for shard {self.key} missed its "
                    f"{deadline_s:g}s sweep deadline (stall detected)"
                )
            msg = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashedError(
                f"worker {self.worker_id} for shard {self.key} died mid-sweep"
            ) from exc
        if msg[0] == "err":
            raise RuntimeError(f"worker sweep failed: {msg[2]}: {msg[3]}")
        if msg[0] != "ok" or msg[1] != job_id or msg[2] != rows:
            raise WorkerCrashedError(
                f"worker {self.worker_id} for shard {self.key} desynchronised "
                f"(got {msg[:3]!r}, expected ('ok', {job_id}, {rows}))"
            )
        self.sweeps += 1
        self.last_hits, self.last_misses = msg[3], msg[4]
        self.cache_hits += msg[3]
        self.cache_misses += msg[4]
        # the one parent-side copy: frees the ring slot for the next job
        # while the caller's response encodes asynchronously
        return self._ring[job_id % self._slots, :rows].copy()

    def send_crash(self) -> bool:
        """Chaos hook: order the child to die with ``os._exit`` (no cleanup)."""
        try:
            self._conn.send(("crash",))
            return True
        except (OSError, ValueError):
            return False

    def kill(self) -> None:
        self._dead = True
        try:
            self._conn.close()
        except OSError:
            pass
        self._proc.terminate()
        self._proc.join(timeout=5.0)
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass


# --------------------------------------------------------------------- #
# shard groups


class _ShardGroup:
    """Pool-side state for one ``(kind, n)`` shard group."""

    __slots__ = (
        "key",
        "label",
        "cond",
        "replicas",
        "retry_at",
        "failures",
        "slot_spawns",
        "restarts",
        "depth",
        "breaker",
        "fallback_breaker",
        "fallback_engine",
        "fallback_lock",
        "served",
        "retired",
    )

    def __init__(self, key, config: PoolConfig):
        self.key = key
        self.label = f"{key[0]}:{key[1]}"
        self.cond = threading.Condition()
        self.replicas: list[_WorkerProc | None] = [None] * config.workers
        self.retry_at = [0.0] * config.workers
        self.failures = [0] * config.workers
        self.slot_spawns = [0] * config.workers
        self.restarts = 0
        self.depth = 0
        self.breaker = CircuitBreaker(config.breaker)
        self.fallback_breaker = CircuitBreaker(config.fallback_breaker)
        self.fallback_engine = None
        self.fallback_lock = threading.Lock()
        self.served = {"worker": 0, "fallback": 0}
        self.retired: list[_WorkerProc] = []  # keeps stats of dead replicas


class WorkerPool:
    """Shard-group process pool with shared-memory result transport."""

    def __init__(
        self,
        config: PoolConfig | None = None,
        *,
        slot_lanes: int,
        shuffle_m: int = 31,
        rng_seed: int = 0,
    ):
        self.config = config or PoolConfig()
        self.slot_lanes = slot_lanes
        self.shuffle_m = shuffle_m
        self.rng_seed = rng_seed
        self._ctx = self._resolve_ctx(self.config.start_method)
        self._lock = threading.Lock()
        self._groups: dict[tuple, _ShardGroup] = {}
        self._worker_ids = itertools.count()
        self._closed = False

    @staticmethod
    def _resolve_ctx(start_method: str | None):
        if start_method is not None:
            return multiprocessing.get_context(start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # ------------------------------------------------------------------ #
    # admission

    def admission_gate(self, key) -> None:
        """Per-shard backpressure + degradation veto (lock-free healthy path).

        Raises :class:`~repro.errors.ServiceOverloadedError` once the
        shard's in-flight sweep depth reaches the limit — the wire
        protocol's ``OVERLOADED`` — and
        :class:`~repro.errors.ServiceDegradedError` when both the worker
        and fallback breakers are open (cache-only mode).  A shard
        nobody has used yet admits unconditionally.
        """
        group = self._groups.get(key)
        if group is None:
            return
        depth = group.depth  # GIL-atomic read; execute re-checks nothing —
        # depth overshoot by a racing request is one sweep, not a leak
        limit = self.config.sweep_limit
        if depth >= limit:
            raise ServiceOverloadedError(
                f"shard {key} has {depth} sweeps in flight (limit {limit}); "
                "request shed",
                queue_depth=depth,
                limit=limit,
            )
        if group.breaker._opened_at is None:
            return  # healthy fast path: one dict read + two attribute reads
        with group.cond:
            if group.breaker.allow():
                return
            if self.config.fallback and group.fallback_breaker.allow():
                return
        raise ServiceDegradedError(
            f"shard {key} is degraded to cache-only mode; request shed",
            mode="cache_only",
            shard=key,
        )

    # ------------------------------------------------------------------ #
    # execution

    def execute(self, key, payload, rows: int, span=None):
        """One sweep through the shard's ladder → ``(perms, mode)``.

        ``payload`` is the index list (converter) or lane count
        (shuffle); ``rows`` the expected result rows.  Worker failures
        retire the replica (respawn with backoff) and retry on another,
        up to ``retries`` extra attempts; past the worker rung the sweep
        runs on the checked in-process fallback; past that it raises
        :class:`~repro.errors.ServiceDegradedError` — never a wrong
        result.
        """
        metrics_on = _metrics.REGISTRY.enabled
        group = self._group(key)
        indices = payload if isinstance(payload, (list, tuple)) else None
        with group.cond:
            group.depth += 1
            if metrics_on:
                _POOL_DEPTH.set(group.depth, shard=group.label)
        try:
            attempts = 0
            while attempts <= self.config.retries:
                attempts += 1
                worker = self._acquire(group)
                if worker is None:
                    break
                attempt_span = (
                    span.child(
                        "serve.pool_sweep",
                        shard=group.label,
                        replica=worker.replica,
                        pid=worker.pid,
                    )
                    if span is not None
                    else None
                )
                try:
                    perms = worker.sweep(
                        payload, rows, self.config.sweep_deadline_s
                    )
                    if self.config.check:
                        check_served_batch(perms, indices)
                except FaultDetectedError as exc:
                    if attempt_span is not None:
                        attempt_span.end("error", error=str(exc))
                    self._retire(group, worker, "check_failure")
                except (WorkerCrashedError, WorkerStalledError) as exc:
                    reason = (
                        "stall" if isinstance(exc, WorkerStalledError) else "crash"
                    )
                    if attempt_span is not None:
                        attempt_span.end("error", error=str(exc))
                    self._retire(group, worker, reason)
                except Exception as exc:
                    if attempt_span is not None:
                        attempt_span.end("error", error=str(exc))
                    self._release(group, worker, failed=True)
                else:
                    if attempt_span is not None:
                        attempt_span.end("ok")
                    self._release(group, worker, failed=False)
                    if metrics_on:
                        _POOL_SWEEPS.inc(shard=group.label, rung="worker")
                        _POOL_WORKER_SWEEPS.inc(
                            shard=group.label, replica=str(worker.replica)
                        )
                        if indices is not None:
                            if worker.last_hits:
                                _POOL_CACHE.inc(
                                    worker.last_hits,
                                    shard=group.label,
                                    result="hit",
                                )
                            if worker.last_misses:
                                _POOL_CACHE.inc(
                                    worker.last_misses,
                                    shard=group.label,
                                    result="miss",
                                )
                    with group.cond:
                        group.served["worker"] += 1
                    return perms, "worker"
            perms = self._run_fallback(group, payload, rows, indices, span)
            if metrics_on:
                _POOL_SWEEPS.inc(shard=group.label, rung="fallback")
            with group.cond:
                group.served["fallback"] += 1
            return perms, "fallback"
        finally:
            with group.cond:
                group.depth -= 1
                if metrics_on:
                    _POOL_DEPTH.set(group.depth, shard=group.label)
                group.cond.notify_all()

    def _run_fallback(self, group, payload, rows, indices, span=None):
        """The checked in-process rung; raises past it."""
        with group.cond:
            allowed = (
                self.config.fallback
                and not self._closed
                and group.fallback_breaker.allow()
            )
            if allowed and group.fallback_engine is None:
                kind, n = group.key
                group.fallback_engine = (
                    ShuffleEngine(
                        n,
                        m=self.shuffle_m,
                        seed_salt=self.rng_seed + 104729,
                    )
                    if kind == "shuffle"
                    else FunctionalConverterEngine(n)
                )
            engine = group.fallback_engine
        if allowed:
            fspan = (
                span.child("serve.pool_fallback", shard=group.label)
                if span is not None
                else None
            )
            try:
                # the shuffle fallback advances LFSR state per sweep and
                # the functional converter is stateless; one lock covers
                # both without contention (fallback is the cold rung)
                with group.fallback_lock:
                    perms = engine.run(payload)
                if self.config.check:
                    check_served_batch(perms, indices)
            except Exception as exc:  # noqa: BLE001 - breaker accounting
                if fspan is not None:
                    fspan.end("error", error=f"{type(exc).__name__}: {exc}")
                with group.cond:
                    group.fallback_breaker.record_failure()
            else:
                if fspan is not None:
                    fspan.end("ok")
                with group.cond:
                    group.fallback_breaker.record_success()
                return perms
        raise ServiceDegradedError(
            f"shard {group.key} is degraded to cache-only mode "
            "(worker and fallback rungs unavailable)",
            mode="cache_only",
            shard=group.key,
        )

    # ------------------------------------------------------------------ #
    # replica management

    def _acquire(self, group: _ShardGroup) -> _WorkerProc | None:
        """An idle live replica (marked busy) — spawning one if a slot is
        free and past its backoff — or ``None`` when the worker rung is
        unavailable (breaker open, pool closed, every replica stuck past
        the sweep deadline)."""
        end = _monotonic() + self.config.sweep_deadline_s
        with group.cond:
            while True:
                if self._closed or not group.breaker.allow():
                    return None
                spawn_slot = None
                now = _monotonic()
                for slot, worker in enumerate(group.replicas):
                    if worker is None:
                        if spawn_slot is None and now >= group.retry_at[slot]:
                            spawn_slot = slot
                        continue
                    if worker.busy:
                        continue
                    if not worker.alive:
                        # found dead while idle (chaos kill between
                        # sweeps): retire in place and keep scanning.
                        # kill() here is immediate — the process is
                        # already gone — and releases its ring segment
                        self._retire_locked(group, slot, worker, "crash")
                        worker.kill()
                        if spawn_slot is None and _monotonic() >= group.retry_at[slot]:
                            spawn_slot = slot
                        continue
                    worker.busy = True
                    return worker
                if spawn_slot is not None:
                    worker = self._spawn_locked(group, spawn_slot)
                    if worker is not None:
                        worker.busy = True
                        return worker
                    continue  # spawn failed: backoff was scheduled, rescan
                left = end - _monotonic()
                if left <= 0:
                    return None
                group.cond.wait(timeout=min(left, 0.05))

    def _spawn_locked(self, group: _ShardGroup, slot: int) -> _WorkerProc | None:
        """Spawn one replica into ``slot`` (group lock held)."""
        worker_id = next(self._worker_ids)
        respawn = group.slot_spawns[slot] > 0
        try:
            worker = _WorkerProc(
                group.key,
                slot,
                worker_id,
                self._ctx,
                self.config,
                self.slot_lanes,
                self.shuffle_m,
                # distinct salt per spawned shuffle worker: a restarted
                # replica must not replay its predecessor's LFSR stream
                self.rng_seed + 7919 * (worker_id + 1),
            )
            worker.wait_ready(self.config.spawn_timeout_s)
        except Exception:
            group.failures[slot] += 1
            group.retry_at[slot] = _monotonic() + retry_backoff(
                group.failures[slot],
                self.config.restart_backoff_s,
                cap=self.config.restart_backoff_max_s,
            )
            group.breaker.record_failure()
            if _metrics.REGISTRY.enabled:
                _POOL_RESTARTS.inc(shard=group.label, reason="spawn_failed")
            return None
        group.replicas[slot] = worker
        group.slot_spawns[slot] += 1
        if respawn:
            group.restarts += 1
            if _metrics.REGISTRY.enabled:
                _POOL_RESTARTS.inc(shard=group.label, reason="respawn")
        if _metrics.REGISTRY.enabled:
            _POOL_WORKERS.set(
                sum(1 for w in group.replicas if w is not None and w.alive),
                shard=group.label,
            )
        return worker

    def _release(self, group: _ShardGroup, worker: _WorkerProc, failed: bool) -> None:
        with group.cond:
            worker.busy = False
            if failed:
                group.breaker.record_failure()
            else:
                group.breaker.record_success()
                group.failures[worker.replica] = 0
            group.cond.notify_all()

    def _retire(self, group: _ShardGroup, worker: _WorkerProc, reason: str) -> None:
        """Retire a failed replica: backoff its slot, kill the process."""
        with group.cond:
            self._retire_locked(group, worker.replica, worker, reason)
            group.cond.notify_all()
        worker.kill()

    def _retire_locked(
        self, group: _ShardGroup, slot: int, worker: _WorkerProc, reason: str
    ) -> None:
        if group.replicas[slot] is worker:
            group.replicas[slot] = None
        worker.busy = False
        group.retired.append(worker)
        group.failures[slot] += 1
        group.retry_at[slot] = _monotonic() + retry_backoff(
            group.failures[slot],
            self.config.restart_backoff_s,
            cap=self.config.restart_backoff_max_s,
        )
        group.breaker.record_failure()
        if _metrics.REGISTRY.enabled:
            _POOL_RESTARTS.inc(shard=group.label, reason=reason)
            _POOL_WORKERS.set(
                sum(1 for w in group.replicas if w is not None and w.alive),
                shard=group.label,
            )

    def _group(self, key) -> _ShardGroup:
        with self._lock:
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _ShardGroup(key, self.config)
            return group

    # ------------------------------------------------------------------ #
    # chaos

    def kill_worker(self, key=None) -> tuple | None:
        """Order one live worker process to hard-crash (chaos hook).

        With ``key`` given, targets that shard group; otherwise the
        first group with a live replica.  Returns ``(key, replica)`` of
        the victim or ``None`` when no live worker exists.  The child
        dies via ``os._exit`` at its next pipe read — mid-sweep or idle —
        and the supervision path must absorb it: retire, respawn with
        backoff, retry the sweep elsewhere, serve zero wrong results.
        """
        with self._lock:
            groups = (
                [self._groups[key]]
                if key is not None and key in self._groups
                else list(self._groups.values())
            )
        for group in groups:
            with group.cond:
                for worker in group.replicas:
                    if worker is not None and worker.alive:
                        if worker.send_crash():
                            return (group.key, worker.replica)
        return None

    # ------------------------------------------------------------------ #
    # introspection / lifecycle

    def worker_rows(self) -> list[dict]:
        """Per-replica liveness rows (the ``obs top`` worker table)."""
        rows = []
        with self._lock:
            groups = list(self._groups.values())
        for group in groups:
            with group.cond:
                for slot, worker in enumerate(group.replicas):
                    if worker is None:
                        continue
                    rows.append(
                        {
                            "shard": group.label,
                            "replica": slot,
                            "pid": worker.pid,
                            "alive": worker.alive,
                            "busy": worker.busy,
                            "sweeps": worker.sweeps,
                            "cache_hits": worker.cache_hits,
                            "cache_misses": worker.cache_misses,
                            "restarts": group.restarts,
                        }
                    )
        return rows

    def stats(self) -> dict:
        with self._lock:
            groups = list(self._groups.items())
        shards = {}
        totals = {
            "restarts": 0,
            "served_worker": 0,
            "served_fallback": 0,
            "workers_alive": 0,
            "cache_hits": 0,
            "cache_misses": 0,
        }
        for key, group in groups:
            with group.cond:
                live = [w for w in group.replicas if w is not None]
                everyone = live + group.retired
                alive = sum(1 for w in live if w.alive)
                hits = sum(w.cache_hits for w in everyone)
                misses = sum(w.cache_misses for w in everyone)
                shards[str(key)] = {
                    "workers_alive": alive,
                    "depth": group.depth,
                    "restarts": group.restarts,
                    "served": dict(group.served),
                    "breaker": group.breaker.state,
                    "fallback_breaker": group.fallback_breaker.state,
                    "cache_hits": hits,
                    "cache_misses": misses,
                }
                totals["restarts"] += group.restarts
                totals["served_worker"] += group.served["worker"]
                totals["served_fallback"] += group.served["fallback"]
                totals["workers_alive"] += alive
                totals["cache_hits"] += hits
                totals["cache_misses"] += misses
        return {"shards": shards, **totals}

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            groups = list(self._groups.values())
        for group in groups:
            with group.cond:
                workers = [w for w in group.replicas if w is not None]
                group.replicas = [None] * len(group.replicas)
                group.cond.notify_all()
            for worker in workers:
                group.retired.append(worker)
                worker.kill()


# --------------------------------------------------------------------- #
# the pooled service


class PooledService(PermutationService):
    """:class:`PermutationService` swept by worker processes.

    The admission/batching/caching hot path is inherited; the seams
    change as follows:

    * ``_run_sweep`` routes each closed batch to the
      :class:`WorkerPool` — the sweep happens in a worker process, the
      result comes back through shared memory;
    * ``_execute`` hands the batch to a small thread pool, so the
      submitting thread (or the asyncio front end behind it) returns as
      soon as the batch is enqueued while an executor thread parks in
      the worker pipe — with the GIL released — for the sweep;
    * ``_degrade_gate`` consults the pool: per-shard sweep-depth
      backpressure sheds with ``ServiceOverloadedError``, a fully-open
      breaker ladder sheds misses with ``ServiceDegradedError``.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        pool: PoolConfig | None = None,
        tracer: Tracer | None = None,
    ):
        cfg = config or ServiceConfig()
        pool_cfg = pool or PoolConfig()
        self.pool = WorkerPool(
            pool_cfg,
            slot_lanes=cfg.max_batch,
            shuffle_m=cfg.shuffle_m,
            rng_seed=cfg.rng_seed,
        )
        self._sweep_exec = ThreadPoolExecutor(
            max_workers=max(4, 2 * pool_cfg.workers),
            thread_name_prefix="serve-sweep",
        )
        super().__init__(cfg, tracer=tracer)

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        # order matters: the base close drains the dispatcher and then
        # _drain_executors waits for every in-flight sweep, so no worker
        # is killed under a live sweep
        super().close()
        self.pool.close()

    def stats(self) -> dict:
        stats = super().stats()
        stats["pool"] = self.pool.stats()
        return stats

    # ------------------------------------------------------------------ #
    # the seams

    def _degrade_gate(self, workload: str, key: tuple[str, int]) -> None:
        self.pool.admission_gate(key)

    def _drain_executors(self) -> None:
        self._sweep_exec.shutdown(wait=True)

    def _run_sweep(self, batch, kind: str, n: int, span=None):
        payload = batch.lanes if kind == "shuffle" else batch_indices(batch)
        return self.pool.execute(batch.key, payload, batch.lanes, span)

    def _execute(self, batch) -> None:
        try:
            self._sweep_exec.submit(self._execute_now, batch)
        except RuntimeError:
            # executor already shut down (close raced a straggler batch):
            # run inline so the entries' futures still settle
            self._execute_now(batch)

    def _execute_now(self, batch) -> None:
        try:
            PermutationService._execute(self, batch)
        except BaseException as exc:  # pragma: no cover - belt: never hang
            with self._cond:
                for e in batch.entries:
                    if not e.future.done():
                        e.future._finish(None, exc)
                self._cond.notify_all()
            raise
