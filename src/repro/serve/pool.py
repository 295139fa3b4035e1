"""Multi-process serving: the process transport of the shard executor.

The supervised tier keeps its replicas in one process — worker "crashes"
are thread deaths, and every sweep still competes for the same GIL.
This module moves the sweep work into real worker **processes** so
sweeps for different shards (and replicas of the same shard) run on
separate cores.  The ladder itself — acquire, check, retire, backoff,
retry, fallback, breakers, admission — is
:class:`~repro.serve.supervisor.ShardExecutor`'s; this module supplies
the transport behind its replica seam:

* ``PoolConfig.workers`` replica **processes** per shard ``(kind, n)``.
  Each owns a private compiled-kernel engine, its ring slots sized to
  the service's ``max_batch`` lanes, plus a private
  :class:`~repro.serve.cache.ResultCache` for converter shards;
* a **control pipe** per replica carries tiny messages only: the sweep
  order (indices or lane count) down, ``(ok, job, rows, hits, misses)``
  back.  The permutation words themselves travel through a
  ``multiprocessing.shared_memory`` **ring buffer** — two sweep-sized
  slots per replica, written by the child as a NumPy view and copied
  out by the parent in one vectorised memcpy.  Result arrays are never
  pickled on the hot path;
* a dead pipe is a :class:`~repro.errors.WorkerCrashedError`, a blown
  sweep deadline a :class:`~repro.errors.WorkerStalledError`; a
  convicted replica has no parent-side kernel to evict — its
  replacement process recompiles from scratch, so quarantine is the
  respawn itself;
* **backpressure** is per shard: :meth:`WorkerPool.admission_gate`
  sheds with :class:`~repro.errors.ServiceOverloadedError` once the
  shard's in-flight sweeps reach ``queue_limit_sweeps`` — which the
  socket protocol surfaces as the ``OVERLOADED`` status.

:class:`PooledService` plugs the pool into the service's execution seam
and hands batch execution to a small thread pool: each in-flight batch
parks its executor thread in ``Connection.poll`` (releasing the GIL)
while a worker process sweeps, which is what lets ``--workers 4`` use
four cores from one front-end process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import WorkerCrashedError, WorkerStalledError
from repro.obs import metrics as _metrics
from repro.obs.tracing import Tracer
from repro.serve.cache import ResultCache
from repro.serve.engine import EngineBank
from repro.serve.service import PermutationService, ServiceConfig
from repro.serve.supervisor import (
    ExecutorService,
    Replica,
    ShardExecutor,
    SupervisorConfig,
)

__all__ = ["PoolConfig", "WorkerPool", "PooledService"]

#: Sweep-sized slots per replica ring.  Two suffice: a replica runs one
#: sweep at a time and the parent copies its slot out before release.
RING_SLOTS = 2

#: How long a freshly spawned worker may take to build its engine.
SPAWN_TIMEOUT_S = 60.0

#: Serialises replica forks across shards.  A child forked while another
#: spawn still holds both ends of its pipe (and of its process sentinel)
#: inherits them, and the parent then sees neither that replica's death
#: (no EOF; its sweep waits out the deadline) nor its exit (``join``
#: waits out its timeout) until the unrelated child exits too.
_FORK_LOCK = threading.Lock()


# --------------------------------------------------------------------- #
# configuration


@dataclass(frozen=True)
class PoolConfig(SupervisorConfig):
    """The ladder's knobs plus the process transport's.

    ``workers`` is the replica count per shard.  Workers sweep the
    service's engine; its ``max_batch`` sets how many lanes one sweep
    carries.  ``worker_cache_capacity`` sizes each converter worker's
    result cache (0 disables it).  ``queue_limit_sweeps`` bounds
    in-flight sweeps per shard before admission sheds (default
    ``4 × workers``).  Processes start by fork where the platform offers
    it (worker spawn in ~20 ms instead of re-importing the package) and
    by spawn elsewhere.
    """

    sweep_deadline_s: float = 10.0
    restart_backoff_s: float = 0.05
    workers: int = 2
    worker_cache_capacity: int = 4096
    queue_limit_sweeps: "int | None" = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.workers < 1:
            raise ValueError("workers must be positive")
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
    conn, shm_name: str, slot_lanes: int, key, engines: EngineBank, cache_capacity: int
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
      into ring slot ``job_id % RING_SLOTS``, reply
      ``("ok", job_id, rows, hits, misses)`` — or ``("err", job_id,
      type_name, detail)`` if the sweep raised;
    * ``("crash",)`` → ``os._exit(13)`` (the chaos harness's simulated
      hard crash — no cleanup, exactly like a segfault);
    * ``("stall", seconds)`` → sleep (the chaos harness's stuck kernel
      or jitter);
    * ``("stop",)`` / EOF → clean exit.
    """
    _metrics.REGISTRY.disable()
    # under fork the child inherits the parent's signal dispositions
    # (the CLI's listen mode remaps SIGTERM to a clean-drain raise);
    # reset to defaults so the executor's terminate() stays a kill
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
    kind, n = key
    ring = np.ndarray((RING_SLOTS, slot_lanes, n), dtype=np.int64, buffer=shm.buf)
    try:
        engine = engines.for_key(key)
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
                    ring[job_id % RING_SLOTS, :rows] = perms
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
# the process transport


class _WorkerProc(Replica):
    """One replica process: control pipe + private shared-memory ring.

    The parent creates the ring *before* spawning so both sides map the
    same segment; the child writes sweeps into slot ``job_id %
    RING_SLOTS`` and the parent copies the slot out (one vectorised
    memcpy) before the replica is released — so a slot is never
    overwritten while its rows are still being encoded.
    """

    def __init__(self, key, slot: int, worker_id: int, ctx, slot_lanes: int,
                 engines: EngineBank, cache_capacity: int):
        super().__init__(key, worker_id, slot)
        kind, n = key
        self._jobs = 0
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, RING_SLOTS * slot_lanes * n * 8)
        )
        self._ring = np.ndarray(
            (RING_SLOTS, slot_lanes, n), dtype=np.int64, buffer=self._shm.buf
        )
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._shm.name, slot_lanes, key, engines, cache_capacity),
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

    def run(self, payload, deadline_s: float, parent=None, plan=None) -> np.ndarray:
        """One sweep on this replica → ``(rows, n)`` rows (a fresh copy).

        A chaos ``plan`` travels down the pipe ahead of the sweep: a
        crash order, or a sleep the child serves before sweeping (a
        stall past the deadline, or jitter inside it).
        """
        rows = len(payload) if isinstance(payload, (list, tuple)) else int(payload)
        job_id = self._jobs
        self._jobs += 1
        try:
            if plan is not None and plan.event == "crash":
                self._conn.send(("crash",))
            elif plan is not None and plan.sleep_s:
                self._conn.send(("stall", plan.sleep_s))
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
        self.last_hits, self.last_misses = msg[3], msg[4]
        self.cache_hits += msg[3]
        self.cache_misses += msg[4]
        # the one parent-side copy: frees the ring slot for the next job
        # while the caller's response encodes asynchronously
        return self._ring[job_id % RING_SLOTS, :rows].copy()

    def send_crash(self) -> bool:
        """Chaos hook: order the child to die with ``os._exit`` (no cleanup)."""
        try:
            self._conn.send(("crash",))
            return True
        except (OSError, ValueError):
            return False

    def join(self, timeout_s: float) -> None:
        self._proc.join(timeout_s)

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


class WorkerPool(ShardExecutor):
    """The executor over ``workers`` replica processes per shard."""

    # Own ``__dict__`` entries: the traced benchmark patches these per
    # class, so pooled and supervised sweeps stay separate spans.
    execute = ShardExecutor.execute
    admission_gate = ShardExecutor.admission_gate

    def __init__(self, config: PoolConfig | None, serving: ServiceConfig, **kwargs):
        config = config or PoolConfig()
        super().__init__(
            config,
            serving,
            replicas=config.workers,
            sweep_limit=config.sweep_limit,
            **kwargs,
        )
        # ring slots carry one full sweep: the service's batch width
        self.slot_lanes = serving.max_batch
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )

    def _spawn(self, key, slot: int, worker_id: int, engines: EngineBank) -> _WorkerProc:
        with _FORK_LOCK:
            replica = _WorkerProc(
                key,
                slot,
                worker_id,
                self._ctx,
                self.slot_lanes,
                engines,
                self.config.worker_cache_capacity,
            )
        try:
            replica.wait_ready(SPAWN_TIMEOUT_S)
        except BaseException:
            replica.kill()  # release the process and its ring segment
            raise
        return replica


# --------------------------------------------------------------------- #
# the pooled service


class PooledService(ExecutorService):
    """:class:`PermutationService` swept by worker processes.

    Differs from :class:`~repro.serve.supervisor.SupervisedService` only
    in its executor — :class:`WorkerPool` — and in ``_execute``, which
    hands each batch to a small thread pool, so the submitting thread
    (or the asyncio front end behind it) returns as soon as the batch is
    enqueued while an executor thread parks in the worker pipe — with
    the GIL released — for the sweep.
    """

    stats_key = "pool"

    def __init__(
        self,
        config: ServiceConfig | None = None,
        pool: PoolConfig | None = None,
        tracer: Tracer | None = None,
        chaos=None,
    ):
        cfg = config or ServiceConfig()
        pool_cfg = pool or PoolConfig()
        self.pool = WorkerPool(pool_cfg, cfg, chaos=chaos, tracer=tracer)
        self._sweep_exec = ThreadPoolExecutor(
            max_workers=max(4, 2 * pool_cfg.workers),
            thread_name_prefix="serve-sweep",
        )
        super().__init__(cfg, self.pool, tracer=tracer)

    def _drain_executors(self) -> None:
        self._sweep_exec.shutdown(wait=True)

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
