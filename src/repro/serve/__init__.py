"""Batch-serving layer over the compiled permutation engines.

This package turns the bit-packed compiled simulator into a
request-serving hot path: a typed request/response model
(:mod:`repro.serve.model`), a micro-batcher that coalesces concurrent
requests into packed sweep lanes (:mod:`repro.serve.batcher`), a bounded
LRU result cache (:mod:`repro.serve.cache`), admission control with
typed load-shedding, and the :class:`PermutationService` front end tying
them together (:mod:`repro.serve.service`).  A closed-loop synthetic
load generator (:mod:`repro.serve.loadgen`) drives it for the CLI
``serve`` subcommand and the serving benchmark.

On top of the single-process service sits one shard executor
(:mod:`repro.serve.supervisor`): per-``(kind, n)`` replicas with stall
detection, restart-with-backoff, circuit breakers and a
worker → fallback → cache-only degradation ladder, with every served
batch end-to-end oracle-checked.  It drives replicas over two
transports: one thread per shard (:class:`SupervisedService`) or
``workers`` processes per shard returning results through shared-memory
rings (:class:`PooledService`, :mod:`repro.serve.pool`).  The chaos
harness (:mod:`repro.serve.chaos`) injects crashes, stalls, delays and
payload corruption on a seeded schedule into either transport to prove
the ladder's invariants — no wrong permutation is ever served, killed
workers restart, availability holds a floor while degraded.  The
network tier (:mod:`repro.serve.net`) exposes the whole stack over a
length-prefixed binary TCP protocol (``repro-serve/1``).
"""

from repro.serve.batcher import Batch, MicroBatcher, PendingEntry
from repro.serve.cache import ResultCache
from repro.serve.chaos import (
    CHAOS_EVENTS,
    ChaosMonkey,
    ChaosSpec,
    SweepPlan,
    run_chaos_campaign,
)
from repro.serve.engine import ConverterEngine, EngineBank, ShuffleEngine
from repro.serve.loadgen import (
    LoadReport,
    percentile,
    run_closed_loop,
    run_socket_loadgen,
)
from repro.serve.model import (
    WORKLOADS,
    Request,
    Response,
    WideResponse,
    validate_request,
    validate_wide,
)
from repro.serve.net import NetServer, ServeConnection
from repro.serve.pool import PoolConfig, PooledService, WorkerPool
from repro.serve.service import CompletionFuture, PermutationService, ServiceConfig
from repro.serve.supervisor import (
    BREAKER_STATES,
    BreakerConfig,
    CircuitBreaker,
    FunctionalConverterEngine,
    ShardExecutor,
    ShardWorker,
    SupervisedService,
    SupervisorConfig,
    SweepSupervisor,
)

__all__ = [
    "WORKLOADS",
    "Request",
    "Response",
    "validate_request",
    "MicroBatcher",
    "Batch",
    "PendingEntry",
    "ResultCache",
    "ConverterEngine",
    "ShuffleEngine",
    "EngineBank",
    "CompletionFuture",
    "PermutationService",
    "ServiceConfig",
    "LoadReport",
    "run_closed_loop",
    "run_socket_loadgen",
    "percentile",
    "WideResponse",
    "validate_wide",
    "NetServer",
    "ServeConnection",
    "PoolConfig",
    "WorkerPool",
    "PooledService",
    "BREAKER_STATES",
    "BreakerConfig",
    "CircuitBreaker",
    "SupervisorConfig",
    "ShardExecutor",
    "ShardWorker",
    "FunctionalConverterEngine",
    "SweepSupervisor",
    "SupervisedService",
    "CHAOS_EVENTS",
    "ChaosSpec",
    "SweepPlan",
    "ChaosMonkey",
    "run_chaos_campaign",
]
