"""Process-parallel versions of the heavy experiments.

Each runner is bit-identical to its sequential counterpart for any worker
count — the shard boundaries, per-shard generator states (via LFSR
jump-ahead) and shard-ordered reduction guarantee it.  Worker functions
are module-level so they pickle.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.analysis.derangements import DerangementResult, derangement_mask
from repro.analysis.distribution import permutation_histogram
from repro.apps.bdd import bdd_size_under_order
from repro.apps.pclass import p_representative
from repro.core.factorial import factorial
from repro.core.knuth import KnuthShuffleCircuit
from repro.core.lehmer import unrank_batch
from repro.parallel.sharding import ShardSpec, hardened_map_reduce, index_shards

__all__ = [
    "parallel_fig4_counts",
    "parallel_derangements",
    "parallel_best_order",
    "parallel_classify",
]


# --------------------------------------------------------------------- #
# Fig. 4 / derangements: Monte-Carlo over jump-ahead shuffle streams


@dataclass(frozen=True)
class _MCJob:
    n: int
    m: int

    def circuit_at(self, offset: int) -> KnuthShuffleCircuit:
        circuit = KnuthShuffleCircuit(self.n, m=self.m)
        for gen in circuit.generators:
            gen.lfsr.jump(offset)
        return circuit


def parallel_fig4_counts(
    n: int = 4, samples: int = 1 << 20, m: int = 31, workers: int = 4
) -> np.ndarray:
    """The Fig.-4 histogram, sharded over jump-ahead substreams.

    Identical to the histogram of ``KnuthShuffleCircuit(n, m).sample
    (samples)`` regardless of ``workers``: worker ``w`` jumps every stage
    LFSR to the exact draw offset where its shard begins.
    """
    shards = index_shards(samples, workers)
    return hardened_map_reduce(
        _Fig4Work(_MCJob(n=n, m=m)), shards, _add_arrays, workers=workers, retries=0
    )


class _Fig4Work:
    """Picklable callable carrying the job spec (works under spawn)."""

    def __init__(self, job: _MCJob):
        self.job = job

    def __call__(self, shard: ShardSpec) -> np.ndarray:
        circuit = self.job.circuit_at(shard.start)
        perms = circuit.sample(shard.size)
        return permutation_histogram(perms)


def _add_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


class _DerangementWork:
    def __init__(self, job: _MCJob):
        self.job = job

    def __call__(self, shard: ShardSpec) -> int:
        circuit = self.job.circuit_at(shard.start)
        return int(derangement_mask(circuit.sample(shard.size)).sum())


def parallel_derangements(
    n: int, samples: int = 1 << 20, m: int = 31, workers: int = 4
) -> DerangementResult:
    """§III-C derangement counting over process shards (bit-exact)."""
    shards = index_shards(samples, workers)
    count = hardened_map_reduce(
        _DerangementWork(_MCJob(n=n, m=m)), shards, _add_ints, workers=workers,
        retries=0,
    )
    return DerangementResult(n=n, samples=samples, derangements=count)


def _add_ints(a: int, b: int) -> int:
    return a + b


# --------------------------------------------------------------------- #
# BDD variable-order search: shard the n! index space


class _OrderSearchWork:
    def __init__(self, tt: int, n_vars: int):
        self.tt = tt
        self.n_vars = n_vars

    def __call__(self, shard: ShardSpec) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
        best = worst = None
        best_size = 1 << 62
        worst_size = -1
        orders = unrank_batch(list(shard), self.n_vars)
        for row in orders:
            order = tuple(int(x) for x in row)
            size = bdd_size_under_order(self.tt, self.n_vars, order)
            if size < best_size or (size == best_size and (best is None or order < best)):
                best, best_size = order, size
            if size > worst_size or (size == worst_size and (worst is None or order < worst)):
                worst, worst_size = order, size
        assert best is not None and worst is not None
        return best, best_size, worst, worst_size


def _merge_order_results(a, b):
    best_a, bs_a, worst_a, ws_a = a
    best_b, bs_b, worst_b, ws_b = b
    best, bs = (best_a, bs_a)
    if bs_b < bs or (bs_b == bs and best_b < best):
        best, bs = best_b, bs_b
    worst, ws = (worst_a, ws_a)
    if ws_b > ws or (ws_b == ws and worst_b < worst):
        worst, ws = worst_b, ws_b
    return best, bs, worst, ws


def parallel_best_order(
    tt: int, n_vars: int, workers: int = 4
) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
    """Exhaustive BDD order search sharded over the index space.

    Worker ``w`` unranks its own contiguous slice of ``0..n!−1`` — the
    converter *is* the work-distribution mechanism, exactly the usage the
    paper's introduction sketches for hardware-assisted search.  Ties
    resolve to the lexicographically smallest order, making the result
    worker-count invariant.
    """
    shards = index_shards(factorial(n_vars), workers)
    return hardened_map_reduce(
        _OrderSearchWork(tt, n_vars), shards, _merge_order_results,
        workers=workers, retries=0,
    )


# --------------------------------------------------------------------- #
# P-class classification: shard the function space


class _ClassifyWork:
    def __init__(self, n_vars: int):
        self.n_vars = n_vars

    def __call__(self, shard: ShardSpec) -> set[int]:
        return {p_representative(tt, self.n_vars) for tt in shard}


def _union(a: set[int], b: set[int]) -> set[int]:
    return a | b


def parallel_classify(n_vars: int, workers: int = 4) -> set[int]:
    """All P-representatives, sharded over the 2^(2^n) truth tables."""
    total = 1 << (1 << n_vars)
    shards = index_shards(total, max(workers, 1) * 4)
    return hardened_map_reduce(
        _ClassifyWork(n_vars), shards, _union, workers=workers, retries=0
    )
