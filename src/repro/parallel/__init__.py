"""Process-parallel execution of the repository's big experiments.

The index-to-permutation converter makes the classic combinatorial
workloads *embarrassingly index-parallel*: any job over "all n!
permutations" (or a sampled subset) shards into contiguous index ranges,
each worker unranks and processes its own range, and results reduce
associatively.  The same holds for Monte-Carlo jobs through the LFSR
jump-ahead decomposition (:meth:`repro.rng.lfsr.LFSRBase.jump`).

* :mod:`repro.parallel.sharding` — deterministic work decomposition:
  index ranges, leap-frog blocks, and a fault-tolerant process-pool map
  with an ordered, associative reduce;
* :mod:`repro.parallel.experiments` — parallel versions of the heavy
  workloads (Fig.-4 histogram, derangement counting, BDD order search,
  P-class classification), each *bit-identical* to its sequential
  counterpart — asserted in the test suite, which is the property that
  matters on a real cluster.
"""

from repro.parallel.sharding import (
    index_shards,
    ShardSpec,
    hardened_map_reduce,
)
from repro.parallel.experiments import (
    parallel_fig4_counts,
    parallel_derangements,
    parallel_best_order,
    parallel_classify,
)

__all__ = [
    "index_shards",
    "ShardSpec",
    "hardened_map_reduce",
    "parallel_fig4_counts",
    "parallel_derangements",
    "parallel_best_order",
    "parallel_classify",
]
