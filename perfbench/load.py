"""Load-generation helpers shared by the ``serve`` and ``wire`` workloads.

Rules every generator here keeps:

* open-loop requests are timed from their *due* time, not from when
  the generator got round to sending them, and the generator's own
  lateness is recorded separately;
* the generator sleeps until the next due time and never spins (a
  spinning Python thread holds the GIL for the 5 ms switch interval
  and shows up as server latency);
* no per-request object outlives its latency float: results land in
  preallocated arrays or in a bounded verifier buffer that is checked
  and emptied as it fills.
"""

from __future__ import annotations

import numpy as np

from harness import correct_rows


def poisson_schedule(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Due offsets (seconds from phase start) of a Poisson arrival stream."""
    count = max(1, int(rate * duration))
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


class Verifier:
    """Checks served rows against the oracle in bounded chunks.

    ``add`` buffers rows with their indices (``has_index`` False for
    shuffles, which only need to be permutations); every ``capacity``
    rows the buffer is checked and emptied, so memory stays bounded
    however long the run.
    """

    def __init__(self, n: int, capacity: int = 4096) -> None:
        self.n = n
        self.capacity = capacity
        self.perms = np.zeros((capacity, n), dtype=np.int64)
        self.indices = np.zeros(capacity, dtype=np.int64)
        self.has_index = np.zeros(capacity, dtype=bool)
        self.fill = 0
        self.checked = 0
        self.incorrect = 0

    def add(self, perms, indices, has_index: bool) -> None:
        rows = np.asarray(perms, dtype=np.int64).reshape(-1, self.n)
        off = 0
        while off < len(rows):
            take = min(len(rows) - off, self.capacity - self.fill)
            sl = slice(self.fill, self.fill + take)
            self.perms[sl] = rows[off : off + take]
            if has_index:
                self.indices[sl] = np.asarray(indices[off : off + take], dtype=np.int64)
            self.has_index[sl] = has_index
            self.fill += take
            off += take
            if self.fill == self.capacity:
                self.flush()

    def flush(self) -> None:
        if not self.fill:
            return
        ok = correct_rows(
            self.perms[: self.fill], self.indices[: self.fill], self.has_index[: self.fill]
        )
        self.checked += self.fill
        self.incorrect += int((~ok).sum())
        self.fill = 0
