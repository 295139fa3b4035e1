"""Typed request/response model for the permutation-serving layer.

A :class:`Request` names one unit of work:

* ``unrank`` — convert a caller-supplied index to its permutation
  (paper §II, the index-to-permutation converter);
* ``random_perm`` — the §II-C random permutation generator: the service
  draws the index from its scaled-LFSR source and unranks it;
* ``shuffle`` — one output of the §III Knuth-shuffle cascade.

Validation is written once, in :func:`validate_wide`: a single request
is a one-lane frame, so :func:`validate_request` is that validator at
``count == 1``.  The CLI, the service, the wire server and the load
generator all reject malformed requests with the same
:class:`~repro.errors.InvalidRequestError` (a ``ValueError`` subclass,
like the rest of the caller-mistake taxonomy).

The :class:`Response` carries the permutation plus the serving
provenance the benchmarks and traces rely on: which batch the request
rode in (``batch_id``/``lanes``), whether the result came straight from
the cache, and the per-stage timing split (time queued in the
micro-batcher vs. time in the compiled sweep).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.factorial import factorial
from repro.errors import InvalidRequestError

__all__ = [
    "WORKLOADS",
    "Request",
    "Response",
    "WideResponse",
    "validate_request",
    "validate_wide",
]

#: The serveable workloads, in documentation order.
WORKLOADS = ("unrank", "random_perm", "shuffle")


@dataclass(frozen=True)
class Request:
    """One unit of serving work.

    ``index`` is required for ``unrank`` and must be absent for the two
    random workloads (the service owns the randomness — a caller who
    already has an index wants ``unrank``).
    """

    workload: str
    n: int
    index: int | None = None


@dataclass(frozen=True)
class Response:
    """A served permutation plus its serving provenance.

    ``index`` is the index actually unranked — for ``random_perm`` the
    one the service drew; for ``shuffle`` ``None`` (the cascade never
    materialises an index).  ``batch_id`` is ``None`` when the result
    short-circuited through the cache and never entered the batcher;
    otherwise it identifies the compiled sweep this request shared with
    ``lanes − 1`` others and links the response to its batch span in the
    trace.

    ``mode`` records which rung of the serving ladder produced the
    result: ``"direct"`` (the base service's in-process engine),
    ``"worker"`` (a supervised tier's compiled worker), ``"fallback"``
    (the supervised tier degraded to its in-process interp fallback for
    this sweep) or ``"cached"`` (never swept at all).  Clients and the
    load generator use it to count degraded-mode service separately
    from healthy service.
    """

    request_id: int
    workload: str
    n: int
    index: int | None
    permutation: tuple[int, ...]
    batch_id: int | None
    lanes: int
    cached: bool
    queued_s: float
    sweep_s: float
    total_s: float
    mode: str = "direct"


@dataclass(frozen=True)
class WideResponse:
    """A served *wide* request: ``count`` permutations behind one future.

    The network front end submits one entry per socket frame however
    many indices the frame carries; the whole frame resolves through a
    single future into this response.  ``permutations`` is a
    ``(count, n)`` int64 array (rows in request order) rather than
    per-row tuples — the socket encoder reads it straight into packed
    wire bytes, so nothing materialises a million Python ints on the hot
    path.  ``indices`` are the indices actually unranked (server-drawn
    for ``random_perm``), ``None`` for shuffles.  Provenance fields
    mirror :class:`Response`.
    """

    request_id: int
    workload: str
    n: int
    count: int
    indices: tuple[int, ...] | None
    permutations: object  # (count, n) np.ndarray
    batch_id: int | None
    lanes: int
    cached: bool
    queued_s: float
    sweep_s: float
    total_s: float
    mode: str = "direct"


def validate_request(req: Request, max_n: int) -> None:
    """:func:`validate_wide` for one :class:`Request`: a one-lane frame."""
    indices = None if req.index is None else (req.index,)
    validate_wide(req.workload, req.n, 1, indices, max_n, 1)


def validate_wide(
    workload: str,
    n: int,
    count: int,
    indices,
    max_n: int,
    max_count: int,
) -> None:
    """Reject a malformed submission with :class:`InvalidRequestError`.

    The one admission validator; a single request is a frame with
    ``count == 1``.  Checks workload spelling, the ``n`` bounds
    (``shuffle`` needs at least two elements; everything is capped at
    ``max_n`` so one request cannot make the service compile an
    astronomically large netlist), the ``count`` bounds (at least one
    lane, at most ``max_count`` — the service's ``max_batch``: a wider
    entry could never fit one sweep), and the index contract:
    ``unrank`` supplies a sequence of exactly ``count`` in-range
    integers, the random workloads none.
    """
    if workload not in WORKLOADS:
        raise InvalidRequestError(
            f"unknown workload {workload!r}; expected one of " + ", ".join(WORKLOADS)
        )
    if isinstance(n, bool) or not isinstance(n, int):
        raise InvalidRequestError(f"n must be an integer, got {n!r}")
    floor = 2 if workload == "shuffle" else 1
    if not (floor <= n <= max_n):
        raise InvalidRequestError(
            f"n={n} outside {floor}..{max_n} for workload {workload!r}"
        )
    if isinstance(count, bool) or not isinstance(count, int):
        raise InvalidRequestError(f"count must be an integer, got {count!r}")
    if not (1 <= count <= max_count):
        raise InvalidRequestError(f"count {count} outside 1..{max_count}")
    if workload == "unrank":
        if indices is None:
            raise InvalidRequestError("unrank requires an index per lane")
        # tuple first: the ABC check alone costs more than the rest
        if type(indices) is not tuple and not isinstance(indices, Sequence):
            raise InvalidRequestError(
                f"indices must be a sequence of integers, got {type(indices).__name__}"
            )
        if len(indices) != count:
            raise InvalidRequestError(
                f"unrank sent {len(indices)} indices for count={count}"
            )
        limit = factorial(n)
        for i in indices:
            if isinstance(i, bool) or not isinstance(i, int):
                raise InvalidRequestError(f"index must be an integer, got {i!r}")
            if not (0 <= i < limit):
                raise InvalidRequestError(
                    f"index {i} outside 0..{limit - 1} for n={n}"
                )
    elif indices is not None:
        raise InvalidRequestError(
            f"workload {workload!r} draws its own randomness; "
            "no index may be supplied"
        )
