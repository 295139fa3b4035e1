"""One boundary table through every serving door: ``submit``,
``submit_wide(count=1)`` and the ``repro-serve/1`` wire client.

Valid rows must come back as the same permutation from each door, and
that permutation must rank back to the index.  Invalid rows must fail
at the edge with one typed error: :class:`InvalidRequestError` in
process, ``STATUS_INVALID`` on the wire.  Inputs a u64 frame cannot
carry (a negative index, a bool, a length that disagrees with
``count``) never reach the server: the client encoder refuses them
with a typed :class:`ProtocolError`.
"""

import pytest

from repro.core.factorial import factorial
from repro.core.lehmer import rank
from repro.errors import InvalidRequestError, ProtocolError
from repro.serve import (
    NetServer,
    PermutationService,
    Request,
    ServeConnection,
    ServiceConfig,
)
from repro.serve.net import protocol as wire

MAX_N = 8

#: (n, index) pairs every door must serve.
VALID = [
    (n, i) for n in (1, 2, MAX_N) for i in sorted({0, factorial(n) - 1})
]

#: (case, n, indices-for-count-1) every door must reject; ``wire`` says
#: whether a u64 frame can carry the input to the server at all.
INVALID = [
    ("n_over_max", MAX_N + 1, (0,), True),
    ("index_n_factorial", 5, (factorial(5),), True),
    ("index_negative", 5, (-1,), False),
    ("index_bool", 5, (True,), False),
    ("wrong_length", 5, (0, 1), False),
]


@pytest.fixture(scope="module")
def served():
    config = ServiceConfig(batch_deadline_s=0.001, max_n=MAX_N)
    with PermutationService(config) as svc:
        with NetServer(svc) as server:
            yield svc, server


def _connect(server: NetServer) -> ServeConnection:
    host, port = server.address
    return ServeConnection(host, port, timeout=10.0)


@pytest.mark.parametrize("n,index", VALID)
def test_valid_row_is_the_same_permutation_through_every_door(served, n, index):
    svc, server = served
    one = svc.submit(Request("unrank", n, index)).result(10.0).permutation
    wide = svc.submit_wide("unrank", n, 1, (index,)).result(10.0)
    with _connect(server) as conn:
        frame = conn.request("unrank", n, count=1, indices=[index])
    assert frame.ok and frame.indices == (index,)
    assert tuple(wide.permutations[0]) == one
    assert tuple(int(v) for v in frame.permutations[0]) == one
    assert sorted(one) == list(range(n))
    assert rank(one) == index


@pytest.mark.parametrize(
    "case,n,indices,on_wire", INVALID, ids=[row[0] for row in INVALID]
)
def test_invalid_row_fails_with_one_typed_error(served, case, n, indices, on_wire):
    svc, server = served
    before = svc.stats()["submitted"]
    if len(indices) == 1:
        with pytest.raises(InvalidRequestError):
            svc.submit(Request("unrank", n, indices[0]))
    with pytest.raises(InvalidRequestError):
        svc.submit_wide("unrank", n, 1, indices)
    assert svc.stats()["submitted"] == before  # rejected before admission
    with _connect(server) as conn:
        if on_wire:
            resp = conn.request("unrank", n, count=1, indices=list(indices))
            assert resp.status == wire.STATUS_NAMES[wire.STATUS_INVALID]
        else:
            with pytest.raises(ProtocolError):
                conn.send("unrank", n, count=1, indices=list(indices))
        # the connection is still frame-aligned and serving
        assert conn.request("unrank", 3, count=1, indices=[5]).ok
