"""Open-loop accounting: lateness, latency from the due time, checks."""

import time

import numpy as np

import wl_serve
from load import Verifier, poisson_schedule


class _Done:
    def __init__(self, resp):
        self._resp = resp

    def result(self, timeout=None):
        return self._resp

    def add_done_callback(self, fn):
        fn(self)


class _StallingService:
    """Serves instantly, except that its first submit blocks 50 ms."""

    def __init__(self):
        self.calls = 0

    def submit(self, request):
        from repro.serve.model import Response
        from repro.core.lehmer import unrank

        self.calls += 1
        if self.calls == 1:
            time.sleep(0.05)
        index = request.index if request.index is not None else 7
        perm = unrank(index, wl_serve.N)
        return _Done(Response(self.calls, request.workload, wl_serve.N,
                              index, tuple(perm), 0, 1, False, 0.0, 0.0, 0.0))


def test_a_stall_makes_later_requests_late_and_counts_in_their_latency():
    stream = wl_serve.RequestStream(0, 64)
    schedule = np.arange(10) * 0.002  # one request every 2 ms
    counts = wl_serve.Counts()
    out = wl_serve.open_phase(_StallingService(), stream, 0, schedule, counts)
    late = out["late"]
    assert late[0] < 0.01
    # the 50 ms stall in request 0 delays every request due before it ends
    assert (late[1:10] > 0.02).all()
    assert (out["latency"] >= late[: len(out["latency"])] - 1e-9).all()
    assert counts.attempted == 10 and counts.failed == 0


def test_poisson_schedule_is_seeded_and_has_the_rate():
    a = poisson_schedule(np.random.default_rng(1), 1000.0, 2.0)
    b = poisson_schedule(np.random.default_rng(1), 1000.0, 2.0)
    assert len(a) == 2000 and (a == b).all()
    assert 1.8 < a[-1] < 2.2


def test_verifier_checks_in_bounded_chunks():
    from repro.core.lehmer import unrank

    v = Verifier(5, capacity=4)
    rows = [unrank(i, 5) for i in range(10)]
    bad = list(rows[3])
    bad[0], bad[1] = bad[1], bad[0]
    rows[3] = tuple(bad)
    v.add(rows, list(range(10)), True)
    v.add([(0, 0, 1, 2, 3)], [0], False)
    v.flush()
    assert v.checked == 11 and v.incorrect == 2
