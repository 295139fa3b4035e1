"""PermutationService end to end: correctness, cache, admission, obs."""

import pytest

from repro.core.converter import IndexToPermutationConverter
from repro.core.factorial import factorial
from repro.core.lehmer import rank
from repro.errors import InvalidRequestError, ServiceOverloadedError
from repro.hdl.compile import SWEEP_LANES
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import Tracer
from repro.serve import (
    PermutationService,
    Request,
    ServiceConfig,
    run_closed_loop,
)


def make_service(**kw) -> PermutationService:
    kw.setdefault("batch_deadline_s", 0.001)
    return PermutationService(ServiceConfig(**kw))


class TestCorrectness:
    def test_unrank_matches_functional_model(self):
        conv = IndexToPermutationConverter(6)
        with make_service() as svc:
            for idx in (0, 1, 100, 719):
                resp = svc.convert(Request("unrank", 6, idx))
                assert resp.permutation == conv.convert(idx)
                assert resp.workload == "unrank" and resp.n == 6
                assert resp.index == idx

    def test_batch_full_executes_inline_as_one_sweep(self):
        conv = IndexToPermutationConverter(7)
        with make_service(batch_deadline_s=60.0, max_batch=SWEEP_LANES) as svc:
            futures = [
                svc.submit(Request("unrank", 7, i)) for i in range(SWEEP_LANES)
            ]
            # the 63rd submission filled the batch and ran it inline on
            # the submitting thread; nothing waits on the 60 s deadline
            responses = [f.result(timeout=1.0) for f in futures]
        ids = {r.batch_id for r in responses}
        assert len(ids) == 1
        assert all(r.lanes == SWEEP_LANES for r in responses)
        for i, r in enumerate(responses):
            assert r.permutation == conv.convert(i)

    @pytest.mark.parametrize("n", [20, 21, 22])
    def test_vector_engine_matches_rank_oracle_past_64_bits(self, n):
        """From n = 21 the index bus is wider than 64 bits; unranking
        under engine="vector" still agrees with the rank oracle."""
        limit = factorial(n)
        indices = [i for i in (0, 1, (1 << 64) - 1, 1 << 64, limit - 1) if i < limit]
        with make_service(engine="vector", max_n=22) as svc:
            resp = svc.submit_wide("unrank", n, len(indices), indices).result(30.0)
        assert resp.lanes == len(indices)
        assert [rank([int(v) for v in row]) for row in resp.permutations] == indices

    def test_deadline_flush_serves_a_lone_request(self):
        with make_service(batch_deadline_s=0.002) as svc:
            resp = svc.submit(Request("unrank", 5, 42)).result(timeout=2.0)
        assert resp.lanes == 1 and not resp.cached

    def test_random_perm_draws_and_unranks(self):
        conv = IndexToPermutationConverter(6)
        with make_service() as svc:
            resp = svc.convert(Request("random_perm", 6))
            assert 0 <= resp.index < conv.index_limit
            assert resp.permutation == conv.convert(resp.index)
            # deterministic per seed: a second service replays the draw
        with make_service() as svc2:
            assert svc2.convert(Request("random_perm", 6)).index == resp.index

    def test_shuffle_yields_valid_permutations(self):
        with make_service() as svc:
            perms = [
                svc.convert(Request("shuffle", 8)).permutation for _ in range(5)
            ]
        for p in perms:
            assert sorted(p) == list(range(8))
        assert len(set(perms)) > 1  # draws advance the LFSR state

    def test_mixed_sizes_batch_separately(self):
        conv5 = IndexToPermutationConverter(5)
        conv6 = IndexToPermutationConverter(6)
        with make_service(batch_deadline_s=60.0, max_batch=2) as svc:
            f5a = svc.submit(Request("unrank", 5, 3))
            f6a = svc.submit(Request("unrank", 6, 9))
            f5b = svc.submit(Request("unrank", 5, 4))  # fills the n=5 group
            f6b = svc.submit(Request("unrank", 6, 10))  # fills the n=6 group
            assert f5a.result(1.0).permutation == conv5.convert(3)
            assert f5b.result(1.0).permutation == conv5.convert(4)
            assert f6a.result(1.0).permutation == conv6.convert(9)
            assert f6b.result(1.0).permutation == conv6.convert(10)
            assert f5a.result(0).batch_id != f6a.result(0).batch_id


class TestCache:
    def test_cache_hit_short_circuits_the_batcher(self):
        with make_service(batch_deadline_s=60.0, max_batch=2) as svc:
            a = svc.submit(Request("unrank", 6, 5))
            b = svc.submit(Request("unrank", 6, 7))  # fills + runs inline
            a.result(1.0), b.result(1.0)
            hit = svc.submit(Request("unrank", 6, 5))
            # resolved immediately: never queued behind the 60 s deadline
            assert hit.done()
            resp = hit.result(0)
            assert resp.cached and resp.batch_id is None
            assert resp.permutation == a.result(0).permutation
            stats = svc.stats()
            assert stats["queued"] == 0
            assert stats["cache_hits"] == 1

    def test_random_perm_results_prime_the_unrank_cache(self):
        with make_service(max_batch=1) as svc:
            rp = svc.convert(Request("random_perm", 6))
            hit = svc.convert(Request("unrank", 6, rp.index))
            assert hit.cached and hit.permutation == rp.permutation

    def test_shuffles_are_never_cached(self):
        with make_service(max_batch=1) as svc:
            svc.convert(Request("shuffle", 6))
            svc.convert(Request("shuffle", 6))
            assert svc.stats()["cache_hits"] == 0
            assert svc.stats()["cache_entries"] == 0

    def test_capacity_zero_disables_caching(self):
        with make_service(max_batch=1, cache_capacity=0) as svc:
            svc.convert(Request("unrank", 5, 9))
            again = svc.convert(Request("unrank", 5, 9))
            assert not again.cached


class TestAdmissionControl:
    def test_overload_sheds_with_bounded_queue_depth(self):
        cfg = dict(batch_deadline_s=60.0, max_batch=SWEEP_LANES, max_queue_depth=3)
        with make_service(**cfg) as svc:
            held = [svc.submit(Request("unrank", 5, i)) for i in range(3)]
            with pytest.raises(ServiceOverloadedError) as exc_info:
                svc.submit(Request("unrank", 5, 99))
            assert exc_info.value.queue_depth == 3
            assert exc_info.value.limit == 3
            assert svc.stats()["queued"] <= 3  # depth stayed bounded
            assert svc.stats()["shed"] == 1
        # close() drained the held batch: every accepted request completes
        conv = IndexToPermutationConverter(5)
        for i, f in enumerate(held):
            assert f.result(timeout=1.0).permutation == conv.convert(i)

    def test_cache_hits_bypass_admission_control(self):
        """The cache lookup precedes the queue-depth check, so a full
        queue sheds only requests that actually need a sweep."""
        cfg = dict(batch_deadline_s=60.0, max_batch=SWEEP_LANES, max_queue_depth=1)
        perm = IndexToPermutationConverter(5).convert(9)
        with make_service(**cfg) as svc:
            svc._cache.put(("unrank", 5, 9), perm)  # white-box prime
            svc.submit(Request("unrank", 5, 0))  # queue now at the limit
            hit = svc.submit(Request("unrank", 5, 9))
            assert hit.result(0).cached and hit.result(0).permutation == perm
            with pytest.raises(ServiceOverloadedError):
                svc.submit(Request("unrank", 5, 10))

    def test_rejects_after_close(self):
        svc = make_service()
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(Request("unrank", 5, 0))

    def test_invalid_requests_never_touch_the_queue(self):
        with make_service(batch_deadline_s=60.0) as svc:
            with pytest.raises(InvalidRequestError):
                svc.submit(Request("unrank", 5, -1))
            assert svc.stats()["queued"] == 0
            assert svc.stats()["submitted"] == 0


class TestObservability:
    def test_metrics_recorded_when_enabled(self):
        REGISTRY.enable()
        try:
            with make_service(max_batch=1) as svc:
                svc.convert(Request("unrank", 5, 3))
                svc.convert(Request("unrank", 5, 3))  # cache hit
                svc.convert(Request("shuffle", 5))
            text = REGISTRY.render_exposition()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert 'repro_serve_requests_total{workload="unrank",outcome="ok"} 2' in text
        assert 'repro_serve_requests_total{workload="shuffle",outcome="ok"} 1' in text
        assert 'repro_serve_cache_total{result="hit"} 1' in text
        assert "repro_serve_batch_lanes_count 2" in text
        assert 'repro_serve_stage_seconds_bucket{stage="sweep"' in text
        assert "repro_serve_queue_depth" in text

    def test_shed_outcome_counted(self):
        REGISTRY.enable()
        try:
            cfg = dict(batch_deadline_s=60.0, max_queue_depth=1)
            with make_service(**cfg) as svc:
                svc.submit(Request("unrank", 5, 0))
                with pytest.raises(ServiceOverloadedError):
                    svc.submit(Request("unrank", 5, 1))
            text = REGISTRY.render_exposition()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert 'repro_serve_requests_total{workload="unrank",outcome="shed"} 1' in text

    def test_trace_links_requests_to_their_batch(self):
        tracer = Tracer()
        svc = PermutationService(
            ServiceConfig(batch_deadline_s=60.0, max_batch=2), tracer=tracer
        )
        with svc:
            a = svc.submit(Request("unrank", 5, 1))
            b = svc.submit(Request("unrank", 5, 2))
            resp = a.result(1.0)
            b.result(1.0)
        batches = [s for r in tracer.roots for s in r.walk() if s.name == "serve.batch"]
        assert len(batches) == 1
        (batch_span,) = batches
        assert batch_span.attrs["batch_id"] == resp.batch_id
        assert batch_span.attrs["lanes"] == 2
        children = batch_span.find_all("serve.request")
        assert len(children) == 2
        for child in children:
            assert child.attrs["batch_id"] == resp.batch_id


class TestOneAdmissionPath:
    """``submit`` is ``submit_wide`` at one lane: same admission, same
    answers, only the response type differs."""

    @staticmethod
    def _drive(door, **cfg):
        """A fixed request script through one door, inline sweeps only."""
        cfg.setdefault("max_batch", 1)  # every admitted entry runs inline
        with make_service(rng_seed=5, **cfg) as svc:
            rows = []
            for workload, n, index in (
                ("unrank", 6, 3), ("unrank", 6, 3), ("unrank", 6, 719),
                ("random_perm", 7, None), ("random_perm", 7, None),
                ("unrank", 6, 719), ("shuffle", 5, None),
            ):
                rows.append(door(svc, workload, n, index).result(5.0))
            return rows, svc.stats()

    @staticmethod
    def _one(svc, workload, n, index):
        return svc.submit(Request(workload, n, index))

    @staticmethod
    def _wide(svc, workload, n, index):
        return svc.submit_wide(
            workload, n, 1, None if index is None else (index,)
        )

    def test_count_one_serves_like_submit(self):
        ones, one_stats = self._drive(self._one)
        wides, wide_stats = self._drive(self._wide)
        for a, b in zip(ones, wides):
            assert type(b).__name__ == "WideResponse" and b.count == 1
            assert b.permutations.shape == (1, a.n)
            assert tuple(int(v) for v in b.permutations[0]) == a.permutation
            assert b.indices == (None if a.index is None else (a.index,))
            assert (a.cached, a.mode) == (b.cached, b.mode)
        # random_perm draws the same LFSR indices for one seed
        assert [r.index for r in ones[3:5]] == [r.indices[0] for r in wides[3:5]]
        for key in ("submitted", "completed", "cache_hits", "cache_misses"):
            assert one_stats[key] == wide_stats[key], key
        assert one_stats["cache_hits"] == 2

    @pytest.mark.parametrize("door", ["submit", "submit_wide"])
    def test_same_shed_decision_at_max_queue_depth(self, door):
        submit = self._one if door == "submit" else self._wide
        with make_service(
            batch_deadline_s=60.0, max_batch=8, max_queue_depth=3
        ) as svc:
            held = [submit(svc, "unrank", 6, i) for i in range(3)]
            with pytest.raises(ServiceOverloadedError):
                submit(svc, "unrank", 6, 3)
            assert svc.stats()["shed"] == 1
            assert svc.stats()["queued"] == 3
        assert all(f.done() for f in held)

    @pytest.mark.parametrize(
        "indices", [iter([1, 2]), 5, {1, 2}], ids=["iterator", "scalar", "set"]
    )
    def test_indices_that_are_not_an_int_sequence_are_invalid(self, indices):
        count = 1 if isinstance(indices, int) else 2
        with make_service() as svc:
            with pytest.raises(InvalidRequestError):
                svc.submit_wide("unrank", 4, count, indices)
            assert svc.stats()["submitted"] == 0


class TestLoadGenerator:
    def test_closed_loop_completes_exactly_total(self):
        with make_service() as svc:
            report = run_closed_loop(svc, 6, total=40, clients=4, seed=7)
        assert report.completed == 40
        assert report.latency_digest.count == 40
        assert sum(report.by_workload.values()) == 40
        pct = report.latency_percentiles()
        assert 0 <= pct["p50"] <= pct["p90"] <= pct["p99"] <= pct["max"]
        assert report.throughput_rps > 0

    def test_single_workload_mix(self):
        with make_service() as svc:
            report = run_closed_loop(
                svc, 5, total=20, clients=2, mix={"unrank": 1.0}, seed=1
            )
        assert report.by_workload == {"unrank": 20}

    def test_rejects_bad_mix_and_counts(self):
        with make_service() as svc:
            with pytest.raises(ValueError, match="unknown workload"):
                run_closed_loop(svc, 5, total=5, mix={"bogus": 1.0})
            with pytest.raises(ValueError):
                run_closed_loop(svc, 5, total=0)
            with pytest.raises(ValueError):
                run_closed_loop(svc, 5, total=5, clients=0)


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"max_batch": 0},
            {"max_batch": SWEEP_LANES + 1},
            {"batch_deadline_s": -0.1},
            {"max_queue_depth": 0},
            {"cache_capacity": -1},
            {"max_n": 0},
        ],
    )
    def test_rejects_bad_config(self, kw):
        with pytest.raises(ValueError):
            ServiceConfig(**kw)
