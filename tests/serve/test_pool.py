"""The multi-process worker pool: correctness, chaos, cache accounting."""

import numpy as np
import pytest

from repro.core.converter import IndexToPermutationConverter
from repro.errors import ServiceOverloadedError
from repro.serve import (
    PermutationService,
    PoolConfig,
    PooledService,
    Request,
    ServiceConfig,
    run_closed_loop,
)


def make_pooled(workers: int = 1, **svc_kw) -> PooledService:
    svc_kw.setdefault("batch_deadline_s", 0.001)
    return PooledService(
        ServiceConfig(**svc_kw),
        PoolConfig(workers=workers, restart_backoff_s=0.01),
    )


class TestCorrectness:
    def test_unrank_matches_functional_model(self):
        conv = IndexToPermutationConverter(6)
        with make_pooled() as svc:
            for idx in (0, 1, 100, 719):
                resp = svc.convert(Request("unrank", 6, idx))
                assert resp.permutation == conv.convert(idx)

    def test_wide_frame_sweeps_once_in_a_worker(self):
        conv = IndexToPermutationConverter(7)
        indices = [0, 11, 317, 5039]
        with make_pooled() as svc:
            resp = svc.submit_wide("unrank", 7, len(indices), indices).result(20.0)
        assert resp.mode == "worker"
        want = conv.convert_batch(indices)
        assert np.array_equal(resp.permutations, want)

    def test_shuffle_rows_are_valid_permutations(self):
        with make_pooled() as svc:
            resp = svc.submit_wide("shuffle", 8, 6).result(20.0)
        for row in resp.permutations:
            assert sorted(row) == list(range(8))

    def test_vector_worker_backend(self):
        """engine="vector" widens the worker's sweep, not its kernel.

        The service admits 4096-lane batches, so the pool sizes its ring
        slots to match and a 500-lane frame rides one worker sweep of
        the compiled kernel.
        """
        indices = list(range(500))
        with make_pooled(workers=1, engine="vector") as svc:
            assert svc.pool.slot_lanes == 4096
            resp = svc.submit_wide("unrank", 6, len(indices), indices).result(30.0)
        assert resp.mode == "worker" and resp.lanes == len(indices)
        want = IndexToPermutationConverter(6).convert_batch(indices)
        assert np.array_equal(resp.permutations, want)

    def test_two_shard_groups_coexist(self):
        with make_pooled() as svc:
            a = svc.convert(Request("unrank", 5, 10))
            b = svc.convert(Request("unrank", 6, 10))
            shards = svc.stats()["pool"]["shards"]
        assert a.n == 5 and b.n == 6
        assert len(shards) == 2


class TestSupervision:
    def test_killed_worker_respawns_and_serves(self):
        conv = IndexToPermutationConverter(6)
        with make_pooled(workers=1) as svc:
            assert svc.convert(Request("unrank", 6, 1)).permutation == conv.convert(1)
            assert svc.pool.kill_worker() is not None
            # the only replica is gone: the next sweep must respawn it
            resp = svc.convert(Request("unrank", 6, 2))
            assert resp.permutation == conv.convert(2)
            stats = svc.stats()["pool"]
        assert stats["restarts"] >= 1

    def test_chaos_kills_never_corrupt_responses(self):
        """Seeded kill storm under closed-loop load: zero wrong results."""
        import threading
        import time

        with make_pooled(workers=2) as svc:
            stop = threading.Event()

            def killer():
                while not stop.is_set():
                    svc.pool.kill_worker()
                    time.sleep(0.02)

            t = threading.Thread(target=killer)
            t.start()
            try:
                report = run_closed_loop(
                    svc, 6, total=60, clients=4, seed=3, verify=True
                )
            finally:
                stop.set()
                t.join()
        assert report.incorrect == 0
        assert report.completed == 60

    def test_worker_rows_shape(self):
        with make_pooled() as svc:
            svc.convert(Request("unrank", 6, 3))
            rows = svc.pool.worker_rows()
        assert rows, "expected at least one worker row"
        for row in rows:
            assert set(row) >= {
                "shard", "replica", "pid", "alive", "busy",
                "sweeps", "cache_hits", "cache_misses", "restarts",
            }
            assert row["pid"] > 0 and row["sweeps"] >= 1


class TestCacheAccounting:
    def test_front_and_worker_tiers_never_double_count(self):
        """Satellite invariant: a lane is accounted in exactly one tier.

        A count-1 repeat hits the *front* cache and must not touch the
        pool; a wide frame skips the front tier entirely and settles its
        lanes against the *worker* cache.
        """
        with make_pooled(workers=1) as svc:
            svc.convert(Request("unrank", 6, 5))
            first = svc.stats()
            assert first["cache_hits"] == 0
            assert first["pool"]["cache_misses"] == 1
            assert first["pool"]["cache_hits"] == 0

            # count-1 repeat: front tier answers, pool never sees it
            again = svc.convert(Request("unrank", 6, 5))
            second = svc.stats()
            assert again.cached
            assert second["cache_hits"] == 1
            assert second["pool"]["cache_hits"] == first["pool"]["cache_hits"]
            assert second["pool"]["cache_misses"] == first["pool"]["cache_misses"]
            assert second["pool"]["served_worker"] == first["pool"]["served_worker"]

            # wide frame: front tier skipped, worker cache splits the lanes
            svc.submit_wide("unrank", 6, 2, [5, 9]).result(20.0)
            third = svc.stats()
            assert third["cache_hits"] == 1  # front untouched by the wide path
            assert third["pool"]["cache_hits"] == 1  # index 5 remembered
            assert third["pool"]["cache_misses"] == 2  # index 9 swept

    def test_worker_cache_disabled_by_zero_capacity(self):
        with PooledService(
            ServiceConfig(batch_deadline_s=0.001, cache_capacity=0),
            PoolConfig(workers=1, worker_cache_capacity=0),
        ) as svc:
            svc.submit_wide("unrank", 6, 2, [5, 5]).result(20.0)
            svc.submit_wide("unrank", 6, 2, [5, 5]).result(20.0)
            stats = svc.stats()["pool"]
        assert stats["cache_hits"] == 0
        assert stats["cache_misses"] == 4


class TestBackpressure:
    def test_saturated_shard_sheds_with_overloaded(self):
        with make_pooled(workers=1) as svc:
            svc.convert(Request("unrank", 6, 0))  # materialise the group
            (group,) = svc.pool._groups.values()
            limit = svc.pool.config.sweep_limit
            group.depth = limit  # white-box: pin the gauge at the ceiling
            try:
                with pytest.raises(ServiceOverloadedError) as exc_info:
                    svc.submit(Request("unrank", 6, 123))
            finally:
                group.depth = 0
            assert exc_info.value.queue_depth == limit
            # a fresh shard admits unconditionally (lazy groups are healthy)
            assert svc.convert(Request("unrank", 5, 0)).permutation is not None

    def test_untouched_pool_admits_everything(self):
        with make_pooled() as svc:
            svc.pool.admission_gate(("converter", 9))  # no group: no veto


class TestLifecycle:
    def test_close_is_idempotent_and_kills_workers(self):
        svc = make_pooled()
        svc.convert(Request("unrank", 5, 1))
        rows = svc.pool.worker_rows()
        assert any(r["alive"] for r in rows)
        svc.close()
        svc.close()
        assert not any(r["alive"] for r in svc.pool.worker_rows())

    def test_stats_shape(self):
        with make_pooled() as svc:
            svc.convert(Request("unrank", 5, 1))
            stats = svc.stats()
        assert "pool" in stats
        pool = stats["pool"]
        for key in (
            "shards", "restarts", "served_worker", "served_fallback",
            "workers_alive", "cache_hits", "cache_misses",
        ):
            assert key in pool

    def test_plain_service_has_no_pool(self):
        # guard the getattr-based health/report branches in the CLI
        with PermutationService(ServiceConfig(batch_deadline_s=0.001)) as svc:
            assert getattr(svc, "pool", None) is None
