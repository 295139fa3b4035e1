"""Self time with nested and overlapping children, and the recorder."""

import threading

import numpy as np
import pytest

from spans import CODE, NAMES, Recorder, merge, self_times, summarise


def test_nested_children_are_subtracted_level_by_level():
    # 0: [0, 10]  1: [1, 4] child of 0   2: [2, 3] child of 1
    own, incl = self_times([0, 0, 0], [0, 1, 2], [10, 4, 3], [-1, 0, 1])
    assert incl.tolist() == [10, 3, 1]
    assert own.tolist() == [7, 2, 1]


def test_overlapping_children_count_once():
    # children [1, 5] and [3, 8] cover [1, 8]: 7 of the parent's 10
    own, _ = self_times([0] * 3, [0, 1, 3], [10, 5, 8], [-1, 0, 0])
    assert own[0] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    # a child that starts before and ends after its parent covers all of it
    own, _ = self_times([0, 0, 0], [2, 1, 9], [6, 3, 12], [-1, 0, 0])
    # covered inside [2, 6]: [2, 3] only; the child [9, 12] lies outside
    assert own[0] == pytest.approx(3.0)


def test_disjoint_children_and_siblings_of_other_parents():
    own, _ = self_times(
        [0] * 5, [0, 1, 4, 20, 21], [10, 2, 6, 30, 22], [-1, 0, 0, -1, 3]
    )
    assert own.tolist() == pytest.approx([7, 1, 2, 9, 1])


def test_recorder_nests_per_thread_and_summarises():
    rec = Recorder(capacity=64)
    outer = rec.open(CODE["service.submit"])
    inner = rec.open(CODE["check"])
    rec.close(inner)
    rec.close(outer)

    def other():
        i = rec.open(CODE["kernel"])  # a fresh stack: a root span
        rec.close(i)

    t = threading.Thread(target=other)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    rec.count("check.calls")
    rec.finish()
    assert rec.size == 3
    assert rec.parent[:3].tolist() == [-1, 0, -1]
    s = summarise(rec)
    assert s["incl"]["service.submit"] >= s["self"]["service.submit"] >= 0
    assert s["self"]["check"] == pytest.approx(s["incl"]["check"])
    assert merge(s, s)["counts"]["check.calls"] == 2
    assert set(s["self"]) == set(NAMES)


def test_recorder_drops_past_capacity_without_failing():
    rec = Recorder(capacity=2)
    for _ in range(4):
        rec.close(rec.open(CODE["rng"]))
    rec.finish()
    assert rec.size == 2 and rec.dropped == 2
    assert np.all(rec.t1[:2] >= rec.t0[:2])


def test_install_and_uninstall_restore_the_program():
    from repro.core import lehmer
    from repro.robustness import checkers
    from repro.serve.service import PermutationService

    before = (PermutationService.submit, checkers.rank_batch, lehmer.rank_batch)
    rec = Recorder(capacity=16)
    rec.install()
    try:
        assert checkers.rank_batch is not before[1]
        assert checkers.rank_batch is lehmer.rank_batch
    finally:
        rec.uninstall()
    assert (PermutationService.submit, checkers.rank_batch, lehmer.rank_batch) == before
