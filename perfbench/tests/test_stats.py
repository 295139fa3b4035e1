"""The percentile rule, the host-speed scaling and the oracle."""

import math
import os
import time

import numpy as np
import pytest

import harness


def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    values = np.arange(1, 1001)  # 1..1000
    pct, value, n = harness.tail(values)
    assert (pct, value, n) == (99.0, 990.0, 1000)  # ten values above 990


def test_tail_falls_back_to_the_highest_percentile_with_ten_beyond():
    values = np.arange(1, 501)
    pct, value, n = harness.tail(values)
    assert n == 500
    assert value == 490.0  # rank 490 of 500: exactly ten beyond
    assert pct == pytest.approx(98.0)


def test_tail_order_does_not_matter_and_small_samples_are_refused():
    rng = np.random.default_rng(0)
    values = rng.permutation(np.arange(11))
    assert harness.tail(values) == (100.0 / 11, 0.0, 11)
    with pytest.raises(ValueError):
        harness.tail(np.arange(10))


def test_at_nominal_scales_by_the_calibration():
    assert harness.at_nominal(2.0, harness.CALIBRATION_NOMINAL_S) == 2.0
    # a host twice as slow as nominal: the unit counts half its time
    assert harness.at_nominal(2.0, 2 * harness.CALIBRATION_NOMINAL_S) == 1.0


def test_calibrated_times_the_call_between_two_calibrations(monkeypatch):
    readings = iter([0.5, 1.5])  # × nominal: mean 1.0, so no scaling
    monkeypatch.setattr(
        harness, "calibrate", lambda: next(readings) * harness.CALIBRATION_NOMINAL_S
    )
    out, seconds = harness.calibrated(lambda x, *, y: time.sleep(0.02) or x + y, 1, y=2)
    assert out == 3
    assert 0.02 <= seconds < 0.5


def test_calibrate_leaves_the_cpu_set_as_it_was():
    before = os.sched_getaffinity(0)
    assert harness.calibrate() > 0
    assert os.sched_getaffinity(0) == before


def test_oracle_matches_the_program_ranker():
    from repro.core.lehmer import rank, unrank

    n = 6
    idx = np.arange(math.factorial(n))
    perms = np.asarray([unrank(int(i), n) for i in idx])
    assert (harness.ranks(perms) == idx).all()
    assert [rank(p) for p in perms[:5]] == list(range(5))


def test_correct_rows_catches_swaps_and_non_permutations():
    perms = np.asarray([[0, 1, 2], [1, 0, 2], [0, 0, 2], [2, 1, 0]])
    indices = np.asarray([0, 0, 0, 0])
    has = np.asarray([True, True, True, False])
    assert harness.correct_rows(perms, indices, has).tolist() == [True, False, False, True]
