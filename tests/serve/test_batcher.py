"""Micro-batcher edge cases, driven with a hand-rolled clock.

The batcher is a pure data structure (no threads, no real clock), so
every edge case here is fully deterministic: the empty deadline flush,
the single-request batch, the 64th concurrent request spilling into the
next sweep, group independence, and wide (multi-lane) entries filling
and spilling groups by *lane* count rather than entry count.

``add`` returns the list of batches the arrival closed — empty for a
plain enqueue, one batch when the group fills, and possibly two when a
wide entry both spills the open group and fills a fresh one.
"""

import pytest

from repro.hdl.compile import SWEEP_LANES
from repro.serve.batcher import MicroBatcher, PendingEntry


def entry(tag, at=0.0, lanes=1):
    return PendingEntry(request=tag, future=None, enqueued_at=at, lanes=lanes)


class TestConstruction:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            MicroBatcher(0, 1.0)
        with pytest.raises(ValueError):
            MicroBatcher(4, -1.0)


class TestDeadlineFlush:
    def test_empty_batcher_has_nothing_due(self):
        b = MicroBatcher(63, 0.01)
        assert b.take_due(1e9) == []
        assert b.next_deadline() is None
        assert b.pending == 0

    def test_single_request_batch_flushes_alone_on_deadline(self):
        b = MicroBatcher(63, 0.01)
        assert b.add("k", entry("only", at=5.0), now=5.0) == []
        assert b.next_deadline() == pytest.approx(5.01)
        assert b.take_due(5.005) == []  # not due yet
        (batch,) = b.take_due(5.01)
        assert batch.lanes == 1
        assert batch.entries[0].request == "only"
        assert b.pending == 0
        assert b.next_deadline() is None

    def test_deadline_runs_from_first_entry_of_group(self):
        b = MicroBatcher(63, 0.01)
        b.add("k", entry("a", at=1.0), now=1.0)
        b.add("k", entry("b", at=1.009), now=1.009)
        # the late joiner does not extend the window
        (batch,) = b.take_due(1.01)
        assert [e.request for e in batch.entries] == ["a", "b"]

    def test_groups_flush_independently(self):
        b = MicroBatcher(63, 0.01)
        b.add(("converter", 5), entry("a", at=0.0), now=0.0)
        b.add(("shuffle", 5), entry("b", at=0.008), now=0.008)
        due = b.take_due(0.012)
        assert [batch.key for batch in due] == [("converter", 5)]
        assert b.pending == 1
        assert b.next_deadline() == pytest.approx(0.018)


class TestBatchFull:
    def test_max_batch_th_request_closes_the_batch(self):
        b = MicroBatcher(SWEEP_LANES, 10.0)
        for i in range(SWEEP_LANES - 1):
            assert b.add("k", entry(i), now=0.0) == []
        assert b.pending == SWEEP_LANES - 1
        (full,) = b.add("k", entry(SWEEP_LANES - 1), now=0.0)
        assert full.lanes == SWEEP_LANES
        assert [e.request for e in full.entries] == list(range(SWEEP_LANES))
        assert b.pending == 0

    def test_64th_request_spills_into_a_fresh_group(self):
        b = MicroBatcher(SWEEP_LANES, 10.0)
        for i in range(SWEEP_LANES):
            b.add("k", entry(i, at=0.0), now=0.0)
        # lanes 0..62 left as a closed batch; the 64th arrival opens a
        # new group destined for the *next* sweep
        assert b.add("k", entry("spill", at=1.0), now=1.0) == []
        assert b.pending == 1
        assert b.next_deadline() == pytest.approx(11.0)
        (nxt,) = b.take_due(11.0)
        assert nxt.lanes == 1
        assert nxt.entries[0].request == "spill"

    def test_batch_ids_increase_in_closing_order(self):
        b = MicroBatcher(2, 10.0)
        b.add("x", entry("x0", at=0.0), now=0.0)
        assert b.add("y", entry("y0", at=0.0), now=0.0) == []
        (full_y,) = b.add("y", entry("y1", at=0.0), now=0.0)
        assert full_y.batch_id == 0  # y filled first
        (x_batch,) = b.take_all()
        assert x_batch.batch_id == 1


class TestWideEntries:
    def test_wide_entry_counts_lanes_not_entries(self):
        b = MicroBatcher(16, 0.01)
        assert b.add("k", entry("w", at=0.0, lanes=5), now=0.0) == []
        assert b.pending == 5
        (batch,) = b.take_due(0.01)
        assert batch.lanes == 5
        assert len(batch.entries) == 1

    def test_wide_entry_fills_group_exactly(self):
        b = MicroBatcher(8, 10.0)
        b.add("k", entry("a", at=0.0, lanes=3), now=0.0)
        (full,) = b.add("k", entry("b", at=0.0, lanes=5), now=0.0)
        assert full.lanes == 8
        assert [e.request for e in full.entries] == ["a", "b"]
        assert b.pending == 0

    def test_wide_entry_spills_open_group_when_it_cannot_fit(self):
        b = MicroBatcher(8, 10.0)
        b.add("k", entry("small", at=0.0), now=0.0)
        # 8 lanes cannot join the 1-lane group: the open group closes
        # early and the wide entry both opens *and* fills a fresh one
        closed = b.add("k", entry("wide", at=1.0, lanes=8), now=1.0)
        assert [batch.lanes for batch in closed] == [1, 8]
        assert closed[0].entries[0].request == "small"
        assert closed[1].entries[0].request == "wide"
        assert b.pending == 0

    def test_spilled_wide_entry_can_leave_group_open(self):
        b = MicroBatcher(8, 10.0)
        b.add("k", entry("small", at=0.0, lanes=4), now=0.0)
        (spilled,) = b.add("k", entry("wide", at=1.0, lanes=6), now=1.0)
        assert spilled.lanes == 4
        assert b.pending == 6  # wide entry waits for its own deadline
        assert b.next_deadline() == pytest.approx(11.0)

    def test_entry_wider_than_max_batch_is_rejected(self):
        b = MicroBatcher(4, 10.0)
        with pytest.raises(ValueError):
            b.add("k", entry("huge", lanes=5), now=0.0)
        assert b.pending == 0


class TestDrain:
    def test_take_all_closes_every_group(self):
        b = MicroBatcher(63, 10.0)
        b.add("x", entry("a", at=0.0), now=0.0)
        b.add("y", entry("b", at=0.0), now=0.0)
        batches = b.take_all()
        assert sorted(batch.key for batch in batches) == ["x", "y"]
        assert b.pending == 0
        assert b.take_all() == []


class TestBatchLanes:
    def test_every_close_path_records_the_lane_count(self):
        """``Batch.lanes`` is set once at close; it must equal the
        entries' lanes on the full, deadline and drain paths alike."""
        b = MicroBatcher(8, 0.01)
        closed = b.add("full", entry("w", lanes=5), now=0.0)
        closed += b.add("full", entry("x", lanes=3), now=0.0)  # fills at 8
        b.add("due", entry("y", at=0.0), now=0.0)
        b.add("due", entry("z", at=0.0, lanes=4), now=0.0)
        closed += b.take_due(0.01)
        b.add("drain", entry("v", at=1.0, lanes=6), now=1.0)
        closed += b.take_all()
        assert [batch.key for batch in closed] == ["full", "due", "drain"]
        assert [batch.lanes for batch in closed] == [8, 5, 6]
        for batch in closed:
            assert batch.lanes == sum(e.lanes for e in batch.entries)
