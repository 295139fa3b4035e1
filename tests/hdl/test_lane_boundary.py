"""Lane/word boundary transposes: every packing helper round-trips.

The simulators cross the lane boundary through a small family of
transposes — ``bits_from_ints``/``ints_from_bits`` on the boolean side,
``pack_lanes``/``unpack_lanes`` and the batch input transpose
``_packed_from_ints`` on packed bigints.  Hypothesis sweeps widths
1–128 so every dtype tier (uint8, uint16, uint32, uint64 and the
>64-bit bigint fallback) and every word-boundary edge (63/64/65,
127/128) is exercised, and asserts the one-shot batch transpose equals
the per-wire packing.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hdl.compile import ones_mask, pack_lanes, unpack_lanes
from repro.hdl.simulator import _packed_from_ints, bits_from_ints, ints_from_bits


@st.composite
def width_and_values(draw):
    width = draw(st.integers(1, 128))
    n = draw(st.integers(1, 20))
    values = [
        draw(st.integers(0, (1 << width) - 1)) for _ in range(n)
    ]
    return width, values


@given(width_and_values())
@settings(max_examples=150)
def test_bits_from_ints_round_trip(case):
    width, values = case
    lanes = bits_from_ints(values, width)
    assert len(lanes) == width
    assert all(lane.dtype == bool and lane.shape == (len(values),) for lane in lanes)
    assert [int(v) for v in ints_from_bits(lanes)] == values


@given(width_and_values())
@settings(max_examples=100)
def test_uint_tiers_match_python_int_path(case):
    """Every integer dtype feeds the same transpose as plain Python ints."""
    width, values = case
    ref = bits_from_ints(values, width)
    dtypes = [np.uint64, np.int64]
    if width <= 32:
        dtypes.append(np.uint32)
    if width <= 16:
        dtypes.append(np.uint16)
    if width <= 8:
        dtypes.append(np.uint8)
    for dt in dtypes:
        if width > 63 and np.dtype(dt).kind == "i":
            continue  # signed 64-bit cannot hold 64-bit values
        if width > 64:
            continue  # bigint fallback only
        arr = np.array(values, dtype=dt)
        got = bits_from_ints(arr, width)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b), dt


def test_bigint_fallback_beyond_uint64():
    values = [(1 << 127) | 1, (1 << 90) + 5, 0, (1 << 128) - 1]
    lanes = bits_from_ints(values, 128)
    assert len(lanes) == 128
    assert [int(v) for v in ints_from_bits(lanes)] == values


@given(st.integers(1, 300), st.data())
@settings(max_examples=100)
def test_pack_lanes_round_trip(lanes, data):
    """pack_lanes puts lane i at bit i and unpack_lanes inverts it."""
    bits = np.array(
        [data.draw(st.booleans()) for _ in range(lanes)], dtype=bool
    )
    value = pack_lanes(bits)
    assert value == sum(1 << i for i in range(lanes) if bits[i])
    assert np.array_equal(unpack_lanes(value, lanes), bits)


@given(width_and_values())
@settings(max_examples=100)
def test_packed_from_ints_matches_per_wire_packing(case):
    """The one-shot batch input transpose equals packing each wire."""
    width, values = case
    batch = len(values)
    packed = _packed_from_ints(values, width, batch, ones_mask(batch))
    ref = bits_from_ints(values, width)
    assert packed == [pack_lanes(lane) for lane in ref]


@given(st.integers(1, 128), st.integers(2, 200))
@settings(max_examples=60)
def test_packed_from_ints_scalar_broadcast(width, batch):
    """A single value broadcasts each bit to all lanes or none."""
    ones = ones_mask(batch)
    value = (1 << width) - 1  # all bits set
    assert _packed_from_ints([value], width, batch, ones) == [ones] * width
    assert _packed_from_ints([0], width, batch, ones) == [0] * width


class TestBoundaryEdges:
    def test_word_boundary_widths(self):
        for width in (63, 64, 65, 127, 128):
            values = [(1 << width) - 1, 0, 1, 1 << (width - 1)]
            lanes = bits_from_ints(values, width)
            assert [int(v) for v in ints_from_bits(lanes)] == values

    def test_word_boundary_lane_counts(self):
        rng = np.random.default_rng(7)
        for lanes in (1, 63, 64, 65, 1024, 4096):
            bits = rng.integers(0, 2, size=lanes).astype(bool)
            value = pack_lanes(bits)
            assert value.bit_length() <= lanes
            assert np.array_equal(unpack_lanes(value, lanes), bits)
