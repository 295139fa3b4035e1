"""The repro-serve/1 wire codec: framing, round trips, fuzzing."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factorial import factorial
from repro.errors import ProtocolError
from repro.serve.net.protocol import (
    MAX_COUNT,
    MAX_REQUEST_FRAME,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    FrameDecoder,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)


def body_of(frame: bytes) -> bytes:
    """Strip the length prefix off a single encoded frame."""
    (length,) = struct.unpack_from("!I", frame)
    assert len(frame) == 4 + length
    return frame[4:]


class TestRequestRoundTrip:
    def test_unrank_carries_indices(self):
        frame = encode_request("unrank", 8, 3, request_id=7, indices=[0, 41, 40319])
        req = decode_request(body_of(frame))
        assert req.workload == "unrank"
        assert req.n == 8 and req.count == 3 and req.request_id == 7
        assert req.indices == (0, 41, 40319)

    @pytest.mark.parametrize("workload", ["random_perm", "shuffle"])
    def test_generative_workloads_carry_no_indices(self, workload):
        frame = encode_request(workload, 6, 5, request_id=9)
        req = decode_request(body_of(frame))
        assert req.workload == workload
        assert req.count == 5 and req.indices is None

    def test_request_id_wraps_to_u32(self):
        frame = encode_request("shuffle", 6, 1, request_id=0x1_0000_002A)
        assert decode_request(body_of(frame)).request_id == 0x2A

    def test_zero_count_is_well_formed(self):
        # semantic validation (reject count == 0) is the service's job;
        # the codec must pass the frame through intact
        req = decode_request(body_of(encode_request("unrank", 5, 0, indices=[])))
        assert req.count == 0 and req.indices == ()


class TestRequestEncodeErrors:
    def test_unknown_workload(self):
        with pytest.raises(ProtocolError, match="unknown workload"):
            encode_request("bogus", 5, 1)

    def test_count_over_cap(self):
        with pytest.raises(ProtocolError, match="outside"):
            encode_request("shuffle", 5, MAX_COUNT + 1)

    def test_index_count_mismatch(self):
        with pytest.raises(ProtocolError, match="needs 2 indices"):
            encode_request("unrank", 5, 2, indices=[1])

    def test_indices_on_generative_workload(self):
        with pytest.raises(ProtocolError, match="carries no indices"):
            encode_request("shuffle", 5, 1, indices=[3])

    def test_n_must_fit_a_byte(self):
        with pytest.raises(ProtocolError, match="wire format"):
            encode_request("shuffle", 256, 1)


class TestIndexWidth:
    """Indices are u64 on the wire: n = 20 fits, n = 21 does not."""

    def test_largest_n20_index_round_trips(self):
        top = factorial(20) - 1
        frame = encode_request("unrank", 20, 1, indices=[top])
        assert decode_request(body_of(frame)).indices == (top,)

    @pytest.mark.parametrize("index", [factorial(21) - 1, 1 << 64, -1])
    def test_unframeable_request_index_is_typed(self, index):
        with pytest.raises(ProtocolError, match="u64"):
            encode_request("unrank", 21, 1, indices=[index])

    def test_unframeable_response_index_is_typed(self):
        with pytest.raises(ProtocolError, match="u64"):
            encode_response(
                STATUS_OK, "unrank", 21, 1, 0,
                indices=[factorial(21) - 1],
                permutations=np.arange(21).reshape(1, 21),
            )


class TestRequestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_request(b"\x01\x00")

    def test_bad_version(self):
        body = bytearray(body_of(encode_request("shuffle", 5, 1)))
        body[0] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_request(bytes(body))

    def test_nonzero_reserved(self):
        body = bytearray(body_of(encode_request("shuffle", 5, 1)))
        body[3] = 0xFF
        with pytest.raises(ProtocolError, match="reserved"):
            decode_request(bytes(body))

    def test_unknown_workload_tag(self):
        body = bytearray(body_of(encode_request("shuffle", 5, 1)))
        body[1] = 200
        with pytest.raises(ProtocolError, match="workload tag"):
            decode_request(bytes(body))

    def test_count_over_cap(self):
        body = bytearray(body_of(encode_request("shuffle", 5, 1)))
        struct.pack_into("!H", body, 8, MAX_COUNT + 1)
        with pytest.raises(ProtocolError, match="protocol cap"):
            decode_request(bytes(body))

    def test_unrank_index_block_size_mismatch(self):
        body = body_of(encode_request("unrank", 5, 2, indices=[0, 1]))
        with pytest.raises(ProtocolError, match="index bytes"):
            decode_request(body[:-1])

    def test_trailing_bytes_on_generative_frame(self):
        body = body_of(encode_request("shuffle", 5, 1))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_request(body + b"\x00")


class TestFrameDecoder:
    def test_byte_by_byte_reassembly(self):
        frames = [
            encode_request("unrank", 6, 2, request_id=1, indices=[3, 4]),
            encode_request("shuffle", 6, 1, request_id=2),
        ]
        dec = FrameDecoder()
        got = []
        for byte in b"".join(frames):
            got.extend(dec.feed(bytes([byte])))
        assert got == [body_of(f) for f in frames]
        assert dec.buffered == 0

    def test_many_frames_in_one_feed_plus_partial_tail(self):
        frames = [encode_request("shuffle", 5, 1, request_id=i) for i in range(4)]
        blob = b"".join(frames) + frames[0][:5]  # a fifth frame, cut short
        dec = FrameDecoder()
        got = dec.feed(blob)
        assert [decode_request(b).request_id for b in got] == [0, 1, 2, 3]
        assert dec.buffered == 5
        # completing the tail releases the fifth frame
        assert dec.feed(frames[0][5:]) == [body_of(frames[0])]

    def test_oversized_frame_poisons_the_stream(self):
        dec = FrameDecoder(max_frame=64)
        with pytest.raises(ProtocolError, match="outside"):
            dec.feed(struct.pack("!I", 65))
        # alignment is unrecoverable: every later feed re-raises
        with pytest.raises(ProtocolError):
            dec.feed(b"")

    def test_zero_length_frame_poisons_the_stream(self):
        dec = FrameDecoder()
        with pytest.raises(ProtocolError, match="outside"):
            dec.feed(struct.pack("!I", 0) + b"rest")

    def test_length_prefix_split_across_feeds(self):
        frame = encode_request("shuffle", 7, 1)
        dec = FrameDecoder()
        assert dec.feed(frame[:2]) == []
        assert dec.feed(frame[2:]) == [body_of(frame)]


class TestResponseRoundTrip:
    def test_ok_unrank_response(self):
        perms = np.array([[0, 1, 2, 4, 3], [1, 0, 2, 3, 4]], dtype=np.int64)
        frame = encode_response(
            STATUS_OK, "unrank", 5, 2, request_id=11,
            lanes=2, mode="worker", indices=[1, 24], permutations=perms,
        )
        resp = decode_response(body_of(frame))
        assert resp.ok and resp.status == "ok"
        assert resp.request_id == 11 and resp.lanes == 2 and resp.mode == "worker"
        assert resp.indices == (1, 24)
        assert np.array_equal(resp.permutations, perms)

    def test_ok_shuffle_response_has_no_indices(self):
        perms = np.array([[2, 0, 1]], dtype=np.int64)
        frame = encode_response(
            STATUS_OK, "shuffle", 3, 1, request_id=5,
            lanes=1, mode="direct", permutations=perms,
        )
        resp = decode_response(body_of(frame))
        assert resp.ok and resp.indices is None
        assert np.array_equal(resp.permutations, perms)

    def test_error_response_carries_message(self):
        frame = encode_response(
            STATUS_OVERLOADED, "unrank", 5, 1, request_id=3,
            message="queue full at depth 252",
        )
        resp = decode_response(body_of(frame))
        assert not resp.ok and resp.status == "overloaded"
        assert resp.permutations is None
        assert resp.message == "queue full at depth 252"

    def test_bad_permutation_shape_rejected(self):
        with pytest.raises(ProtocolError, match="shaped"):
            encode_response(
                STATUS_OK, "shuffle", 5, 2, request_id=0,
                permutations=np.zeros((1, 5), dtype=np.int64),
            )

    def test_unknown_status_tag_rejected(self):
        body = bytearray(
            body_of(encode_response(STATUS_ERROR, "unrank", 5, 1, 0, message="x"))
        )
        body[1] = 99
        with pytest.raises(ProtocolError, match="status tag"):
            decode_response(bytes(body))

    def test_truncated_element_block_rejected(self):
        frame = encode_response(
            STATUS_OK, "shuffle", 4, 1, request_id=0,
            permutations=np.array([[0, 1, 2, 3]], dtype=np.int64),
        )
        with pytest.raises(ProtocolError, match="element bytes"):
            decode_response(body_of(frame)[:-1])


class TestFuzz:
    @given(data=st.binary(max_size=256))
    @settings(max_examples=200)
    def test_random_bytes_never_escape_the_taxonomy(self, data):
        """Arbitrary input produces frames or ProtocolError — nothing else."""
        dec = FrameDecoder(max_frame=128)
        try:
            bodies = dec.feed(data)
        except ProtocolError:
            return
        for body in bodies:
            try:
                decode_request(body)
            except ProtocolError:
                pass

    @given(
        workload=st.sampled_from(["unrank", "random_perm", "shuffle"]),
        n=st.integers(min_value=1, max_value=12),
        count=st.integers(min_value=0, max_value=16),
        request_id=st.integers(min_value=0, max_value=0xFFFFFFFF),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_encode_decode_identity(self, workload, n, count, request_id, data):
        indices = None
        if workload == "unrank":
            indices = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=count, max_size=count,
                )
            )
        frame = encode_request(workload, n, count, request_id, indices)
        assert len(frame) <= 4 + MAX_REQUEST_FRAME
        req = decode_request(body_of(frame))
        assert req.workload == workload
        assert req.n == n and req.count == count
        assert req.request_id == request_id
        if workload == "unrank":
            assert req.indices == tuple(indices)
        else:
            assert req.indices is None

    @given(chunks=st.lists(st.integers(min_value=1, max_value=7), max_size=40))
    @settings(max_examples=50)
    def test_arbitrary_chunking_preserves_frames(self, chunks):
        frames = [encode_request("shuffle", 6, 1, request_id=i) for i in range(6)]
        blob = b"".join(frames)
        dec = FrameDecoder()
        got, pos = [], 0
        for size in chunks:
            got.extend(dec.feed(blob[pos : pos + size]))
            pos += size
        got.extend(dec.feed(blob[pos:]))
        assert got == [body_of(f) for f in frames]
