"""The ``repro-serve/1`` wire protocol: length-prefixed binary frames.

Grammar (all integers big-endian, "network order")::

    frame    := u32 length ; body                 -- length = len(body)
    request  := u8 version     -- PROTOCOL_VERSION (1)
                u8 workload    -- 0 unrank / 1 random_perm / 2 shuffle
                u8 n
                u8 reserved    -- must be 0
                u32 request_id -- client correlation id, echoed verbatim
                u16 count      -- lanes requested (permutations wanted)
                u16 reserved   -- must be 0
                u64[count] indices      -- unrank only; absent otherwise
    response := u8 version
                u8 status      -- STATUS_* (0 OK)
                u8 workload
                u8 n
                u32 request_id
                u16 count
                u16 lanes      -- sweep occupancy the frame rode in
                u8 mode        -- serving rung tag (MODES)
                u8 reserved
                ok-payload | err-payload
    ok-payload  := u64[count] indices   -- unrank/random_perm: the
                                        -- indices actually unranked
                                        -- (client-side rank oracle);
                                        -- shuffle: absent
                   u8[count*n] permutation elements, row-major
    err-payload := u16 msg_len ; utf-8 message

Design notes, in the spirit of the paper's fixed-format hardware
interface:

* **Caps are part of the grammar.**  A request frame over 64 KiB or a
  count over :data:`MAX_COUNT` (4096, the widest sweep quantum) is a
  *protocol* violation — the codec raises
  :class:`~repro.errors.ProtocolError` before any allocation sized by
  attacker-controlled bytes.  Response frames cap at 1 MiB (4096 lanes
  of n=12 indices + elements fit comfortably).
* **Framing errors poison the stream; semantic errors do not.**  A
  byte-level violation (bad version, unknown tag, truncated or trailing
  bytes) means frame alignment is lost and the connection must close.
  A well-formed frame asking for something unserveable (``count == 0``,
  ``n`` over the service bound, index out of range) is answered with a
  typed ``INVALID`` response and the connection stays up.
* **Permutation elements travel as raw u8 rows.**  The encoder reads
  them straight out of the service's ``(count, n)`` result array — the
  hot path never materialises per-element Python ints.

:class:`FrameDecoder` is the incremental reassembler: feed it whatever
the socket produced and it yields complete frame bodies, carrying
partial frames across reads.  It is deliberately I/O-free so the same
decoder drives the asyncio server, the blocking client and the fuzz
tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import ProtocolError
from repro.serve.model import WORKLOADS

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_REQUEST_FRAME",
    "MAX_RESPONSE_FRAME",
    "MAX_COUNT",
    "STATUS_OK",
    "STATUS_INVALID",
    "STATUS_OVERLOADED",
    "STATUS_DEGRADED",
    "STATUS_SHUTDOWN",
    "STATUS_ERROR",
    "STATUS_NAMES",
    "MODES",
    "FrameDecoder",
    "WireRequest",
    "WireResponse",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
]

PROTOCOL_VERSION = 1

#: Frame-size caps: requests are small (indices only), responses carry
#: permutation rows for up to MAX_COUNT lanes.
MAX_REQUEST_FRAME = 64 * 1024
MAX_RESPONSE_FRAME = 1024 * 1024

#: The widest sweep quantum any engine reports (``vector``: the compiled
#: kernel at 4096 lanes).
MAX_COUNT = 4096

STATUS_OK = 0
STATUS_INVALID = 1
STATUS_OVERLOADED = 2
STATUS_DEGRADED = 3
STATUS_SHUTDOWN = 4
STATUS_ERROR = 5

STATUS_NAMES = ("ok", "invalid", "overloaded", "degraded", "shutdown", "error")

#: Serving-rung tags for the response ``mode`` byte, in wire order.
MODES = ("direct", "worker", "fallback", "cached", "unknown")

_WORKLOAD_TAGS = {name: tag for tag, name in enumerate(WORKLOADS)}
_MODE_TAGS = {name: tag for tag, name in enumerate(MODES)}

_REQ_HEADER = struct.Struct("!BBBBIHH")
_RESP_HEADER = struct.Struct("!BBBBIHHBB")
_LEN_PREFIX = struct.Struct("!I")


@dataclass(frozen=True)
class WireRequest:
    """A decoded request frame."""

    workload: str
    n: int
    count: int
    request_id: int
    indices: tuple[int, ...] | None = None


@dataclass(frozen=True)
class WireResponse:
    """A decoded response frame.

    ``permutations`` is a ``(count, n)`` int64 array for ``OK`` frames
    (``None`` otherwise); ``indices`` the echoed unranked indices for
    the deterministic workloads (``None`` for shuffles and errors);
    ``message`` the server's diagnostic for non-``OK`` statuses.
    """

    status: str
    workload: str
    n: int
    count: int
    request_id: int
    lanes: int = 0
    mode: str = "unknown"
    indices: tuple[int, ...] | None = None
    permutations: np.ndarray | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    ``feed(data)`` buffers ``data`` and returns every frame *body* that
    completed, in order; partial frames wait for the next feed.  An
    oversized or zero-length frame raises
    :class:`~repro.errors.ProtocolError` and poisons the decoder —
    frame alignment is unrecoverable, the caller must drop the
    connection (every later ``feed`` re-raises).
    """

    __slots__ = ("_buf", "_max_frame", "_poisoned")

    def __init__(self, max_frame: int = MAX_REQUEST_FRAME):
        self._buf = bytearray()
        self._max_frame = max_frame
        self._poisoned: ProtocolError | None = None

    @property
    def buffered(self) -> int:
        """Bytes held waiting for their frame to complete."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[bytes]:
        if self._poisoned is not None:
            raise self._poisoned
        self._buf.extend(data)
        frames: list[bytes] = []
        buf = self._buf
        while len(buf) >= _LEN_PREFIX.size:
            (length,) = _LEN_PREFIX.unpack_from(buf)
            if length == 0 or length > self._max_frame:
                self._poisoned = ProtocolError(
                    f"frame of {length} bytes outside 1..{self._max_frame}; "
                    "stream abandoned"
                )
                raise self._poisoned
            end = _LEN_PREFIX.size + length
            if len(buf) < end:
                break
            frames.append(bytes(buf[_LEN_PREFIX.size : end]))
            del buf[:end]
        return frames


#: Indices travel as u64, which holds every index up to n = 20
#: (20! < 2**64 < 21!); a larger or negative index cannot be framed.
_INDEX_LIMIT = 1 << 64


def _pack_indices(idx: tuple[int, ...]) -> bytes:
    for i in idx:
        if not (0 <= i < _INDEX_LIMIT):
            raise ProtocolError(f"index {i} does not fit the u64 wire field")
    return struct.pack(f"!{len(idx)}Q", *idx)


def _frame(body: bytes, max_frame: int) -> bytes:
    if len(body) > max_frame:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds cap {max_frame}")
    return _LEN_PREFIX.pack(len(body)) + body


def encode_request(
    workload: str,
    n: int,
    count: int,
    request_id: int = 0,
    indices=None,
) -> bytes:
    """One request frame (length prefix included)."""
    tag = _WORKLOAD_TAGS.get(workload)
    if tag is None:
        raise ProtocolError(f"unknown workload {workload!r}")
    if not (0 <= count <= MAX_COUNT):
        raise ProtocolError(f"count {count} outside 0..{MAX_COUNT}")
    if not (0 <= n <= 0xFF):
        raise ProtocolError(f"n {n} does not fit the wire format")
    header = _REQ_HEADER.pack(
        PROTOCOL_VERSION, tag, n, 0, request_id & 0xFFFFFFFF, count, 0
    )
    if workload == "unrank":
        idx = tuple(indices) if indices is not None else ()
        if len(idx) != count:
            raise ProtocolError(f"unrank frame needs {count} indices, got {len(idx)}")
        if any(type(i) is bool for i in idx):
            raise ProtocolError("a bool is not an index")
        body = header + _pack_indices(idx)
    else:
        if indices:
            raise ProtocolError(f"workload {workload!r} carries no indices")
        body = header
    return _frame(body, MAX_REQUEST_FRAME)


def decode_request(body: bytes) -> WireRequest:
    """Decode one request frame body → :class:`WireRequest`.

    Raises :class:`~repro.errors.ProtocolError` on any byte-level
    violation.  Semantic validation (``n`` bounds, index ranges, zero
    count) is the service's job — the codec only guarantees the frame
    parses to exactly one well-formed tuple.
    """
    if len(body) < _REQ_HEADER.size:
        raise ProtocolError(f"request header truncated at {len(body)} bytes")
    version, tag, n, rsv0, request_id, count, rsv1 = _REQ_HEADER.unpack_from(body)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if rsv0 != 0 or rsv1 != 0:
        raise ProtocolError("nonzero reserved bytes in request header")
    if tag >= len(WORKLOADS):
        raise ProtocolError(f"unknown workload tag {tag}")
    if count > MAX_COUNT:
        raise ProtocolError(f"count {count} over protocol cap {MAX_COUNT}")
    workload = WORKLOADS[tag]
    rest = len(body) - _REQ_HEADER.size
    indices: tuple[int, ...] | None = None
    if workload == "unrank":
        if rest != 8 * count:
            raise ProtocolError(
                f"unrank frame carries {rest} index bytes, expected {8 * count}"
            )
        indices = struct.unpack_from(f"!{count}Q", body, _REQ_HEADER.size)
    elif rest != 0:
        raise ProtocolError(f"{workload} frame carries {rest} trailing bytes")
    return WireRequest(
        workload=workload, n=n, count=count, request_id=request_id, indices=indices
    )


def encode_response(
    status: int,
    workload: str,
    n: int,
    count: int,
    request_id: int,
    lanes: int = 0,
    mode: str = "unknown",
    indices=None,
    permutations=None,
    message: str = "",
) -> bytes:
    """One response frame (length prefix included).

    For ``STATUS_OK``, ``permutations`` must be a ``(count, n)`` array;
    its rows are written as raw u8 bytes without materialising Python
    ints.  Any other status writes the diagnostic ``message`` instead.
    """
    tag = _WORKLOAD_TAGS.get(workload)
    if tag is None:
        raise ProtocolError(f"unknown workload {workload!r}")
    header = _RESP_HEADER.pack(
        PROTOCOL_VERSION,
        status,
        tag,
        n,
        request_id & 0xFFFFFFFF,
        count,
        min(lanes, 0xFFFF),
        _MODE_TAGS.get(mode, _MODE_TAGS["unknown"]),
        0,
    )
    if status == STATUS_OK:
        parts = [header]
        if workload != "shuffle":
            idx = tuple(indices) if indices is not None else ()
            if len(idx) != count:
                raise ProtocolError(
                    f"{workload} response needs {count} indices, got {len(idx)}"
                )
            parts.append(_pack_indices(idx))
        rows = np.ascontiguousarray(permutations, dtype=np.int64)
        if rows.shape != (count, n):
            raise ProtocolError(
                f"permutations shaped {rows.shape}, expected {(count, n)}"
            )
        parts.append(rows.astype(np.uint8).tobytes())
        body = b"".join(parts)
    else:
        msg = message.encode("utf-8")[:0xFFFF]
        body = header + struct.pack("!H", len(msg)) + msg
    return _frame(body, MAX_RESPONSE_FRAME)


def decode_response(body: bytes) -> WireResponse:
    """Decode one response frame body → :class:`WireResponse`."""
    if len(body) < _RESP_HEADER.size:
        raise ProtocolError(f"response header truncated at {len(body)} bytes")
    (
        version,
        status,
        tag,
        n,
        request_id,
        count,
        lanes,
        mode_tag,
        rsv,
    ) = _RESP_HEADER.unpack_from(body)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if rsv != 0:
        raise ProtocolError("nonzero reserved byte in response header")
    if status >= len(STATUS_NAMES):
        raise ProtocolError(f"unknown status tag {status}")
    if tag >= len(WORKLOADS):
        raise ProtocolError(f"unknown workload tag {tag}")
    if count > MAX_COUNT:
        raise ProtocolError(f"count {count} over protocol cap {MAX_COUNT}")
    workload = WORKLOADS[tag]
    mode = MODES[mode_tag] if mode_tag < len(MODES) else "unknown"
    off = _RESP_HEADER.size
    if status == STATUS_OK:
        indices: tuple[int, ...] | None = None
        if workload != "shuffle":
            if len(body) - off < 8 * count:
                raise ProtocolError("response index block truncated")
            indices = struct.unpack_from(f"!{count}Q", body, off)
            off += 8 * count
        if len(body) - off != count * n:
            raise ProtocolError(
                f"response carries {len(body) - off} element bytes, "
                f"expected {count * n}"
            )
        perms = (
            np.frombuffer(body, dtype=np.uint8, count=count * n, offset=off)
            .reshape(count, n)
            .astype(np.int64)
        )
        return WireResponse(
            status="ok",
            workload=workload,
            n=n,
            count=count,
            request_id=request_id,
            lanes=lanes,
            mode=mode,
            indices=indices,
            permutations=perms,
        )
    if len(body) - off < 2:
        raise ProtocolError("error response missing message length")
    (msg_len,) = struct.unpack_from("!H", body, off)
    off += 2
    if len(body) - off != msg_len:
        raise ProtocolError("error response message truncated or trailing bytes")
    message = body[off : off + msg_len].decode("utf-8", errors="replace")
    return WireResponse(
        status=STATUS_NAMES[status],
        workload=workload,
        n=n,
        count=count,
        request_id=request_id,
        lanes=lanes,
        mode=mode,
        message=message,
    )
