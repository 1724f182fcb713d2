"""Length-prefixed binary frames: the journal format (header version 2).

Every durable journal (:class:`~repro.sim.checkpoint.CheckpointJournal`,
session and cell-bag alike) is a magic prefix followed by CRC-checked
frames, and :func:`decode_journal` is its one decoder.  The v1 JSONL
layout of older builds is not read at all: the journal refuses such a
file on open.

Frame layout (all integers little-endian)::

    magic   := b"RJF2\\x00"          (journal files only, once, at offset 0)
    frame   := header payload
    header  := u32 payload_length | u8 kind | u32 crc32(payload)

Torn-tail detection is structural: a file (or stream) that ends inside a
header or payload, or whose payload fails its CRC, is cut at the last
good frame boundary — no JSON parse heuristics.  The CRC also catches
bit rot in the middle of a frame.  A frame whose CRC holds but whose
payload will not decode, or whose kind is unknown, is treated the same
way: it and everything after it are the corrupt tail.

Frame kinds:

====================  ====  =====================================================
kind                  id    payload
====================  ====  =====================================================
``FRAME_HEADER``      1     JSON header dict (kind/version/fingerprint/workload)
(retired)             2     never written; reserved so the id is not reused
``FRAME_PICKLE``      3     pickle ``(index, payload)``
``FRAME_BATCH``       4     i64 first_index + columnar record batch (below)
``FRAME_ATTACH``      5     pickle ``(index, extra)`` — merged into the payload
                            journaled at ``index`` (digest/delta riders)
====================  ====  =====================================================

Columnar record batches are the structure-of-arrays encoding of the hot
arrival/departure record schema: a session's group commit
(:meth:`~repro.sim.checkpoint.CheckpointJournal.record_many`) writes each
contiguous run of records as one frame instead of one pickle per event.
Each column is a packed :mod:`array`-module byte string (u8 kinds, f64
times/works, i64 ids/sizes); the envelope is a pickled tuple of those byte
strings.  Only records matching the exact hot schema are eligible —
:func:`encode_wire_records` returns ``None`` for anything else and the
caller falls back to per-record frames, so the columnar path never has to
approximate a record it cannot represent exactly.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from array import array
from typing import Any, Mapping, Optional, Sequence

__all__ = [
    "FRAME_HEADER",
    "FRAME_PICKLE",
    "FRAME_BATCH",
    "FRAME_ATTACH",
    "FRAME_OVERHEAD",
    "JOURNAL_MAGIC",
    "FrameError",
    "frame_bytes",
    "read_frame",
    "scan_frames",
    "encode_wire_records",
    "decode_record_batch",
    "decode_journal",
    "iter_journal_payloads",
]

JOURNAL_MAGIC = b"RJF2\x00"

FRAME_HEADER = 1
FRAME_PICKLE = 3
FRAME_BATCH = 4
FRAME_ATTACH = 5

_HDR = struct.Struct("<IBI")
#: Bytes a frame adds in front of its payload (the header).
FRAME_OVERHEAD = _HDR.size
_I64 = struct.Struct("<q")
_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


class FrameError(Exception):
    """A frame could not be read: torn tail, bad CRC, or short header.

    ``reason`` is a short human-readable tag (``"truncated header"``,
    ``"torn payload"``, ``"crc mismatch"``) used in truncation warnings.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def frame_bytes(kind: int, payload: bytes) -> bytes:
    """One encoded frame: 9-byte header + payload."""
    return _HDR.pack(len(payload), kind, zlib.crc32(payload)) + payload


def read_frame(stream: Any) -> Optional[tuple[int, bytes]]:
    """Read one frame from a blocking binary stream.

    Returns ``None`` on clean EOF (zero bytes where a header would
    start); raises :class:`FrameError` if the stream ends mid-frame or
    the payload fails its CRC.
    """
    head = stream.read(_HDR.size)
    if not head:
        return None
    if len(head) < _HDR.size:
        raise FrameError("truncated header")
    length, kind, crc = _HDR.unpack(head)
    payload = stream.read(length) if length else b""
    if len(payload) < length:
        raise FrameError("torn payload")
    if zlib.crc32(payload) != crc:
        raise FrameError("crc mismatch")
    return kind, payload


def scan_frames(
    data: bytes, offset: int = 0
) -> tuple[list[tuple[int, bytes, int]], int, Optional[str]]:
    """Parse ``data[offset:]`` into frames, stopping at the first bad one.

    Returns ``(frames, good_end, bad_reason)``: each frame is
    ``(kind, payload, start_offset)`` so recovery can truncate *before* a
    frame whose payload later fails to decode; ``good_end`` is the byte
    offset just past the last intact frame and ``bad_reason`` is ``None``
    when the buffer ended exactly on a frame boundary.
    """
    frames: list[tuple[int, bytes, int]] = []
    n = len(data)
    pos = offset
    while pos < n:
        if n - pos < _HDR.size:
            return frames, pos, "truncated header"
        length, kind, crc = _HDR.unpack_from(data, pos)
        body_start = pos + _HDR.size
        body_end = body_start + length
        if body_end > n:
            return frames, pos, "torn payload"
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            return frames, pos, "crc mismatch"
        frames.append((kind, payload, pos))
        pos = body_end
    return frames, pos, None


# -- Columnar record batches -------------------------------------------------
#
# Layout "W" (normalised session records):
#   arrival   {kind, time, id, size, work}
#   departure {kind, time, id}
#
# kind codes within a batch: 0 = arrival, 1 = departure.


def encode_wire_records(
    records: Sequence[Mapping[str, Any]]
) -> Optional[bytes]:
    """Columnar-encode normalised arrival/departure records (layout W).

    ``None`` when any record deviates from the exact hot schema (extra
    keys, missing fields, non-scalar types, an id or size outside int64)
    — the caller must fall back to per-record encoding.
    """
    kinds = bytearray()
    times: list[float] = []
    ids: list[int] = []
    sizes: list[int] = []
    works: list[float] = []
    for r in records:
        kind = r.get("kind")
        t = r.get("time")
        i = r.get("id")
        if type(t) is not float or type(i) is not int:
            return None
        if kind == "arrival":
            s = r.get("size")
            w = r.get("work")
            if len(r) != 5 or type(s) is not int or type(w) is not float:
                return None
            kinds.append(0)
            sizes.append(s)
            works.append(w)
        elif kind == "departure":
            if len(r) != 3:
                return None
            kinds.append(1)
            sizes.append(0)
            works.append(0.0)
        else:
            return None
        times.append(t)
        ids.append(i)
    try:
        cols = (
            bytes(kinds),
            array("d", times).tobytes(),
            array("q", ids).tobytes(),
            array("q", sizes).tobytes(),
            array("d", works).tobytes(),
        )
    except OverflowError:
        return None
    return pickle.dumps((b"W", len(kinds), cols), protocol=_PICKLE_PROTO)


def decode_record_batch(blob: bytes) -> list[dict[str, Any]]:
    """Materialize a columnar batch back into per-record dicts.

    The dicts are key-for-key identical to the records that were encoded
    — so a resumed session replays exactly what it journaled.
    """
    layout, count, cols = pickle.loads(blob)
    if layout != b"W":
        raise FrameError(f"unknown batch layout {layout!r}")
    kinds_b, times_b, ids_b, sizes_b, works_b = cols
    times = array("d")
    times.frombytes(times_b)
    ids = array("q")
    ids.frombytes(ids_b)
    sizes = array("q")
    sizes.frombytes(sizes_b)
    works = array("d")
    works.frombytes(works_b)
    out: list[dict[str, Any]] = []
    for i in range(count):
        if kinds_b[i] == 0:
            out.append(
                {
                    "kind": "arrival",
                    "time": times[i],
                    "id": ids[i],
                    "size": sizes[i],
                    "work": works[i],
                }
            )
        else:
            out.append({"kind": "departure", "time": times[i], "id": ids[i]})
    return out


# -- Journal decoding ----------------------------------------------------------


def decode_journal(
    data: bytes,
) -> tuple[Optional[dict], dict[int, Any], int, Optional[str]]:
    """Decode a whole v2 journal (magic included) in one pass.

    Returns ``(header, payloads, good_end, bad_reason)``.  ``header`` is
    the first frame's JSON dict, or ``None`` when the file does not open
    with one (the magic is missing, or the first frame is not a readable
    ``FRAME_HEADER``).  ``payloads`` maps index -> payload in first-seen
    order, a repeated index keeping its last payload; ``FRAME_ATTACH``
    extras are merged into the payload they ride on.  Decoding stops at
    the first frame that is torn, fails its CRC, will not decode, has an
    unknown kind, or attaches to an index with no dict payload:
    ``good_end`` is the byte offset where that frame starts (the end of
    the data when every frame was good) and ``bad_reason`` says why
    (``None`` when nothing was cut).
    """
    if not data.startswith(JOURNAL_MAGIC):
        return None, {}, 0, "no journal magic"
    frames, good_end, bad_reason = scan_frames(data, len(JOURNAL_MAGIC))
    header: Optional[dict] = None
    payloads: dict[int, Any] = {}
    for kind, payload, pos in frames:
        try:
            if header is None:
                if kind != FRAME_HEADER:
                    return None, {}, pos, "missing header"
                header = json.loads(payload)
            elif kind == FRAME_HEADER:
                continue
            elif kind == FRAME_PICKLE:
                index, value = pickle.loads(payload)
                payloads[int(index)] = value
            elif kind == FRAME_BATCH:
                (first_index,) = _I64.unpack_from(payload)
                for i, rec in enumerate(decode_record_batch(payload[_I64.size:])):
                    payloads[first_index + i] = {"record": rec}
            elif kind == FRAME_ATTACH:
                index, extra = pickle.loads(payload)
                base = payloads.get(int(index))
                if not isinstance(base, dict):
                    return header, payloads, pos, "attach without its record"
                base.update(extra)
            else:
                return header, payloads, pos, f"unknown frame kind {kind}"
        except Exception as exc:
            # The frame's CRC held but its payload would not decode —
            # everything from this frame on is the corrupt tail.
            return header, payloads, pos, (
                f"frame payload: {type(exc).__name__}: {exc}"
            )
    return header, payloads, good_end, bad_reason


def iter_journal_payloads(path: Any) -> list[tuple[int, Any]]:
    """``(index, payload)`` pairs of a v2 journal, corrupt-tail tolerant.

    Decoding stops silently at the first bad frame (see
    :func:`decode_journal`); an unreadable file, or one that is not a v2
    journal (a v1 JSONL journal included), yields ``[]``.  Duplicate
    indices keep the last occurrence (the journals' last-wins contract);
    pairs come back in first-seen index order.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return []
    header, payloads, _end, _reason = decode_journal(data)
    if header is None:
        return []
    return list(payloads.items())
