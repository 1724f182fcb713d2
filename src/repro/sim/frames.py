"""Length-prefixed binary frames: the v2 journal format.

The durable journal (:class:`~repro.sim.checkpoint.CheckpointJournal`
format v2) is a magic prefix followed by CRC-checked frames.

Frame layout (all integers little-endian)::

    magic   := b"RJF2\\x00"          (journal files only, once, at offset 0)
    frame   := header payload
    header  := u32 payload_length | u8 kind | u32 crc32(payload)

Torn-tail detection is structural: a file (or stream) that ends inside a
header or payload, or whose payload fails its CRC, is cut at the last
good frame boundary — no JSON parse heuristics.  The CRC also catches
bit rot in the middle of a frame, which the v1 line format could only
catch when it happened to break JSON syntax.

Frame kinds:

====================  ====  =====================================================
kind                  id    payload
====================  ====  =====================================================
``FRAME_HEADER``      1     JSON header dict (kind/version/fingerprint/workload)
``FRAME_JSON``        2     JSON ``[index, payload]``
``FRAME_PICKLE``      3     pickle ``(index, payload)``
``FRAME_BATCH``       4     i64 first_index + columnar record batch (below)
``FRAME_ATTACH``      5     pickle ``(index, extra)`` — merged into the payload
                            journaled at ``index`` (snapshot/delta riders)
====================  ====  =====================================================

Columnar record batches are the structure-of-arrays encoding of the hot
arrival/departure record schema — one frame per ``push_batch`` instead
of one dict per event.  Each column is a packed :mod:`array`-module byte
string (u8 kinds, f64 times/works, i64 ids/sizes); the envelope is a pickled tuple of those byte
strings.  Only records matching the exact hot schema are eligible —
``encode_*`` returns ``None`` for anything else and the caller falls back
to per-record frames, so the columnar path never has to approximate a
record it cannot represent exactly.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from array import array
from typing import Any, Iterator, Mapping, Optional, Sequence

__all__ = [
    "FRAME_HEADER",
    "FRAME_JSON",
    "FRAME_PICKLE",
    "FRAME_BATCH",
    "FRAME_ATTACH",
    "JOURNAL_MAGIC",
    "FrameError",
    "frame_bytes",
    "read_frame",
    "scan_frames",
    "encode_wire_columns",
    "encode_wire_records",
    "decode_record_batch",
    "iter_journal_payloads",
]

JOURNAL_MAGIC = b"RJF2\x00"

FRAME_HEADER = 1
FRAME_JSON = 2
FRAME_PICKLE = 3
FRAME_BATCH = 4
FRAME_ATTACH = 5

_HDR = struct.Struct("<IBI")
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
# Layout "W" (wire records, ``push_batch``):
#   arrival   {kind, time, id, size, work}
#   departure {kind, time, id}
#
# kind codes within a batch: 0 = arrival, 1 = departure.


def _pack_batch(layout: bytes, count: int, cols: tuple[bytes, ...]) -> bytes:
    return pickle.dumps((layout, count, cols), protocol=_PICKLE_PROTO)


def encode_wire_columns(
    kinds: bytearray,
    times: Sequence[float],
    ids: Sequence[int],
    sizes: Sequence[int],
    works: Sequence[float],
) -> bytes:
    """Pack already-columnar wire records (the zero-dict hot path)."""
    return _pack_batch(
        b"W",
        len(kinds),
        (
            bytes(kinds),
            array("d", times).tobytes(),
            array("q", ids).tobytes(),
            array("q", sizes).tobytes(),
            array("d", works).tobytes(),
        ),
    )


def encode_wire_records(
    records: Sequence[Mapping[str, Any]]
) -> Optional[bytes]:
    """Columnar-encode plain arrival/departure wire records.

    ``None`` when any record deviates from the exact hot schema (extra
    keys, missing fields, non-scalar types) — the caller must fall back
    to per-record encoding.
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
    return encode_wire_columns(kinds, times, ids, sizes, works)


def _unpack_batch(blob: bytes) -> tuple[bytes, int, tuple[bytes, ...]]:
    layout, count, cols = pickle.loads(blob)
    return layout, count, cols


def decode_record_batch(blob: bytes) -> list[dict[str, Any]]:
    """Materialize a columnar batch back into per-record dicts.

    The dicts are key-for-key identical to the records that were encoded
    — the property the v1/v2 parity referee holds both formats to.
    """
    layout, count, cols = _unpack_batch(blob)
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


# -- Journal payload iteration (both formats) --------------------------------


def _iter_v1_payloads(raw: str) -> Iterator[tuple[int, Any]]:
    """Yield ``(index, payload)`` from v1 JSONL text, corrupt-tail
    tolerant: parsing stops silently at the first bad or unterminated
    line (mirrors :class:`CheckpointJournal`'s recovery)."""
    import base64 as _b64

    first = True
    for piece in raw.splitlines(keepends=True):
        if not piece.endswith("\n"):
            return
        if first:
            first = False  # header line
            continue
        try:
            rec = json.loads(piece)
            index = int(rec["cell"])
            if "json" in rec:
                value = rec["json"]
            else:
                value = pickle.loads(_b64.b64decode(rec["data"]))
        except Exception:
            return
        yield index, value


def _iter_v2_payloads(data: bytes) -> Iterator[tuple[int, Any]]:
    """Yield ``(index, payload)`` from v2 frame bytes (magic included),
    with the same stop-at-first-bad-frame tolerance.  ``FRAME_ATTACH``
    extras are merged into the payload they ride on."""
    if not data.startswith(JOURNAL_MAGIC):
        return
    frames, _end, _reason = scan_frames(data, len(JOURNAL_MAGIC))
    by_index: dict[int, Any] = {}
    order: list[int] = []

    def put(index: int, value: Any) -> None:
        if index not in by_index:
            order.append(index)
        by_index[index] = value

    for kind, payload, _pos in frames:
        try:
            if kind == FRAME_HEADER:
                continue
            if kind == FRAME_JSON:
                index, value = json.loads(payload)
                put(int(index), value)
            elif kind == FRAME_PICKLE:
                index, value = pickle.loads(payload)
                put(int(index), value)
            elif kind == FRAME_BATCH:
                (first_index,) = _I64.unpack_from(payload)
                for i, rec in enumerate(decode_record_batch(payload[8:])):
                    put(first_index + i, {"record": rec})
            elif kind == FRAME_ATTACH:
                index, extra = pickle.loads(payload)
                base = by_index.get(int(index))
                if not isinstance(base, dict):
                    return  # an attach without its record: corrupt tail
                base.update(extra)
        except Exception:
            return
    for index in order:
        yield index, by_index[index]


def iter_journal_payloads(path: Any) -> list[tuple[int, Any]]:
    """``(index, payload)`` pairs of a journal in either format.

    Format is sniffed from the first bytes (``{`` → v1 JSONL, the frame
    magic → v2); an unreadable or unrecognisable file yields ``[]``.
    Duplicate indices keep the last occurrence (the journals' last-wins
    contract); pairs come back in first-seen index order.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return []
    if data.startswith(JOURNAL_MAGIC):
        pairs = list(_iter_v2_payloads(data))
    elif data.startswith(b"{"):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return []
        pairs = list(_iter_v1_payloads(text))
    else:
        return []
    last: dict[int, Any] = {}
    order: list[int] = []
    for index, value in pairs:
        if index not in last:
            order.append(index)
        last[index] = value
    return [(index, last[index]) for index in order]
