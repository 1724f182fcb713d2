"""Length-prefixed binary frames: the journal format (header version 2).

Every durable journal (:class:`~repro.sim.checkpoint.CheckpointJournal`,
session and cell-bag alike) is a magic prefix followed by CRC-checked
frames, and :class:`JournalReader` is its one decoder: a streaming pass
that holds one frame in memory at a time (:func:`decode_journal` runs it
over bytes).  The v1 JSONL layout of older builds is not read at all:
the journal refuses such a file on open.

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

import io
import json
import pickle
import struct
import zlib
from array import array
from typing import Any, Iterator, Mapping, Optional, Sequence

__all__ = [
    "FRAME_HEADER",
    "FRAME_PICKLE",
    "FRAME_BATCH",
    "FRAME_ATTACH",
    "FRAME_OVERHEAD",
    "JOURNAL_MAGIC",
    "FrameError",
    "JournalReader",
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
    frame = _read_frame(stream)
    return None if frame is None else (frame[0], frame[2])


def _read_frame(
    stream: Any, room: Optional[int] = None
) -> Optional[tuple[int, bytes, bytes]]:
    """:func:`read_frame`, returning ``(kind, header bytes, payload)``.
    ``room`` bounds the bytes the frame may span: a frame running past
    it is torn, however much the stream still holds."""
    head = stream.read(_HDR.size) if room is None or room > 0 else b""
    if not head:
        return None
    if len(head) < _HDR.size or (room is not None and room < _HDR.size):
        raise FrameError("truncated header")
    length, kind, crc = _HDR.unpack(head)
    if room is not None and _HDR.size + length > room:
        raise FrameError("torn payload")
    payload = stream.read(length) if length else b""
    if len(payload) < length:
        raise FrameError("torn payload")
    if zlib.crc32(payload) != crc:
        raise FrameError("crc mismatch")
    return kind, head, payload


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


class _Corrupt(Exception):
    """A CRC-valid frame that cannot be part of the journal."""


class JournalReader:
    """One streaming pass over a v2 journal, one frame in memory at a time.

    :meth:`read_header` reads the magic and the header frame; iterating
    then yields ``(index, payload)`` for every record in file order (a
    batch frame yields one ``{"record": ...}`` payload per record), with
    the ``FRAME_ATTACH`` extras that follow a frame merged into the
    payload they ride on.  A frame's records are yielded once the next
    frame shows no more attachments can follow, so at each yield
    :attr:`end` is the offset just past that frame's group and ``digest``
    (a :mod:`hashlib` object, optional) has absorbed exactly the bytes
    before it.  :attr:`records` counts the records yielded.

    Reading stops at the first frame that is torn (past ``size``), fails
    its CRC, will not decode, has an unknown kind, or attaches to a record
    outside the frame before it: :attr:`end` is then where that frame
    starts and :attr:`reason` says why (``None`` when the journal ended on
    a frame boundary).
    """

    def __init__(self, stream: Any, size: int, digest: Any = None) -> None:
        self._stream = stream
        self._size = size
        self._digest = digest
        self.end = 0
        self.records = 0
        self.reason: Optional[str] = None

    def read_header(self) -> Optional[dict]:
        """The header frame's JSON dict; None (with :attr:`reason` set)
        when the stream does not open with the magic and a readable
        ``FRAME_HEADER``."""
        magic = self._stream.read(len(JOURNAL_MAGIC))
        if magic != JOURNAL_MAGIC:
            self.reason = "no journal magic"
            return None
        pos = self.end = len(magic)
        try:
            frame = _read_frame(self._stream, self._size - pos)
            if frame is None:
                return None
            kind, head, payload = frame
            if kind != FRAME_HEADER:
                self.reason = "missing header"
                return None
            header = json.loads(payload)
        except FrameError as exc:
            self.reason = exc.reason
            return None
        except Exception as exc:
            self.reason = f"frame payload: {type(exc).__name__}: {exc}"
            return None
        if self._digest is not None:
            self._digest.update(magic + head + payload)
        self.end = pos + len(head) + len(payload)
        return header if isinstance(header, dict) else None

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        stream, size, feed = self._stream, self._size, self._digest
        first, items = 0, []  # the last record frame's payloads
        pos = self.end
        while True:
            try:
                got = _read_frame(stream, size - pos)
                if got is None:
                    break
                kind, head, payload = got
                after: Optional[tuple[int, list]] = None
                if kind == FRAME_ATTACH:
                    index, extra = pickle.loads(payload)
                    k = int(index) - first
                    if not (0 <= k < len(items) and isinstance(items[k], dict)):
                        raise _Corrupt("attach without its record")
                    items[k].update(extra)
                elif kind == FRAME_PICKLE:
                    index, value = pickle.loads(payload)
                    after = int(index), [value]
                elif kind == FRAME_BATCH:
                    (index,) = _I64.unpack_from(payload)
                    records = decode_record_batch(payload[_I64.size:])
                    after = index, [{"record": rec} for rec in records]
                elif kind == FRAME_HEADER:
                    after = 0, []
                else:
                    raise _Corrupt(f"unknown frame kind {kind}")
            except FrameError as exc:
                self.reason = exc.reason
                break
            except _Corrupt as exc:
                self.reason = str(exc)
                break
            except Exception as exc:
                # The frame's CRC held but its payload would not decode —
                # everything from this frame on is the corrupt tail.
                self.reason = f"frame payload: {type(exc).__name__}: {exc}"
                break
            if after is not None:
                # The frame before is complete: hand its records out while
                # ``end`` and the digest stop just before this one.
                self.end = pos
                self.records += len(items)
                yield from enumerate(items, first)
                first, items = after
            if feed is not None:
                feed.update(head)
                feed.update(payload)
            pos += len(head) + len(payload)
        self.end = pos
        self.records += len(items)
        yield from enumerate(items, first)


def decode_journal(
    data: bytes,
) -> tuple[Optional[dict], dict[int, Any], int, Optional[str]]:
    """Decode a whole v2 journal (magic included): :class:`JournalReader`
    over an in-memory buffer.

    Returns ``(header, payloads, good_end, bad_reason)``.  ``header`` is
    the first frame's JSON dict, or ``None`` when the file does not open
    with one (the magic is missing, or the first frame is not a readable
    ``FRAME_HEADER``).  ``payloads`` maps index -> payload in first-seen
    order, a repeated index keeping its last payload; ``FRAME_ATTACH``
    extras are merged into the payload they ride on.  ``good_end`` is the
    byte offset where the corrupt tail starts (the end of the data when
    every frame was good) and ``bad_reason`` says why (``None`` when
    nothing was cut).
    """
    reader = JournalReader(io.BytesIO(data), len(data))
    header = reader.read_header()
    if header is None:
        return None, {}, reader.end, reader.reason
    payloads = dict(reader)
    return header, payloads, reader.end, reader.reason


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
