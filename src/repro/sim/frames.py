"""Length-prefixed binary frames: the journal format (header version 4).

Every durable journal (:class:`~repro.sim.checkpoint.CheckpointJournal`,
session and cell-bag alike) is a magic prefix followed by CRC-checked
frames, and :class:`JournalReader` is its one decoder: a streaming pass
that holds one frame in memory at a time (:func:`decode_journal` runs it
over bytes).  Journals of older builds are not read at all: the journal
refuses a v1 JSONL file, a v2 (``RJF2``) file or a v3 (``RJF3``) file
on open.

Frame layout (all integers little-endian)::

    magic   := b"RJF4\\x00"          (journal files only, once, at offset 0)
    frame   := header payload
    header  := u32 payload_length | u8 kind | u32 crc32(payload)

Torn-tail detection is structural: a file (or stream) that ends inside a
header or payload, or whose payload fails its CRC, is cut at the last
good frame boundary — no JSON parse heuristics.  The CRC also catches
bit rot in the middle of a frame.  A frame whose CRC holds but whose
payload will not decode, or whose kind is unknown, is treated the same
way: it and everything after it are the corrupt tail.

Frame kinds:

================  ====  =========================================================
kind              id    payload
================  ====  =========================================================
``FRAME_HEADER``  1     JSON header dict (kind/version/fingerprint/workload)
(reserved)        2     never written
``FRAME_JSON``    3     i64 index + compact JSON of the whole payload
``FRAME_BATCH``   4     i64 first index + tagged records back to back
``FRAME_ATTACH``  5     i64 index + JSON dict merged into the payload journaled
                        at ``index`` (``delta``/``state_sha256`` riders)
``FRAME_RECORD``  6     one tagged record [+ i64 index]: without the index it
                        is the record after the previous one
``FRAME_CELL``    7     a cell-bag result; decoded only by the cell-bag journal
================  ====  =========================================================

A *tagged record* encodes the hot session record, ``{"kind", "time",
"id"[, "size", "work"][, "slo"]}``, behind a ``u8`` tag: the kind in
bits 0-1, :data:`NARROW` (bit 3) for the narrow layout, the SLO mark in
the high nibble.  The narrow layout is ``u32 time``, ``u32 id`` and, for
arrivals, ``u8 log2(size)`` with no work field — 10 bytes for an
arrival, 9 for a departure or kill — and holds a record whose time is a
whole float in ``[0, 2**32)`` (not ``-0.0``), whose id is in ``[0,
2**32)``, and, for an arrival, whose size is a power of two within int64
and whose work is ``1.0``.  Every other record takes the wide layout,
``f64 time`` and ``i64 id`` and for arrivals ``i64 size`` and ``f64
work`` — 33 bytes for an arrival, 17 for a departure or kill.

A ``{"record": ...}`` payload whose record fits takes a ``FRAME_RECORD``
(or a place in a ``FRAME_BATCH``), its other keys following as a
``FRAME_ATTACH``; every other payload is a ``FRAME_JSON``.  A
``FRAME_RECORD`` names its index after the record only when the index
is not the one after the previous record-bearing frame's last (the
first record of a journal follows index -1); :class:`JournalReader`
infers the rest.  :class:`PayloadEncoder` lays out the frames of one
payload or many, incrementally: a journal holds the records it has not
yet handed to the OS in one, so the records between two syncs share one
``FRAME_BATCH``.  Both codecs are exact: decoding rebuilds each dict key
for key, in the order written, with the same value types, and the
encoder refuses a payload neither can hold (a tuple, a non-string key,
a numpy scalar) instead of approximating it.

Nothing here unpickles.  ``FRAME_CELL`` frames hold pickled results of
local cell bags (:class:`~repro.sim.checkpoint.CellJournal`); a reader
decodes them only through the ``cells`` decoder its caller passes, so a
session journal, :func:`decode_journal` and :func:`iter_journal_payloads`
treat one as the start of a corrupt tail.
"""

from __future__ import annotations

import io
import json
import math
import struct
import zlib
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

__all__ = [
    "FRAME_HEADER",
    "FRAME_JSON",
    "FRAME_BATCH",
    "FRAME_ATTACH",
    "FRAME_RECORD",
    "FRAME_CELL",
    "FRAME_NAMES",
    "FRAME_OVERHEAD",
    "JOURNAL_MAGIC",
    "JOURNAL_MAGIC_V2",
    "JOURNAL_MAGIC_V3",
    "NARROW",
    "FrameError",
    "JournalReader",
    "frame_bytes",
    "read_frame",
    "scan_frames",
    "pack_record",
    "record_layouts",
    "record_length",
    "unpack_records",
    "PayloadEncoder",
    "encode_payloads",
    "decode_journal",
    "iter_journal_payloads",
]

JOURNAL_MAGIC = b"RJF4\x00"
#: The magic of the pickle-based v2 format, recognised only to refuse it.
JOURNAL_MAGIC_V2 = b"RJF2\x00"
#: The magic of the wide-record v3 format, recognised only to refuse it.
JOURNAL_MAGIC_V3 = b"RJF3\x00"

FRAME_HEADER = 1
FRAME_JSON = 3
FRAME_BATCH = 4
FRAME_ATTACH = 5
FRAME_RECORD = 6
FRAME_CELL = 7

#: Frame kind -> the name ``repro journal dump --stats`` prints.
FRAME_NAMES = {
    FRAME_HEADER: "header",
    FRAME_JSON: "json",
    FRAME_BATCH: "batch",
    FRAME_ATTACH: "attach",
    FRAME_RECORD: "record",
    FRAME_CELL: "cell",
}

_HDR = struct.Struct("<IBI")
#: Bytes a frame adds in front of its payload (the header).
FRAME_OVERHEAD = _HDR.size
_I64 = struct.Struct("<q")


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


# -- Tagged records ------------------------------------------------------------
#
# tag = kind | NARROW? | mark << 4
#   kind: 0 arrival, 1 departure, 2 kill
#   mark: 0 none, 1 queue, 2 reject, 3 cancel, 4 dequeue
# narrow arrival     <B I I B>    tag, time, id, log2(size)   (10 B; work 1.0)
# narrow dep. / kill <B I I>      tag, time, id               (9 B)
# wide arrival       <B d q q d>  tag, time, id, size, work   (33 B)
# wide dep. / kill   <B d q>      tag, time, id               (17 B)

#: The tag bit of the narrow layout.
NARROW = 0x08
_ARRIVAL = struct.Struct("<Bdqqd")
_SHORT = struct.Struct("<Bdq")
_NARROW_ARRIVAL = struct.Struct("<BIIB")
_NARROW_SHORT = struct.Struct("<BII")
#: 2**e for every size exponent a narrow arrival may carry: sizes stay
#: within int64, and a larger exponent is corrupt, never a huge int.
_POW2 = tuple(1 << e for e in range(63))
_EXPONENTS = {size: e for e, size in enumerate(_POW2)}
_trunc = math.trunc
_copysign = math.copysign
_KINDS = ("arrival", "departure", "kill")
_MARKS = (None, "queue", "reject", "cancel", "dequeue")
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_MARK_CODES = {mark: code for code, mark in enumerate(_MARKS) if mark}
#: The key orders a tagged record rebuilds: keys -> (arrival?, marked?).
_SHAPES = {
    ("kind", "time", "id", "size", "work"): (True, False),
    ("kind", "time", "id", "size", "work", "slo"): (True, True),
    ("kind", "time", "id"): (False, False),
    ("kind", "time", "id", "slo"): (False, True),
}
#: tag -> (kind, mark, layout) for every tag an encoder writes.
_TAGS = {
    k | narrow | m << 4: (
        kind,
        mark,
        (_NARROW_ARRIVAL if narrow else _ARRIVAL)
        if k == 0
        else (_NARROW_SHORT if narrow else _SHORT),
    )
    for k, kind in enumerate(_KINDS)
    for m, mark in enumerate(_MARKS)
    for narrow in (0, NARROW)
}


def pack_record(record: Mapping[str, Any]) -> Optional[bytes]:
    """The tagged encoding of one session record — narrow when every
    field fits the narrow layout, wide otherwise — or ``None`` when it
    cannot hold the record exactly: another key or key order, a time or
    work that is not a ``float``, an id or size that is not an ``int``
    within int64, an unknown kind or SLO mark."""
    shape = _SHAPES.get(tuple(record))
    if shape is None:
        return None
    arrival, marked = shape
    kind, t, tid = record["kind"], record["time"], record["id"]
    if type(kind) is not str or type(t) is not float or type(tid) is not int:
        return None
    tag = _KIND_CODES.get(kind)
    if tag is None or (tag == 0) is not arrival:
        return None
    if marked:
        mark = record["slo"]
        code = _MARK_CODES.get(mark) if type(mark) is str else None
        if code is None:
            return None
        tag |= code << 4
    if arrival:
        size, work = record["size"], record["work"]
        if type(size) is not int or type(work) is not float:
            return None
    # Narrow when the time is whole and not -0.0, the size a power of two
    # within int64 and the work 1.0; struct refuses a time or id outside
    # u32, and the record is then wide.
    if t.is_integer() and (t or _copysign(1.0, t) > 0):
        try:
            if not arrival:
                return _NARROW_SHORT.pack(tag | NARROW, _trunc(t), tid)
            exponent = _EXPONENTS.get(size) if work == 1.0 else None
            if exponent is not None:
                return _NARROW_ARRIVAL.pack(tag | NARROW, _trunc(t), tid, exponent)
        except struct.error:
            pass
    try:
        if arrival:
            return _ARRIVAL.pack(tag, t, tid, size, work)
        return _SHORT.pack(tag, t, tid)
    except struct.error:  # an id or size outside int64
        return None


def record_length(data: bytes, pos: int = 0) -> int:
    """The byte length of the tagged record at ``data[pos]``, read from
    its tag.  Raises :class:`FrameError` on an unknown tag."""
    spec = _TAGS.get(data[pos])
    if spec is None:
        raise FrameError(f"unknown record tag {data[pos]}")
    return spec[2].size


def record_layouts(
    frames: Iterable[tuple[int, bytes]],
) -> dict[tuple[str, bool], int]:
    """``(record kind, narrow?) -> count`` over the tagged records of the
    ``(frame kind, payload)`` pairs given, read from the tags alone (other
    frames are skipped).  Raises :class:`FrameError` on an unknown tag."""
    counts: dict[tuple[str, bool], int] = {}
    for kind, payload in frames:
        if kind == FRAME_RECORD:
            pos, end = 0, record_length(payload)
        elif kind == FRAME_BATCH:
            pos, end = _I64.size, len(payload)
        else:
            continue
        while pos < end:
            length = record_length(payload, pos)
            tag = payload[pos]
            key = (_TAGS[tag][0], bool(tag & NARROW))
            counts[key] = counts.get(key, 0) + 1
            pos += length
    return counts


def unpack_records(data: bytes, pos: int = 0) -> list[dict[str, Any]]:
    """Every tagged record in ``data[pos:]``, rebuilt key for key.

    Raises :class:`FrameError` on an unknown tag or a size exponent
    beyond int64, and :class:`struct.error` when the data ends inside a
    record.
    """
    out: list[dict[str, Any]] = []
    end = len(data)
    narrow, narrow_short = _NARROW_ARRIVAL.unpack_from, _NARROW_SHORT.unpack_from
    pow2 = _POW2
    exponent = 0
    try:
        while pos < end:
            tag = data[pos]
            # The two hot tags first: an unmarked narrow arrival...
            if tag == NARROW:
                _tag, t, tid, exponent = narrow(data, pos)
                out.append({"kind": "arrival", "time": float(t), "id": tid,
                            "size": pow2[exponent], "work": 1.0})
                pos += 10
                continue
            if tag == NARROW | 1:  # ... and an unmarked narrow departure
                _tag, t, tid = narrow_short(data, pos)
                out.append({"kind": "departure", "time": float(t), "id": tid})
                pos += 9
                continue
            spec = _TAGS.get(tag)
            if spec is None:
                raise FrameError(f"unknown record tag {tag}")
            kind, mark, layout = spec
            if layout is _NARROW_ARRIVAL:
                _tag, t, tid, exponent = narrow(data, pos)
                record = {"kind": kind, "time": float(t), "id": tid,
                          "size": pow2[exponent], "work": 1.0}
            elif layout is _NARROW_SHORT:
                _tag, t, tid = narrow_short(data, pos)
                record = {"kind": kind, "time": float(t), "id": tid}
            elif layout is _ARRIVAL:
                _tag, t, tid, size, work = layout.unpack_from(data, pos)
                record = {"kind": kind, "time": t, "id": tid, "size": size, "work": work}
            else:
                _tag, t, tid = layout.unpack_from(data, pos)
                record = {"kind": kind, "time": t, "id": tid}
            if mark is not None:
                record["slo"] = mark
            out.append(record)
            pos += layout.size
    except IndexError:  # only an exponent indexes out of range
        raise FrameError(f"size exponent {exponent} beyond int64") from None
    return out


# -- Payload encoding ----------------------------------------------------------


def _json_exact(value: Any) -> bool:
    """Whether JSON gives ``value`` back with the same types throughout."""
    t = type(value)
    if t is dict:
        return all(
            type(k) is str and _json_exact(v) for k, v in value.items()
        )
    if t is list:
        return all(_json_exact(v) for v in value)
    return t in (str, int, float, bool) or value is None


def _json(index: int, value: Any) -> bytes:
    if not _json_exact(value):
        raise TypeError(
            f"journal payload {index} does not round-trip through JSON "
            f"exactly: {value!r:.200}"
        )
    return _I64.pack(index) + json.dumps(value, separators=(",", ":")).encode()


def _tagged(value: Any) -> Optional[bytes]:
    """The tagged record of a ``{"record": ..., riders...}`` payload whose
    record comes first and fits; None for any other payload."""
    if type(value) is dict:
        record = value.get("record")
        if type(record) is dict and (len(value) == 1 or next(iter(value)) == "record"):
            return pack_record(record)
    return None


class PayloadEncoder:
    """The frames of ``(index, payload)`` pairs, built one pair at a time
    and held until :meth:`take` hands them on.

    Each run of tagged payloads with consecutive indices becomes one
    ``FRAME_BATCH`` (a run of one a ``FRAME_RECORD``), the riders of its
    payloads following as ``FRAME_ATTACH`` frames; every other payload is
    a ``FRAME_JSON``, which ends the run before it.  A ``FRAME_RECORD``
    leaves its index out when it is ``last + 1``.  :attr:`last` is the
    index of the last payload framed, kept across :meth:`take` calls, and
    must match what a reader of every frame before them infers: -1 before
    a journal's first record, None when unknown (the next record frame
    then names its index).  :attr:`size` is the byte length :meth:`take`
    will return and :attr:`count` the payloads held.  A payload JSON
    cannot hold exactly raises :class:`TypeError` before anything is
    held.
    """

    def __init__(self, last: Optional[int] = None) -> None:
        self._done = bytearray()  # the frames before the open run
        self._blobs: list[bytes] = []  # the open run's tagged records
        self._riders = bytearray()  # its FRAME_ATTACH frames
        self._first = self._following = 0
        self._implicit = False  # may the open run, as a record, omit its index?
        self.last = last
        self.size = 0
        self.count = 0

    def _parts(self, index: int, value: Any) -> tuple[Optional[bytes], bytes]:
        """``(tagged record, rider frame)`` of a payload that joins a run,
        or ``(None, frame)`` of one framed alone."""
        blob = _tagged(value)
        if blob is None:
            return None, frame_bytes(FRAME_JSON, _json(index, value))
        if len(value) == 1:
            return blob, b""
        extra = {k: v for k, v in value.items() if k != "record"}
        return blob, frame_bytes(FRAME_ATTACH, _json(index, extra))

    def _hold(self, index: int, blob: Optional[bytes], frame: bytes) -> bool:
        self.count += 1
        self.size += len(frame)
        if blob is None:
            self._end_run()
            self._done += frame
            self.last = index
            return False
        if not self._blobs or index != self._following:
            self._end_run()
            self._first = index
            self._implicit = self.last is not None and index == self.last + 1
            self.size += FRAME_OVERHEAD + (0 if self._implicit else _I64.size)
        elif len(self._blobs) == 1 and self._implicit:
            self.size += _I64.size  # a batch names its first index
        self._following = index + 1
        self._blobs.append(blob)
        self._riders += frame
        self.size += len(blob)
        return True

    def _end_run(self) -> None:
        blobs = self._blobs
        if blobs:
            if len(blobs) > 1:
                run = frame_bytes(FRAME_BATCH, _I64.pack(self._first) + b"".join(blobs))
            elif self._implicit:
                run = frame_bytes(FRAME_RECORD, blobs[0])
            else:
                run = frame_bytes(FRAME_RECORD, blobs[0] + _I64.pack(self._first))
            self._done += run
            self._done += self._riders
            self._blobs, self._riders = [], bytearray()
            self.last = self._following - 1

    def add(self, index: int, value: Any) -> bool:
        """Hold the frames of one payload.  True when it joined a run of
        tagged records (which stays open for the next index), False when
        it was framed alone."""
        return self._hold(index, *self._parts(index, value))

    def add_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """:meth:`add` every pair, or none of them if one raises."""
        parts = [(index, *self._parts(index, value)) for index, value in items]
        for part in parts:
            self._hold(*part)

    def take(self) -> bytes:
        """Every frame held, the open run ended; the encoder is empty after."""
        self._end_run()
        out = bytes(self._done)
        self._done = bytearray()
        self.size = self.count = 0
        return out


def encode_payloads(items: Iterable[tuple[int, Any]]) -> bytes:
    """The frames of ``(index, payload)`` pairs, in order, as one
    :class:`PayloadEncoder` lays them out after frames it knows nothing
    of (so every record frame names its index)."""
    encoder = PayloadEncoder()
    encoder.add_many(items)
    return encoder.take()


# -- Journal decoding ----------------------------------------------------------


class _Corrupt(Exception):
    """A CRC-valid frame that cannot be part of the journal."""


def _index(payload: bytes) -> int:
    if len(payload) < _I64.size:
        raise _Corrupt("frame shorter than its index")
    return _I64.unpack_from(payload)[0]


class JournalReader:
    """One streaming pass over a v4 journal, one frame in memory at a time.

    :meth:`read_header` reads the magic and the header frame; iterating
    then yields ``(index, payload)`` for every record in file order (a
    batch frame yields one ``{"record": ...}`` payload per record), with
    the ``FRAME_ATTACH`` extras that follow a frame merged into the
    payload they ride on.  A frame's records are yielded once the next
    frame shows no more attachments can follow, so at each yield
    :attr:`end` is the offset just past that frame's group and ``digest``
    (a :mod:`hashlib` object, optional) has absorbed exactly the bytes
    before it.  :attr:`records` counts the records yielded, and
    :attr:`last` is the index of the last record decoded (-1 before the
    first), which an index-free ``FRAME_RECORD`` follows.

    ``cells`` decodes a ``FRAME_CELL`` payload into ``(index, value)``;
    only a cell-bag journal passes one.  Without it a cell frame is
    corrupt like any unknown kind.

    Reading stops at the first frame that is torn (past ``size``), fails
    its CRC, will not decode, has an unknown kind, or attaches to a record
    outside the frame before it: :attr:`end` is then where that frame
    starts and :attr:`reason` says why (``None`` when the journal ended on
    a frame boundary).
    """

    def __init__(
        self,
        stream: Any,
        size: int,
        digest: Any = None,
        cells: Optional[Callable[[bytes], tuple[int, Any]]] = None,
    ) -> None:
        self._stream = stream
        self._size = size
        self._digest = digest
        self._cells = cells
        self.end = 0
        self.records = 0
        self.last = -1
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

    def _decode(self, kind: int, payload: bytes) -> tuple[int, list]:
        """``(first index, payloads)`` of a record-bearing frame; moves
        :attr:`last` past them."""
        if kind == FRAME_RECORD:
            length = record_length(payload)
            (record,) = unpack_records(payload[:length])
            extra = len(payload) - length
            if extra == 0:
                index = self.last + 1
            elif extra == _I64.size:
                index = _I64.unpack_from(payload, length)[0]
            else:
                raise _Corrupt("record frame without exactly one record")
            self.last = index
            return index, [{"record": record}]
        if kind == FRAME_BATCH:
            first = _index(payload)
            items = [{"record": record} for record in unpack_records(payload, _I64.size)]
            if items:
                self.last = first + len(items) - 1
            return first, items
        if kind == FRAME_JSON:
            index = _index(payload)
            value = json.loads(payload[_I64.size:])
        elif kind == FRAME_CELL and self._cells is not None:
            index, value = self._cells(payload)
            index = int(index)
        elif kind == FRAME_CELL:
            raise _Corrupt("cell-bag frame outside a cell-bag journal")
        elif kind == FRAME_HEADER:
            return 0, []
        else:
            raise _Corrupt(f"unknown frame kind {kind}")
        self.last = index
        return index, [value]

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
                    # The target is checked before the extras decode.
                    k = _index(payload) - first
                    if not (0 <= k < len(items) and isinstance(items[k], dict)):
                        raise _Corrupt("attach without its record")
                    extra = json.loads(payload[_I64.size:])
                    if type(extra) is not dict:
                        raise _Corrupt("attach without a dict")
                    items[k].update(extra)
                else:
                    after = self._decode(kind, payload)
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
    """Decode a whole v4 journal (magic included): :class:`JournalReader`
    over an in-memory buffer, without a cell decoder.

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
    """``(index, payload)`` pairs of a v4 journal, corrupt-tail tolerant.

    Decoding stops silently at the first bad frame (see
    :func:`decode_journal`), a cell-bag frame included; an unreadable
    file, or one that is not a v4 journal (v1 to v3 journals included),
    yields ``[]``.  Duplicate indices keep the last occurrence (the
    journals' last-wins contract); pairs come back in first-seen index
    order.
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
