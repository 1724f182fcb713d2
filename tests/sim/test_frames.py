"""Frame codec torture tests: every way a journal can break.

The journal's failure modes are the service's failure modes: a
SIGKILL tears the tail mid-frame, a bad disk flips a CRC byte, a crash cuts the length prefix
short.  Each case must be *detected* (never silently mis-parsed) and,
for the scanning entry points, must surrender exactly the intact prefix.
"""

import io
import pickle
import struct

import pytest

from repro.sim.frames import (
    FRAME_ATTACH,
    FRAME_BATCH,
    FRAME_CELL,
    FRAME_HEADER,
    FRAME_JSON,
    FRAME_RECORD,
    JOURNAL_MAGIC,
    JOURNAL_MAGIC_V2,
    FrameError,
    decode_journal,
    frame_bytes,
    iter_journal_payloads,
    pack_record,
    read_frame,
    scan_frames,
    unpack_records,
)


def _stream(*frames: bytes) -> io.BytesIO:
    return io.BytesIO(b"".join(frames))


class TestReadFrame:
    def test_roundtrip(self):
        stream = _stream(frame_bytes(7, b"hello"), frame_bytes(2, b""))
        assert read_frame(stream) == (7, b"hello")
        assert read_frame(stream) == (2, b"")
        assert read_frame(stream) is None  # clean EOF

    def test_truncated_length_prefix(self):
        data = frame_bytes(1, b"payload")
        with pytest.raises(FrameError, match="truncated header"):
            read_frame(_stream(data[:4]))  # cut inside the u32 length

    def test_torn_payload(self):
        data = frame_bytes(1, b"payload")
        with pytest.raises(FrameError, match="torn payload"):
            read_frame(_stream(data[:-3]))

    def test_corrupted_crc(self):
        data = bytearray(frame_bytes(1, b"payload"))
        data[-1] ^= 0xFF  # flip a payload byte: CRC no longer matches
        with pytest.raises(FrameError, match="crc mismatch"):
            read_frame(_stream(bytes(data)))


class TestScanFrames:
    def test_clean_buffer_ends_on_boundary(self):
        data = frame_bytes(1, b"a") + frame_bytes(2, b"bb")
        frames, good_end, reason = scan_frames(data)
        assert [(k, p) for k, p, _s in frames] == [(1, b"a"), (2, b"bb")]
        assert (good_end, reason) == (len(data), None)

    def test_torn_tail_mid_frame(self):
        keep = frame_bytes(1, b"a")
        torn = frame_bytes(2, b"bb" * 10)
        frames, good_end, reason = scan_frames(keep + torn[:-5])
        assert [(k, p) for k, p, _s in frames] == [(1, b"a")]
        assert good_end == len(keep)
        assert reason == "torn payload"

    def test_truncated_header_tail(self):
        keep = frame_bytes(1, b"a")
        frames, good_end, reason = scan_frames(keep + b"\x03\x00")
        assert len(frames) == 1
        assert good_end == len(keep)
        assert reason == "truncated header"

    def test_corrupt_crc_stops_scan_there(self):
        """A flipped byte mid-file surrenders everything from that frame
        on — frames *before* the corruption are still served."""
        a, b, c = (frame_bytes(1, bytes([i]) * 8) for i in range(3))
        data = bytearray(a + b + c)
        data[len(a) + 9 + 2] ^= 0x01  # inside b's payload
        frames, good_end, reason = scan_frames(bytes(data))
        assert len(frames) == 1 and frames[0][1] == b"\x00" * 8
        assert good_end == len(a)
        assert reason == "crc mismatch"

    def test_offset_skips_magic(self):
        data = JOURNAL_MAGIC + frame_bytes(1, b"x")
        frames, _end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        assert [(k, p) for k, p, _s in frames] == [(1, b"x")]
        assert reason is None


WIRE_RECORDS = [
    {"kind": "arrival", "time": 1.0, "id": 0, "size": 4, "work": 2.5},
    {"kind": "departure", "time": 2.0, "id": 0},
    {"kind": "arrival", "time": 3.5, "id": 1, "size": 1, "work": 1.0},
]


def _i64(index: int) -> bytes:
    return index.to_bytes(8, "little", signed=True)


def _json_frame(index: int, text: bytes) -> bytes:
    return frame_bytes(FRAME_JSON, _i64(index) + text)


def _packed(records) -> bytes:
    return b"".join(pack_record(r) for r in records)


class TestBatchRoundTrips:
    """The batch record codec (tagged fixed-width records, which replaced
    the columnar layout of the v2 format)."""

    def test_wire_records_roundtrip_key_for_key(self):
        blob = _packed(WIRE_RECORDS)
        # Work 2.5 and time 3.5 keep two arrivals wide; the departure is
        # narrow.
        assert len(blob) == 33 + 9 + 33
        decoded = unpack_records(blob)
        assert decoded == WIRE_RECORDS
        assert [list(r) for r in decoded] == [list(r) for r in WIRE_RECORDS]

    def test_wire_rejects_off_schema_records(self):
        assert pack_record(
            {"kind": "arrival", "time": 1.0, "id": 0, "size": 4,
             "work": 1.0, "extra": 1}
        ) is None
        assert pack_record({"kind": "failure", "node": 4}) is None
        # int time is valid input but off the strict hot-path schema.
        assert pack_record({"kind": "departure", "time": 2, "id": 0}) is None
        # Keys out of the order a decode rebuilds.
        assert pack_record({"time": 2.0, "kind": "departure", "id": 0}) is None
        assert pack_record({"kind": "departure", "time": 2.0, "id": 1 << 63}) is None
        assert pack_record(
            {"kind": "departure", "time": 2.0, "id": 0, "slo": "held"}
        ) is None

    def test_decode_rejects_garbage(self):
        with pytest.raises(FrameError, match="unknown record tag 255"):
            unpack_records(b"\xff" + bytes(16))
        # A record cut short.
        with pytest.raises(struct.error):
            unpack_records(_packed(WIRE_RECORDS)[:-1])


class TestIterJournalPayloads:
    def test_v2_attach_merges_and_last_wins(self, tmp_path):
        path = tmp_path / "j.v3"
        path.write_bytes(
            JOURNAL_MAGIC
            + frame_bytes(1, b'{"kind": "h"}')
            + _json_frame(0, b'{"record": 1}')
            + frame_bytes(FRAME_ATTACH, _i64(0) + b'{"snapshot": "s"}')
            + _json_frame(0, b'{"record": 2}')
        )
        assert iter_journal_payloads(path) == [(0, {"record": 2})]

    def test_v2_corrupt_tail_is_ignored(self, tmp_path):
        path = tmp_path / "j.v3"
        good = _json_frame(3, b'"x"')
        path.write_bytes(
            JOURNAL_MAGIC + frame_bytes(1, b"{}") + good + b"\x07\x00\x00"
        )
        assert iter_journal_payloads(path) == [(3, "x")]

    def test_v1_unterminated_tail_is_ignored(self, tmp_path):
        """A v1 JSONL journal of an older build is not read at all: its
        torn tail, and every complete line before it, yield nothing."""
        path = tmp_path / "j.v1"
        path.write_text(
            '{"kind": "h"}\n'
            '{"cell": 0, "json": {"record": "a"}}\n'
            '{"cell": 1, "json": {"record": '
        )
        assert iter_journal_payloads(path) == []

    def test_v2_journal_is_not_read(self, tmp_path):
        path = tmp_path / "j.v2"
        path.write_bytes(
            JOURNAL_MAGIC_V2
            + frame_bytes(1, b'{"kind": "h"}')
            + frame_bytes(3, pickle.dumps((0, "a")))
        )
        assert iter_journal_payloads(path) == []

    def test_unrecognisable_file_is_empty(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\x02")
        assert iter_journal_payloads(path) == []
        assert iter_journal_payloads(tmp_path / "absent") == []


def _journal(*frames: bytes) -> bytes:
    return JOURNAL_MAGIC + frame_bytes(FRAME_HEADER, b'{"kind": "h"}') + b"".join(
        frames
    )


class TestDecodeJournal:
    """The one decoder behind both the journal's open and the iterator."""

    def test_clean_journal_decodes_every_kind(self):
        data = _journal(
            _json_frame(0, b'"cell"'),
            frame_bytes(FRAME_BATCH, _i64(1) + _packed(WIRE_RECORDS)),
            frame_bytes(FRAME_ATTACH, _i64(2) + b'{"delta": 1}'),
            frame_bytes(FRAME_RECORD, _packed(WIRE_RECORDS[:1]) + _i64(4)),
        )
        header, payloads, good_end, reason = decode_journal(data)
        assert header == {"kind": "h"}
        assert (good_end, reason) == (len(data), None)
        assert payloads[0] == "cell"
        assert [payloads[1 + i]["record"] for i in range(len(WIRE_RECORDS))] == (
            WIRE_RECORDS
        )
        assert payloads[2]["delta"] == 1
        assert payloads[4] == {"record": WIRE_RECORDS[0]}

    @pytest.mark.parametrize(
        "bad, reason",
        [
            # Kind 2 is reserved and never written.
            (frame_bytes(2, b'[1, "x"]'), "unknown frame kind 2"),
            # A v2 pickle attach: its "index" is pickle bytes, so the
            # target check refuses it before anything is decoded.
            (frame_bytes(FRAME_ATTACH, pickle.dumps((9, {"x": 1}))),
             "attach without its record"),
            (frame_bytes(FRAME_JSON, b"not a pickle"), "frame payload"),
        ],
    )
    def test_bad_frame_is_the_corrupt_tail(self, bad, reason):
        good = _journal(_json_frame(0, b'"a"'))
        after = _json_frame(1, b'"b"')
        header, payloads, good_end, why = decode_journal(good + bad + after)
        assert header == {"kind": "h"}
        assert payloads == {0: "a"}  # nothing past the bad frame survives
        assert good_end == len(good)
        assert reason in why

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (frame_bytes(FRAME_CELL, pickle.dumps((1, "b"))),
             "cell-bag frame outside a cell-bag journal"),
            (frame_bytes(FRAME_BATCH, _i64(1) + b"\x0b" + bytes(16)),
             "unknown record tag 11"),
            (frame_bytes(FRAME_RECORD, _packed(WIRE_RECORDS[:2]) + _i64(1)),
             "exactly one record"),
            (frame_bytes(FRAME_RECORD, _packed(WIRE_RECORDS[:1])[:-2]),
             "frame payload"),
            (frame_bytes(FRAME_JSON, b"\x01"), "shorter than its index"),
            (frame_bytes(FRAME_ATTACH, _i64(0) + b"[1]"), "attach without a dict"),
        ],
        ids=["cell", "tag", "record-of-two", "short-record", "short-json",
             "attach-list"],
    )
    def test_v3_frame_that_will_not_decode_is_the_corrupt_tail(self, bad, reason):
        good = _journal(_json_frame(0, b'{"a": 1}'))
        header, payloads, good_end, why = decode_journal(
            good + bad + _json_frame(2, b'"c"')
        )
        assert payloads == {0: {"a": 1}} and good_end == len(good)
        assert reason in why

    def test_missing_header_or_magic(self):
        record = _json_frame(0, b'"a"')
        assert decode_journal(JOURNAL_MAGIC + record)[0] is None
        assert decode_journal(b'{"kind": "repro-checkpoint"}\n')[0] is None
        v2 = JOURNAL_MAGIC_V2 + frame_bytes(FRAME_HEADER, b'{"kind": "h"}')
        assert decode_journal(v2)[0] is None
