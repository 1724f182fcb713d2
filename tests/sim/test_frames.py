"""Frame codec torture tests: every way a journal can break.

The v2 journal's failure modes are the service's failure modes: a
SIGKILL tears the tail mid-frame, a bad disk flips a CRC byte, a crash cuts the length prefix
short.  Each case must be *detected* (never silently mis-parsed) and,
for the scanning entry points, must surrender exactly the intact prefix.
"""

import io
import pickle

import pytest

from repro.sim.frames import (
    FRAME_ATTACH,
    FRAME_BATCH,
    FRAME_HEADER,
    FRAME_PICKLE,
    JOURNAL_MAGIC,
    FrameError,
    decode_journal,
    decode_record_batch,
    encode_wire_records,
    frame_bytes,
    iter_journal_payloads,
    read_frame,
    scan_frames,
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

class TestColumnarRoundTrips:
    def test_wire_records_roundtrip_key_for_key(self):
        blob = encode_wire_records(WIRE_RECORDS)
        assert blob is not None
        assert decode_record_batch(blob) == WIRE_RECORDS

    def test_wire_rejects_off_schema_records(self):
        assert encode_wire_records(
            [{"kind": "arrival", "time": 1.0, "id": 0, "size": 4,
              "work": 1.0, "extra": 1}]
        ) is None
        assert encode_wire_records([{"kind": "failure", "node": 4}]) is None
        # int time is valid input but off the strict hot-path schema.
        assert encode_wire_records(
            [{"kind": "departure", "time": 2, "id": 0}]
        ) is None

    def test_decode_rejects_garbage(self):
        with pytest.raises(Exception):
            decode_record_batch(b"not a pickle")
        # Only layout W exists; any other layout tag is refused.
        blob = pickle.dumps((b"R", 0, ()))
        with pytest.raises(FrameError, match="unknown batch layout"):
            decode_record_batch(blob)


class TestIterJournalPayloads:
    def test_v2_attach_merges_and_last_wins(self, tmp_path):
        path = tmp_path / "j.v2"
        path.write_bytes(
            JOURNAL_MAGIC
            + frame_bytes(1, b'{"kind": "h"}')
            + frame_bytes(FRAME_PICKLE, pickle.dumps((0, {"record": 1})))
            + frame_bytes(FRAME_ATTACH, pickle.dumps((0, {"snapshot": "s"})))
            + frame_bytes(FRAME_PICKLE, pickle.dumps((0, {"record": 2})))
        )
        assert iter_journal_payloads(path) == [(0, {"record": 2})]

    def test_v2_corrupt_tail_is_ignored(self, tmp_path):
        path = tmp_path / "j.v2"
        good = frame_bytes(FRAME_PICKLE, __import__("pickle").dumps((3, "x")))
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
        batch = encode_wire_records(WIRE_RECORDS)
        data = _journal(
            frame_bytes(FRAME_PICKLE, pickle.dumps((0, "cell"))),
            frame_bytes(FRAME_BATCH, (1).to_bytes(8, "little") + batch),
            frame_bytes(FRAME_ATTACH, pickle.dumps((2, {"delta": 1}))),
        )
        header, payloads, good_end, reason = decode_journal(data)
        assert header == {"kind": "h"}
        assert (good_end, reason) == (len(data), None)
        assert payloads[0] == "cell"
        assert [payloads[1 + i]["record"] for i in range(len(WIRE_RECORDS))] == (
            WIRE_RECORDS
        )
        assert payloads[2]["delta"] == 1

    @pytest.mark.parametrize(
        "bad, reason",
        [
            # Kind 2 was reserved for JSON records and never written.
            (frame_bytes(2, b'[1, "x"]'), "unknown frame kind 2"),
            (frame_bytes(FRAME_ATTACH, pickle.dumps((9, {"x": 1}))),
             "attach without its record"),
            (frame_bytes(FRAME_PICKLE, b"not a pickle"), "frame payload"),
        ],
    )
    def test_bad_frame_is_the_corrupt_tail(self, bad, reason):
        good = _journal(frame_bytes(FRAME_PICKLE, pickle.dumps((0, "a"))))
        after = frame_bytes(FRAME_PICKLE, pickle.dumps((1, "b")))
        header, payloads, good_end, why = decode_journal(good + bad + after)
        assert header == {"kind": "h"}
        assert payloads == {0: "a"}  # nothing past the bad frame survives
        assert good_end == len(good)
        assert reason in why

    def test_missing_header_or_magic(self):
        record = frame_bytes(FRAME_PICKLE, pickle.dumps((0, "a")))
        assert decode_journal(JOURNAL_MAGIC + record)[0] is None
        assert decode_journal(b'{"kind": "repro-checkpoint"}\n')[0] is None
