"""Journal format v4: narrow tagged records and index-free record frames.

A hot session record takes the narrow layout exactly when every field
fits it (a whole, non-negative float time below 2**32 that is not -0.0, an
id in [0, 2**32), for arrivals a power-of-two size within int64 and work
1.0), and the wide v3 layout otherwise; either way it decodes key for key
with the same value types.  A ``FRAME_RECORD`` names its index only when
it does not follow the record before it.  Hostile frames are cut as a
corrupt tail, and a v3 (``RJF3``) journal is refused unread.
"""

import json
import math
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.registry import make_algorithm
from repro.errors import CheckpointError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.frames import (
    FRAME_ATTACH,
    FRAME_BATCH,
    FRAME_HEADER,
    FRAME_JSON,
    FRAME_RECORD,
    JOURNAL_MAGIC,
    JOURNAL_MAGIC_V3,
    NARROW,
    PayloadEncoder,
    decode_journal,
    encode_payloads,
    frame_bytes,
    iter_journal_payloads,
    pack_record,
    record_layouts,
    scan_frames,
    unpack_records,
)

U32 = 1 << 32
INT64 = (-(1 << 63), (1 << 63) - 1)
BOUNDARY_TIMES = [0.0, -0.0, 1.0, 0.5, -1.0, U32 - 1.0, float(U32), U32 - 0.5,
                  1e300, 5e-324, float(INT64[1])]
BOUNDARY_IDS = [0, 1, -1, U32 - 1, U32, INT64[0], INT64[1]]
BOUNDARY_SIZES = [0, 1, 2, 3, 6, -2, 1 << 62, (1 << 62) + 1, (1 << 62) - 1, INT64[1]]
BOUNDARY_WORK = [1.0, 2.0, 0.5, -1.0, 0.0, 1.0000000000000002, 0.9999999999999999]
MARKS = [None, "queue", "reject", "cancel", "dequeue"]


def _record(kind, time, tid, size=1, work=1.0, slo=None):
    record = {"kind": kind, "time": time, "id": tid}
    if kind == "arrival":
        record.update(size=size, work=work)
    if slo is not None:
        record["slo"] = slo
    return record


def _fits_narrow(record) -> bool:
    t, tid = record["time"], record["id"]
    if not (0.0 <= t < U32 and t.is_integer() and math.copysign(1.0, t) > 0):
        return False
    if not 0 <= tid < U32:
        return False
    if record["kind"] != "arrival":
        return True
    size = record["size"]
    return (
        record["work"] == 1.0 and 0 < size <= 1 << 62 and size & (size - 1) == 0
    )


def _typed(value):
    """``value`` with key order and leaf types spelled out (``-0.0`` and
    ``0.0`` differ too)."""
    if isinstance(value, dict):
        return ("dict", [(k, _typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    return (type(value).__name__, repr(value))


def _journal(*frames: bytes) -> bytes:
    return JOURNAL_MAGIC + frame_bytes(FRAME_HEADER, b'{"kind": "h"}') + b"".join(frames)


def _encoded(items, last=None) -> bytes:
    encoder = PayloadEncoder(last)
    encoder.add_many(items)
    return encoder.take()


def _decoded(frames: bytes) -> list:
    data = _journal(frames)
    _header, payloads, end, reason = decode_journal(data)
    assert (end, reason) == (len(data), None)
    return list(payloads.items())


_records = st.builds(
    _record,
    kind=st.sampled_from(["arrival", "departure", "kill"]),
    time=st.one_of(st.sampled_from(BOUNDARY_TIMES),
                   st.integers(0, U32 + 2).map(float)),
    tid=st.one_of(st.sampled_from(BOUNDARY_IDS), st.integers(-3, U32 + 3)),
    size=st.one_of(st.sampled_from(BOUNDARY_SIZES),
                   st.integers(0, 64).map(lambda e: 1 << e)),
    work=st.sampled_from(BOUNDARY_WORK),
    slo=st.sampled_from(MARKS),
)


class TestNarrowWideBoundaries:
    @settings(max_examples=400, deadline=None)
    @given(record=_records)
    def test_layout_choice_and_exact_round_trip(self, record):
        blob = pack_record(record)
        in_int64 = all(
            INT64[0] <= record.get(key, 0) <= INT64[1] for key in ("id", "size")
        )
        if not in_int64:
            assert blob is None  # a JSON frame takes it
        else:
            narrow = _fits_narrow(record)
            assert bool(blob[0] & NARROW) is narrow
            arrival = record["kind"] == "arrival"
            assert len(blob) == ((10 if arrival else 9) if narrow else (33 if arrival else 17))
            (decoded,) = unpack_records(blob)
            assert _typed(decoded) == _typed(record)
        payload = {"record": record}
        for index, last in ((7, None), (0, None), (0, -1)):
            got = _decoded(_encoded([(index, payload)], last))
            assert _typed(got) == _typed([(index, payload)])

    @settings(max_examples=150, deadline=None)
    @given(records=st.lists(_records, max_size=10), first=st.integers(0, 40))
    def test_runs_mixing_narrow_and_wide(self, records, first):
        items = [(first + i, {"record": r}) for i, r in enumerate(records)]
        items.insert(len(items) // 2, (first + len(items), {"note": [1, "x"]}))
        assert _typed(_decoded(encode_payloads(items))) == _typed(items)

    @pytest.mark.parametrize("time", [-0.0, float(U32)])
    def test_times_just_outside_narrow_stay_exact(self, time):
        record = _record("departure", time, 3)
        assert len(pack_record(record)) == 17
        (decoded,) = unpack_records(pack_record(record))
        assert str(decoded["time"]) == str(time)

    def test_served_records_are_narrow(self):
        assert len(pack_record(_record("arrival", U32 - 1.0, U32 - 1, 1 << 62))) == 10
        assert len(pack_record(_record("departure", 0.0, 0, slo="cancel"))) == 9
        assert len(pack_record(_record("kill", 7.0, 7))) == 9


class TestIndexFreeRecordFrames:
    ARRIVAL = {"record": _record("arrival", 1.0, 1, 4)}
    DEPARTURE = {"record": _record("departure", 2.0, 1)}

    def test_a_record_after_the_one_before_names_no_index(self):
        encoder = PayloadEncoder(last=-1)
        sizes = []
        for index, payload in [(0, self.ARRIVAL), (1, self.DEPARTURE),
                               (3, self.ARRIVAL), (4, "json"), (5, self.DEPARTURE)]:
            encoder.add(index, payload)
            expected = encoder.size
            frames = encoder.take()
            assert len(frames) == expected
            sizes.append(len(frames))
        # 0 and 1 follow; 3 skips 2 and names its index; 5 follows JSON 4.
        assert sizes[:3] == [9 + 10, 9 + 9, 9 + 10 + 8]
        assert sizes[4] == 9 + 9

    def test_reader_infers_the_index_across_every_frame_kind(self):
        """Records framed one at a time, as ``fsync=always`` writes them,
        after a record, a rider, a JSON payload, a gap and a batch."""
        encoder = PayloadEncoder(last=-1)
        frames = b""
        for index, payload in [
            (0, self.ARRIVAL),
            (1, dict(self.DEPARTURE, delta={"events": 2})),
            (2, "json"),
            (3, self.ARRIVAL),
            (9, self.DEPARTURE),
            (10, self.ARRIVAL),
        ]:
            encoder.add(index, payload)
            frames += encoder.take()
        encoder.add_many([(11, self.DEPARTURE), (12, self.ARRIVAL)])
        frames += encoder.take()
        encoder.add(13, self.DEPARTURE)
        frames += encoder.take()
        got = _decoded(frames)
        assert [index for index, _ in got] == [0, 1, 2, 3, 9, 10, 11, 12, 13]
        assert got[1][1] == dict(self.DEPARTURE, delta={"events": 2})
        scanned, _end, _reason = scan_frames(_journal(frames), len(JOURNAL_MAGIC))
        shapes = [(k, len(p)) for k, p, _s in scanned[1:]]
        assert shapes == [
            (FRAME_RECORD, 10), (FRAME_RECORD, 9), (FRAME_ATTACH, 8 + 22),
            (FRAME_JSON, 8 + 6), (FRAME_RECORD, 10), (FRAME_RECORD, 9 + 8),
            (FRAME_RECORD, 10), (FRAME_BATCH, 8 + 9 + 10), (FRAME_RECORD, 9),
        ]

    def test_first_record_of_a_journal_is_index_zero(self):
        blob = pack_record(self.ARRIVAL["record"])
        assert _decoded(frame_bytes(FRAME_RECORD, blob)) == [(0, self.ARRIVAL)]

    def test_a_reopened_journal_follows_the_last_record_it_read(self, tmp_path):
        path = tmp_path / "j.ckpt"
        fp = {"kind": "t"}
        with CheckpointJournal(path, fingerprint=fp) as journal:
            for i in range(3):
                journal.record(i, {"record": _record("arrival", float(i), i)})
        with CheckpointJournal(path, fingerprint=fp) as journal:
            assert len(journal.completed()) == 3
            size = path.stat().st_size
            journal.record(3, {"record": _record("arrival", 3.0, 3)})
            assert path.stat().st_size - size == 9 + 10
            journal.record(0, {"record": _record("kill", 4.0, 0)})  # last wins
            assert path.stat().st_size - size == 9 + 10 + 9 + 9 + 8
        with CheckpointJournal(path, fingerprint=fp) as journal:
            done = journal.completed()
        assert sorted(done) == [0, 1, 2, 3] and done[0]["record"]["kind"] == "kill"


def _session(path, **kw):
    machine = TreeMachine(8)
    return AllocationSession(
        machine, make_algorithm("greedy", machine, d=2.0), journal_path=path,
        snapshot_interval=4, full_snapshot_interval=16, **kw,
    )


def _real_journal(path, events=6):
    session = _session(path)
    for i in range(events):
        session.push({"kind": "arrival", "size": 1, "id": i})
    session.close()
    return path.read_bytes()


def _narrow_arrival(exponent: int) -> bytes:
    return struct.pack("<BIIB", NARROW, 7, 100, exponent)


HOSTILE_FRAMES = {
    # A size exponent past int64: corrupt, never 2**200.
    "exponent-200": (frame_bytes(FRAME_RECORD, _narrow_arrival(200)),
                     "size exponent 200"),
    "exponent-63-in-batch": (
        frame_bytes(FRAME_BATCH, struct.pack("<q", 6) + _narrow_arrival(63)),
        "size exponent 63"),
    # A narrow arrival one byte short, alone and at the end of a batch.
    "truncated-record": (frame_bytes(FRAME_RECORD, _narrow_arrival(1)[:-1]),
                         "frame payload"),
    "truncated-in-batch": (
        frame_bytes(FRAME_BATCH, struct.pack("<q", 6) + _narrow_arrival(1)
                    + _narrow_arrival(1)[:-1]),
        "frame payload"),
    # Kind 3 does not exist, narrow or wide; nor does mark 5.
    "unknown-narrow-kind": (frame_bytes(FRAME_RECORD, bytes([NARROW | 3]) + bytes(8)),
                            "unknown record tag 11"),
    "unknown-narrow-mark": (frame_bytes(FRAME_RECORD, bytes([NARROW | 5 << 4]) + bytes(9)),
                            "unknown record tag 88"),
    # Neither record nor record plus index.
    "record-with-a-short-index": (
        frame_bytes(FRAME_RECORD, _narrow_arrival(1) + bytes(4)),
        "exactly one record"),
}


class TestHostileFrames:
    @pytest.fixture(params=list(HOSTILE_FRAMES))
    def hostile(self, request, tmp_path):
        """A real 6-record session journal with a hostile frame and a good
        one appended; ``(path, good length, reason)``."""
        bad, reason = HOSTILE_FRAMES[request.param]
        path = tmp_path / "hostile.journal"
        data = _real_journal(path)
        after = frame_bytes(FRAME_JSON, struct.pack("<q", 7) + b'"after"')
        path.write_bytes(data + bad + after)
        return path, len(data), reason

    def test_decode_cuts_it(self, hostile):
        path, good, reason = hostile
        _header, payloads, end, why = decode_journal(path.read_bytes())
        assert list(payloads) == list(range(6))
        assert end == good and reason in why
        assert [i for i, _ in iter_journal_payloads(path)] == list(range(6))

    def test_session_resume_truncates_it(self, hostile):
        path, good, reason = hostile
        with pytest.warns(UserWarning, match="corrupt tail"):
            session = _session(path)
        assert session.num_events == 6
        session.push({"kind": "departure", "id": 0})
        session.close()
        assert [i for i, _ in iter_journal_payloads(path)] == list(range(7))

    def test_journal_dump_reports_it(self, hostile, capsys):
        path, good, reason = hostile
        assert main(["journal", "dump", str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        (tail,) = [line for line in out.splitlines() if line.startswith("tail")]
        assert "torn (" in tail and reason in tail and f"at byte {good}," in tail
        assert "6 logical record(s)" in out


def _v3_journal(path):
    """A journal as the v3 build wrote it: magic ``RJF3``, a version-3
    header and one wide ``FRAME_RECORD`` with its index in front."""
    header = json.dumps({"kind": "repro-checkpoint", "version": 3}).encode()
    record = struct.pack("<Bdqqd", 0, 0.0, 0, 2, 1.0)
    path.write_bytes(
        JOURNAL_MAGIC_V3 + frame_bytes(FRAME_HEADER, header)
        + frame_bytes(FRAME_RECORD, struct.pack("<q", 0) + record)
        + b"\x07torn"
    )
    return path.read_bytes()


class TestV3Refusal:
    @pytest.mark.parametrize(
        "opener",
        [
            lambda path: CheckpointJournal(path, fingerprint={"kind": "x"}),
            lambda path: _session(path),
        ],
        ids=["journal", "session"],
    )
    def test_refused_unread_and_untouched(self, tmp_path, opener):
        path = tmp_path / "old.journal"
        before = _v3_journal(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no corrupt-tail warning either
            with pytest.raises(CheckpointError, match=r"v3 \(RJF3"):
                opener(path)
        assert path.read_bytes() == before

    def test_journal_dump_refuses_it(self, tmp_path, capsys):
        path = tmp_path / "old.journal"
        before = _v3_journal(path)
        assert main(["journal", "dump", str(path), "--stats"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {path} is a v3 (RJF3, wide-record) journal")
        assert "Delete it" in line
        assert path.read_bytes() == before

    def test_readers_yield_nothing(self, tmp_path):
        path = tmp_path / "old.journal"
        data = _v3_journal(path)
        assert iter_journal_payloads(path) == []
        assert decode_journal(data)[0] is None


class TestRecordLayouts:
    def test_counts_narrow_and_wide_per_kind(self):
        frames = [
            (FRAME_RECORD, pack_record(_record("arrival", 1.0, 1))),
            (FRAME_RECORD, pack_record(_record("arrival", 1.5, 2)) + struct.pack("<q", 9)),
            (FRAME_BATCH, struct.pack("<q", 10) + pack_record(_record("departure", 2.0, 1))
             + pack_record(_record("kill", -0.0, 2)) + pack_record(_record("arrival", 3.0, 3, 4, 2.0))),
            (FRAME_JSON, struct.pack("<q", 13) + b"{}"),
        ]
        assert record_layouts(frames) == {
            ("arrival", True): 1, ("arrival", False): 2,
            ("departure", True): 1, ("kill", False): 1,
        }
