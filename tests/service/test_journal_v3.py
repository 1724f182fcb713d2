"""Journal format v3: hostile journals never run code, and the codec is exact.

No reader of a session journal unpickles.  Each hostile journal below
carries a pickle whose ``__reduce__`` would create a marker file; a
session resume, ``repro journal dump``, :func:`decode_journal` and
:func:`iter_journal_payloads` must each refuse it or cut it as a corrupt
tail, and the marker must never appear.

The tagged-record and JSON codecs must give back every payload a session
writes exactly: equal dicts, the same key order and the same value type
per key, through a single ``FRAME_RECORD`` and through a ``record_many``
run that mixes fixed-width and JSON-framed records.
"""

import json
import pickle
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.registry import make_algorithm
from repro.errors import CheckpointError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession
from repro.sim.checkpoint import CellJournal, CheckpointJournal
from repro.sim.frames import (
    FRAME_CELL,
    FRAME_HEADER,
    FRAME_JSON,
    FRAME_RECORD,
    JOURNAL_MAGIC,
    JOURNAL_MAGIC_V2,
    decode_journal,
    PayloadEncoder,
    encode_payloads,
    frame_bytes,
    iter_journal_payloads,
    scan_frames,
)


class _Boom:
    """Unpickling this creates a file: proof the journal never is."""

    def __init__(self, target):
        self.target = target

    def __reduce__(self):
        return (Path.touch, (Path(self.target),))


def _session(path, **kw):
    machine = TreeMachine(8)
    return AllocationSession(
        machine, make_algorithm("greedy", machine, d=2.0), journal_path=path,
        snapshot_interval=4, full_snapshot_interval=16, **kw,
    )


def _real_journal(path, events=6):
    """A genuine session journal: its header carries the real fingerprint."""
    session = _session(path)
    for i in range(events):
        session.push({"kind": "arrival", "size": 1, "id": i})
    session.close()
    return decode_journal(path.read_bytes())[0]


def _v2_with_pickle(tmp_path, marker):
    """An ``RJF2`` journal with the session's real header (as v2) and a
    pickle record frame (v2's kind 3)."""
    header = _real_journal(tmp_path / "real.journal")
    path = tmp_path / "hostile.journal"
    path.write_bytes(
        JOURNAL_MAGIC_V2
        + frame_bytes(FRAME_HEADER, json.dumps(dict(header, version=2)).encode())
        + frame_bytes(3, pickle.dumps((0, {"record": _Boom(marker)})))
    )
    return path, 0


def _v3_with_cell_frame(tmp_path, marker):
    """A real ``RJF3`` session journal with a cell frame after its third
    record frame, and real frames after that."""
    path = tmp_path / "hostile.journal"
    _real_journal(path)
    data = path.read_bytes()
    frames, _end, _reason = scan_frames(data, len(JOURNAL_MAGIC))
    records = [start for kind, _p, start in frames if kind == FRAME_RECORD]
    cut = records[3]
    cell = frame_bytes(FRAME_CELL, pickle.dumps((3, {"record": _Boom(marker)})))
    path.write_bytes(data[:cut] + cell + data[cut:])
    return path, 3


def _cell_bag_header(tmp_path, marker):
    """A cell-bag journal that pins the session's real fingerprint."""
    header = _real_journal(tmp_path / "real.journal")
    path = tmp_path / "hostile.journal"
    with CellJournal(path, fingerprint=header["workload"]) as journal:
        journal.record(0, {"record": _Boom(marker)})
    return path, 0


HOSTILE = {
    "rjf2-pickle": _v2_with_pickle,
    "rjf3-cell-frame": _v3_with_cell_frame,
    "cell-bag-header": _cell_bag_header,
}


@pytest.fixture(params=list(HOSTILE))
def hostile(request, tmp_path):
    """``(name, path, records before the pickle, marker)``."""
    marker = tmp_path / "pwned"
    path, kept = HOSTILE[request.param](tmp_path, marker)
    yield request.param, path, kept, marker
    assert not marker.exists()


class TestHostileJournals:
    def test_session_resume(self, hostile):
        name, path, kept, marker = hostile
        before = path.read_bytes()
        if name == "rjf3-cell-frame":
            with pytest.warns(UserWarning, match="cell-bag frame outside"):
                session = _session(path)
            assert session.num_events == kept
            session.close()
            assert len(path.read_bytes()) < len(before)  # the tail is cut
        else:
            match = "v2 \\(RJF2" if name == "rjf2-pickle" else "kind='repro-cells'"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CheckpointError, match=match):
                    _session(path)
            assert path.read_bytes() == before
        assert not marker.exists()

    def test_journal_dump(self, hostile, capsys):
        name, path, kept, marker = hostile
        code = main(["journal", "dump", str(path), "--stats", "--head", "5"])
        captured = capsys.readouterr()
        if name == "rjf2-pickle":
            assert code == 2
            assert "v2 (RJF2, pickle-framed) journal" in captured.err
        else:
            assert code == 0
            out = captured.out
            if name == "rjf3-cell-frame":
                assert "torn (cell-bag frame outside a cell-bag journal)" in out
                assert f"{kept} logical record(s)" in out
            else:
                assert "1 cell result(s), not decoded" in out
        assert not marker.exists()

    def test_decode_journal(self, hostile):
        name, path, kept, marker = hostile
        header, payloads, _end, reason = decode_journal(path.read_bytes())
        assert list(payloads) == list(range(kept))
        if name == "rjf2-pickle":
            assert header is None and reason == "no journal magic"
        else:
            assert "cell-bag frame outside a cell-bag journal" in reason
        assert not marker.exists()

    def test_iter_journal_payloads(self, hostile):
        name, path, kept, marker = hostile
        assert [i for i, _ in iter_journal_payloads(path)] == list(range(kept))
        assert not marker.exists()

    def test_only_the_cell_bag_opener_unpickles(self, tmp_path):
        """The cell-bag journal does unpickle, so it is the caller's own
        file: the control case showing the marker would appear."""
        marker = tmp_path / "pwned"
        path = tmp_path / "cells.ckpt"
        with CellJournal(path, fingerprint={"kind": "t"}) as journal:
            journal.record(0, _Boom(marker))
        with pytest.raises(CheckpointError, match="kind='repro-cells'"):
            CheckpointJournal(path, fingerprint={"kind": "t"})
        assert not marker.exists()
        with CellJournal(path, fingerprint={"kind": "t"}) as journal:
            journal.completed()
        assert marker.exists()


# -- Exact round trips -----------------------------------------------------------


def _typed(value):
    """``value`` with every dict's key order and every leaf's type spelled
    out, so that ``1 == 1.0`` or a reordered dict cannot compare equal."""
    if isinstance(value, dict):
        return ("dict", [(k, _typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    return (type(value).__name__, repr(value))


def _decoded(frames: bytes) -> list:
    data = (
        JOURNAL_MAGIC
        + frame_bytes(FRAME_HEADER, b'{"kind": "h"}')
        + frames
    )
    header, payloads, end, reason = decode_journal(data)
    assert (end, reason) == (len(data), None)
    return list(payloads.items())


def _assert_exact(got, want):
    assert got == want
    assert _typed(got) == _typed(want)


INT64 = (-(1 << 63), (1 << 63) - 1)
EDGE_INTS = [0, -1, INT64[0], INT64[1], INT64[0] - 1, INT64[1] + 1, 1 << 64, -(1 << 100)]
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 0.1]
MARKS = [None, "queue", "reject", "cancel", "dequeue"]


def _hot(kind, time, tid, size=1, work=1.0, slo=None):
    record = {"kind": kind, "time": time, "id": tid}
    if kind == "arrival":
        record.update(size=size, work=work)
    if slo is not None:
        record["slo"] = slo
    return record


SESSION_SHAPES = [
    *(_hot(kind, 3.5, 7, 4, 2.25, slo)
      for kind in ("arrival", "departure", "kill") for slo in MARKS),
    {"kind": "resize", "time": 9.0, "op": "grow", "factor": 2},
    {"kind": "resize", "time": 9.0, "op": "shrink", "factor": 4},
    {"kind": "failure", "time": 1.0, "node": 3},
    {"kind": "repair", "time": 2.0, "node": 3},
]
RIDERS = [
    {},
    {"delta": {"events": 64, "now": 63.5, "offered": 64, "next_id": 40,
               "tasks": 12, "active": 30, "peak_active": 41, "max_load": 3,
               "peak_load": 4}},
    {"state_sha256": "ab" * 32},
]


class TestExactRoundTrip:
    @pytest.mark.parametrize("rider", RIDERS, ids=["bare", "delta", "digest"])
    @pytest.mark.parametrize("record", SESSION_SHAPES, ids=lambda r: "-".join(
        str(r.get(k)) for k in ("kind", "slo", "op")))
    def test_every_session_shape(self, record, rider):
        payload = {"record": record, **rider}
        _assert_exact(_decoded(encode_payloads([(5, payload)])), [(5, payload)])
        mixed = [(4, {"record": _hot("arrival", 1.0, 1)}), (5, payload),
                 (6, {"record": _hot("departure", 2.0, 1)})]
        _assert_exact(_decoded(encode_payloads(mixed)), mixed)

    def test_hot_records_take_fixed_width_frames(self):
        arrival = {"record": _hot("arrival", 0.0, 0, 2, 1.0)}
        departure = {"record": _hot("departure", 1.0, 0)}
        assert len(encode_payloads([(0, arrival)])) == 9 + 8 + 33  # 50 B
        assert len(encode_payloads([(1, departure)])) == 9 + 8 + 17
        batch = encode_payloads([(0, arrival), (1, departure)])
        assert len(batch) == 9 + 8 + 33 + 17

    @pytest.mark.parametrize("tid", EDGE_INTS)
    @pytest.mark.parametrize("size", EDGE_INTS[:4] + EDGE_INTS[-2:])
    def test_int64_edges_and_beyond(self, tid, size):
        payload = {"record": _hot("arrival", 1.0, tid, size, 1.0)}
        frames = encode_payloads([(0, payload)])
        inside = all(INT64[0] <= v <= INT64[1] for v in (tid, size))
        kind = frames[4]
        assert kind == (FRAME_RECORD if inside else FRAME_JSON)
        _assert_exact(_decoded(frames), [(0, payload)])

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_float_edges(self, value):
        payload = {"record": _hot("arrival", value, 1, 2, value, "queue")}
        got = _decoded(encode_payloads([(0, payload)]))
        _assert_exact(got, [(0, payload)])
        record = got[0][1]["record"]
        assert str(record["time"]) == str(value) == str(record["work"])

    def test_through_a_journal_file(self, tmp_path):
        path = tmp_path / "j.journal"
        items = [(i, {"record": r}) for i, r in enumerate(SESSION_SHAPES)]
        items += [(len(items), dict(items[0][1], **RIDERS[1]))]
        with CheckpointJournal(path, fingerprint={"kind": "t"}) as journal:
            journal.record(*items[0])
            journal.record_many(items[1:])
        with CheckpointJournal(path, fingerprint={"kind": "t"}) as journal:
            _assert_exact(list(journal.records()), items)


_times = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_FLOATS))
_ints = st.one_of(st.integers(*INT64), st.sampled_from(EDGE_INTS),
                  st.integers(-(1 << 80), 1 << 80))
_hot_records = st.builds(
    _hot,
    kind=st.sampled_from(["arrival", "departure", "kill"]),
    time=_times, tid=_ints, size=_ints, work=_times,
    slo=st.sampled_from(MARKS),
)
_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70),
    st.floats(allow_nan=False), st.text(max_size=6),
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_off_schema = st.one_of(
    st.sampled_from(SESSION_SHAPES[-4:]),
    # A hot record with one field off the schema: an int time, an extra
    # key, a reordered key, an unknown mark.
    _hot_records.map(lambda r: dict(r, time=int(r["time"]) if abs(r["time"]) < 1e18 else 0)),
    _hot_records.map(lambda r: dict(r, extra=[1, "x"])),
    _hot_records.map(lambda r: {"time": r["time"], **r}),
    _hot_records.map(lambda r: dict(r, slo="held")),
)
_payloads = st.builds(
    lambda record, rider, extra: {"record": record, **rider, **extra},
    st.one_of(_hot_records, _off_schema),
    st.sampled_from(RIDERS),
    st.dictionaries(st.sampled_from(["x", "y"]), _json_value, max_size=1),
)


class TestExactRoundTripProperties:
    @settings(max_examples=300, deadline=None)
    @given(payload=_payloads, index=st.integers(0, 1 << 40))
    def test_one_record_frame(self, payload, index):
        encoder = PayloadEncoder()
        encoder.add(index, payload)
        size = encoder.size
        frames = encoder.take()
        _assert_exact(_decoded(frames), [(index, payload)])
        assert len(frames) == size and encoder.take() == b""
        assert encode_payloads([(index, payload)]) == frames

    @settings(max_examples=150, deadline=None)
    @given(payloads=st.lists(_payloads, max_size=12), first=st.integers(0, 1 << 20),
           gap=st.integers(0, 12))
    def test_record_many_run(self, payloads, first, gap):
        items = list(enumerate(payloads, first))
        # A jump in the indices splits a run of fixed-width records.
        items = [(i + (gap if k > gap else 0), p) for k, (i, p) in enumerate(items)]
        _assert_exact(_decoded(encode_payloads(items)), items)
