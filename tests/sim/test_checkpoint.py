"""CheckpointJournal: durability, recovery, group commit, and workload pinning."""

import hashlib
import json
import os
import stat

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.sim.checkpoint import (
    GROUP_LIMIT,
    JOURNAL_VERSION,
    CellJournal,
    CheckpointJournal,
    workload_fingerprint,
)
from repro.sim.frames import (
    FRAME_ATTACH,
    FRAME_BATCH,
    FRAME_HEADER,
    FRAME_JSON,
    FRAME_RECORD,
    JOURNAL_MAGIC,
    PayloadEncoder,
    decode_journal,
    encode_payloads,
    frame_bytes,
    scan_frames,
)

FP = {"kind": "test", "what": "checkpoint-unit"}


def _square(rng, x):
    return x * x


def _json_frame(index: int, text: bytes) -> bytes:
    return frame_bytes(FRAME_JSON, index.to_bytes(8, "little") + text)


class TestRecordAndResume:
    def test_roundtrip(self, tmp_path):
        """Cell results are any picklable value (a cell-bag journal)."""
        path = tmp_path / "j.ckpt"
        with CellJournal(path, fingerprint=FP) as journal:
            journal.record(0, {"load": 3})
            journal.record(5, (1, 2.5, "x"))
        with CellJournal(path, fingerprint=FP) as journal:
            done = journal.completed()
        assert done == {0: {"load": 3}, 5: (1, 2.5, "x")}

    def test_json_payloads_roundtrip_exactly(self, tmp_path):
        path = tmp_path / "j.ckpt"
        value = {"load": 3, "x": [1, 2.5, "x", None, True], "-0": -0.0}
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, value)
        with CheckpointJournal(path, fingerprint=FP) as journal:
            (done,) = journal.completed().values()
        assert done == value and list(done) == list(value)
        assert [type(v) for v in done["x"]] == [int, float, str, type(None), bool]
        assert str(done["-0"]) == "-0.0"

    @pytest.mark.parametrize(
        "value", [(1, 2.5), {1: "int key"}, {"x": np.int64(3)}, {"x": {1.5}}],
        ids=["tuple", "int-key", "numpy-scalar", "set"],
    )
    def test_payload_json_cannot_hold_is_refused_unwritten(self, tmp_path, value):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            size = path.stat().st_size
            with pytest.raises(TypeError, match="round-trip through JSON"):
                journal.record(0, value)
            with pytest.raises(TypeError, match="round-trip through JSON"):
                journal.record_many([(0, {"record": 1}), (1, value)])
        assert path.stat().st_size == size

    def test_cell_and_session_openers_refuse_each_other(self, tmp_path):
        cells, session = tmp_path / "cells.ckpt", tmp_path / "session.ckpt"
        CellJournal(cells, fingerprint=FP).close()
        CheckpointJournal(session, fingerprint=FP).close()
        with pytest.raises(CheckpointError, match="kind='repro-cells'"):
            CheckpointJournal(cells, fingerprint=FP)
        with pytest.raises(CheckpointError, match="kind='repro-checkpoint'"):
            CellJournal(session, fingerprint=FP)

    def test_resume_appends(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, "a")
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(1, "b")
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "a", 1: "b"}

    def test_rerecord_is_last_wins_on_reopen(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, "old")
            journal.record(0, "new")
            journal.record_many([(1, "old"), (1, "new")])
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "new", 1: "new"}

    def test_completed_is_what_was_on_disk_at_open(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, "a")
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(1, "b")
            journal.record_many([(2, "c"), (3, "d")])
            assert journal.completed() == {0: "a"}

    def test_closed_journal_refuses_records(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.ckpt", fingerprint=FP)
        journal.close()
        with pytest.raises(CheckpointError, match="closed"):
            journal.record(0, "x")


class TestWorkloadPinning:
    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "j.ckpt"
        CheckpointJournal(path, fingerprint=FP).close()
        with pytest.raises(CheckpointError, match="different workload"):
            CheckpointJournal(path, fingerprint={"kind": "test", "what": "other"})

    def test_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "j.ckpt"
        CheckpointJournal(path, fingerprint=FP).close()
        header, _payloads, _end, _reason = decode_journal(path.read_bytes())
        header["version"] = JOURNAL_VERSION + 1
        path.write_bytes(
            JOURNAL_MAGIC
            + frame_bytes(FRAME_HEADER, json.dumps(header).encode())
        )
        with pytest.raises(CheckpointError, match="version"):
            CheckpointJournal(path, fingerprint=FP)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "j.ckpt"
        path.write_bytes(b"PK\x03\x04 not a journal")
        with pytest.raises(CheckpointError, match="no readable header"):
            CheckpointJournal(path, fingerprint=FP)

    def test_workload_fingerprint_tracks_cells_and_streams(self):
        cells = [{"n": 16, "seed": 0}, {"n": 32, "seed": 1}]
        streams = list(np.random.SeedSequence(7).spawn(2))
        base = workload_fingerprint(_square, cells, streams)
        assert base == workload_fingerprint(_square, cells, streams)
        changed_cells = workload_fingerprint(_square, cells[:1], streams)
        assert changed_cells != base
        other_streams = list(np.random.SeedSequence(8).spawn(2))
        assert workload_fingerprint(_square, cells, other_streams) != base


class TestCrashRecovery:
    def _journal_with_two_records(self, path):
        journal = CheckpointJournal(path, fingerprint=FP)
        journal.record(0, "a")
        journal.record(1, "b")
        journal.close()

    def test_truncated_final_record_is_dropped_with_warning(self, tmp_path):
        path = tmp_path / "j.ckpt"
        self._journal_with_two_records(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])  # crash mid-write of the last record
        with pytest.warns(UserWarning, match="corrupt tail"):
            journal = CheckpointJournal(path, fingerprint=FP)
            assert journal.completed() == {0: "a"}
        journal.record(1, "b2")  # journal is writable again after recovery
        journal.close()
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "a", 1: "b2"}

    def test_unterminated_but_parseable_final_line_is_still_dropped(self, tmp_path):
        path = tmp_path / "j.ckpt"
        self._journal_with_two_records(path)
        # A final record whose payload is complete, loadable JSON but
        # whose frame is one byte short (its length prefix runs past EOF)
        # is still the partial write of a crash.
        frame = _json_frame(2, b'"c" ')
        with open(path, "ab") as fh:
            fh.write(frame[:-1])
        with pytest.warns(UserWarning, match="torn payload"):
            journal = CheckpointJournal(path, fingerprint=FP)
            assert journal.completed() == {0: "a", 1: "b"}
        journal.close()

    def test_garbage_record_line_truncates_from_there(self, tmp_path):
        path = tmp_path / "j.ckpt"
        self._journal_with_two_records(path)
        good = path.stat().st_size
        with open(path, "ab") as fh:
            # CRC-valid frames whose payload is not JSON: the CRC cannot
            # vouch for them, so the tail is cut at the first one.
            fh.write(_json_frame(2, b"not-json!!"))
            fh.write(_json_frame(3, b'"d"'))
        with pytest.warns(UserWarning, match="corrupt tail"):
            journal = CheckpointJournal(path, fingerprint=FP)
            assert journal.completed() == {0: "a", 1: "b"}
        journal.close()
        assert path.stat().st_size == good

    def test_missing_header_is_an_error(self, tmp_path):
        path = tmp_path / "j.ckpt"
        path.write_text("")
        with pytest.raises(CheckpointError, match="no readable header"):
            CheckpointJournal(path, fingerprint=FP)


class TestCrashConsistencySyncs:
    """The syncs a power loss needs beyond the record fsyncs: the new
    file's directory entry, and the torn-tail truncation."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """Every fsync as ``(is_dir, inode, size)`` at the time of the call."""
        calls = []
        real = os.fsync

        def spy(fd):
            st = os.fstat(fd)
            calls.append((stat.S_ISDIR(st.st_mode), st.st_ino, st.st_size))
            real(fd)

        monkeypatch.setattr(os, "fsync", spy)
        return calls

    def test_new_journal_syncs_its_directory(self, tmp_path, fsyncs):
        path = tmp_path / "sub" / "j.ckpt"
        CheckpointJournal(path, fingerprint=FP).close()
        dir_ino = os.stat(path.parent).st_ino
        assert (True, dir_ino) in [(is_dir, ino) for is_dir, ino, _ in fsyncs]
        # The directory is synced after the header is durable.
        file_syncs = [i for i, c in enumerate(fsyncs) if not c[0]]
        dir_syncs = [i for i, c in enumerate(fsyncs) if c[0]]
        assert file_syncs and dir_syncs and file_syncs[0] < dir_syncs[0]

    def test_torn_tail_truncation_is_synced(self, tmp_path, fsyncs):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, "a")
        good = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x07\x00\x00torn")
        fsyncs.clear()
        with pytest.warns(UserWarning, match="corrupt tail"):
            journal = CheckpointJournal(path, fingerprint=FP)
            journal.completed()
        # Synced by the opening pass, at the truncated size.
        assert (False, path.stat().st_ino, good) in fsyncs
        journal.close()
        assert path.stat().st_size == good


class TestFsyncPolicies:
    def test_bad_policy_is_refused(self, tmp_path):
        for bad in ("sometimes", "interval:", "interval:x", "interval:-5", "interval:0"):
            with pytest.raises(CheckpointError):
                CheckpointJournal(tmp_path / "p.ckpt", fingerprint=FP, fsync_policy=bad)

    def test_always_has_no_pending(self, tmp_path):
        with CheckpointJournal(tmp_path / "j.ckpt", fingerprint=FP) as journal:
            journal.record(0, "a")
            assert journal.pending == 0

    def test_batch_buffers_until_commit(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record(0, "a")
            journal.record(1, "b")
            assert journal.pending == 2
            journal.commit()
            assert journal.pending == 0
            journal.record(2, "c")  # left pending: close() must commit it
            assert journal.pending == 1
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "a", 1: "b", 2: "c"}

    def test_record_many_is_one_group_commit(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record_many([(i, f"v{i}") for i in range(5)])
            assert journal.pending == 0  # the batch committed atomically
            journal.record_many([])      # empty group is a no-op
            assert journal.pending == 0
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {i: f"v{i}" for i in range(5)}

    def test_record_many_under_always_is_durable(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record_many([(0, "a"), (1, "b")])
            assert journal.pending == 0

    def test_interval_policy_syncs_after_elapse(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(
            path, fingerprint=FP, fsync_policy="interval:3600000"
        ) as journal:
            journal.record(0, "a")
            assert journal.pending == 1  # one hour has not elapsed
        # interval:<tiny> syncs on (almost) every record.
        with CheckpointJournal(
            tmp_path / "k.ckpt", fingerprint=FP, fsync_policy="interval:0.0001"
        ) as journal:
            journal.record(0, "a")
            assert journal.pending == 0

    def test_resumed_journal_reads_batched_records(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record_many([(0, "a"), (1, "b")])
            journal.record(2, "c")
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="always") as journal:
            assert journal.completed() == {0: "a", 1: "b", 2: "c"}


def _arrival(i: int) -> dict:
    return {"record": {"kind": "arrival", "time": float(i), "id": i, "size": 1, "work": 1.0}}


def _frame_kinds(path) -> list[int]:
    frames, _end, reason = scan_frames(path.read_bytes(), len(JOURNAL_MAGIC))
    assert reason is None
    return [kind for kind, _payload, _start in frames]


class TestGroupCommit:
    """Under ``batch`` and ``interval:<ms>`` the records between two syncs
    are one group: held packed in user space, written as one frame."""

    @pytest.mark.parametrize("policy", ["batch", "interval:3600000"])
    def test_records_between_syncs_share_one_batch_frame(self, tmp_path, policy):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy=policy) as journal:
            size = path.stat().st_size
            for i in range(5):
                journal.record(i, _arrival(i))
            journal.record(5, dict(_arrival(5), delta={"events": 6}))
            assert path.stat().st_size == size  # all held
            journal.commit()
            journal.record(6, _arrival(6))
        assert _frame_kinds(path) == [
            FRAME_HEADER, FRAME_BATCH, FRAME_ATTACH, FRAME_RECORD
        ]
        with CheckpointJournal(path, fingerprint=FP) as journal:
            done = journal.completed()
        assert done == {i: _arrival(i) for i in range(7)} | {
            5: dict(_arrival(5), delta={"events": 6})
        }

    def test_always_writes_each_record_as_its_own_frame(self, tmp_path):
        path = tmp_path / "j.ckpt"
        items = [(0, _arrival(0)), (1, dict(_arrival(1), delta={"x": 1})), (2, "json")]
        with CheckpointJournal(path, fingerprint=FP) as journal:
            size = path.stat().st_size
            for index, value in items:
                journal.record(index, value)
        # Each record follows the one before it, so no frame names its index.
        encoder = PayloadEncoder(last=-1)
        expected = b""
        for item in items:
            encoder.add(*item)
            expected += encoder.take()
        assert path.read_bytes()[size:] == expected

    def test_payload_json_cannot_hold_leaves_group_and_file_unchanged(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record(0, _arrival(0))
            size = path.stat().st_size
            held = journal.pending, journal.pending_bytes
            with pytest.raises(TypeError, match="round-trip through JSON"):
                journal.record(1, dict(_arrival(1), delta=(1, 2)))
            with pytest.raises(TypeError, match="round-trip through JSON"):
                journal.record_many([(1, _arrival(1)), (2, {1: "int key"})])
            assert (journal.pending, journal.pending_bytes) == held
            assert path.stat().st_size == size
            journal.record(1, _arrival(1))
        assert _frame_kinds(path) == [FRAME_HEADER, FRAME_BATCH]
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: _arrival(0), 1: _arrival(1)}

    def test_pending_counts_held_records_and_their_bytes_on_disk(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            size = path.stat().st_size
            journal.record(0, _arrival(0))
            # A narrow arrival in a record frame that infers its index.
            assert (journal.pending, journal.pending_bytes) == (1, 9 + 10)
            journal.record(1, dict(_arrival(1), delta={"events": 2}))
            journal.record(2, "json")  # writes the group out, then itself
            assert journal.pending == 3
            assert journal.pending_bytes == path.stat().st_size - size
            journal.record(3, _arrival(3))
            pending_bytes = journal.pending_bytes
            written = path.stat().st_size
            journal.commit()
            assert path.stat().st_size - written == 9 + 10
            assert pending_bytes == path.stat().st_size - size
            assert (journal.pending, journal.pending_bytes) == (0, 0)

    def test_group_spills_at_the_group_limit(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            size = path.stat().st_size
            index = 0
            while journal.pending_bytes + 10 < GROUP_LIMIT:
                journal.record(index, _arrival(index))
                index += 1
            assert path.stat().st_size == size  # still held
            journal.record(index, _arrival(index))
            assert path.stat().st_size - size == 9 + 8 + 10 * (index + 1)
            assert path.stat().st_size - size >= GROUP_LIMIT
            assert journal.pending == index + 1  # written, not yet fsynced
        assert _frame_kinds(path) == [FRAME_HEADER, FRAME_BATCH]

    def test_content_digest_covers_held_records(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            for i in range(3):
                journal.record(i, _arrival(i))
            length, digest = journal.content_digest()
            data = path.read_bytes()
            assert length == len(data)
            assert digest == hashlib.sha256(data).hexdigest()
            assert journal.pending == 3  # handed to the OS, not synced

    def test_record_many_takes_the_group_as_its_head(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record(0, _arrival(0))
            journal.record(1, _arrival(1))
            journal.record_many([(2, _arrival(2)), (3, _arrival(3))])
            assert journal.pending == 0
            data = path.read_bytes()
        assert _frame_kinds(path) == [FRAME_HEADER, FRAME_BATCH]
        assert data.endswith(encode_payloads([(i, _arrival(i)) for i in range(4)]))

    def test_sync_due_only_under_interval_with_records_pending(self, tmp_path):
        with CheckpointJournal(
            tmp_path / "i.ckpt", fingerprint=FP, fsync_policy="interval:3600000"
        ) as journal:
            assert journal.sync_due() is None
            journal.record(0, _arrival(0))
            assert 0 < journal.sync_due() <= 3600
            journal.commit()
            assert journal.sync_due() is None
        with CheckpointJournal(
            tmp_path / "b.ckpt", fingerprint=FP, fsync_policy="batch"
        ) as journal:
            journal.record(0, _arrival(0))
            assert journal.sync_due() is None
