"""CheckpointJournal: durability, recovery, and workload pinning."""

import json
import os
import pickle
import stat

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.sim.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    workload_fingerprint,
)
from repro.sim.frames import (
    FRAME_HEADER,
    FRAME_PICKLE,
    JOURNAL_MAGIC,
    decode_journal,
    frame_bytes,
)

FP = {"kind": "test", "what": "checkpoint-unit"}


def _square(rng, x):
    return x * x


class TestRecordAndResume:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, {"load": 3})
            journal.record(5, (1, 2.5, "x"))
        with CheckpointJournal(path, fingerprint=FP) as journal:
            done = journal.completed()
        assert done == {0: {"load": 3}, 5: (1, 2.5, "x")}

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
        # A final record whose payload is a complete, loadable pickle but
        # whose frame is one byte short (its length prefix runs past EOF)
        # is still the partial write of a crash.
        payload = pickle.dumps((2, "c"))
        header = frame_bytes(FRAME_PICKLE, payload + b"\x00")[:9]
        with open(path, "ab") as fh:
            fh.write(header + payload)
        with pytest.warns(UserWarning, match="torn payload"):
            journal = CheckpointJournal(path, fingerprint=FP)
            assert journal.completed() == {0: "a", 1: "b"}
        journal.close()

    def test_garbage_record_line_truncates_from_there(self, tmp_path):
        path = tmp_path / "j.ckpt"
        self._journal_with_two_records(path)
        good = path.stat().st_size
        with open(path, "ab") as fh:
            # CRC-valid frames whose payload is not a pickle: the CRC
            # cannot vouch for them, so the tail is cut at the first one.
            fh.write(frame_bytes(FRAME_PICKLE, b"not-a-pickle!!"))
            fh.write(frame_bytes(FRAME_PICKLE, pickle.dumps((3, "d"))))
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
