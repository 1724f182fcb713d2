"""Framed journal torture tests: frames, digests, refusal, kills.

(The module name predates format v3; hostile journals and the exact
codec round trips are in ``test_journal_v3.py``.)  The binary journal's
contracts, attacked one at a time: a torn tail or
flipped CRC byte must surrender exactly the intact prefix with a
warning; a v1 JSONL journal of an older build must be refused and left
byte-for-byte untouched, and so must a v2 journal; tampered records must fail the delta
check and a rewritten state digest must fail the digest check; and a
SIGKILL landing *inside a delta window* (after a delta rider, before the
next state digest) must resume to the same final state as an
uninterrupted run under every fsync policy.
"""

import gzip
import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.registry import make_algorithm
from repro.errors import CheckpointError
from repro.kernel import KERNEL_STATE_VERSION
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.service.session import _state_digest
from repro.sim.checkpoint import JOURNAL_VERSION, CheckpointJournal
from repro.sim.frames import (
    FRAME_ATTACH,
    FRAME_BATCH,
    FRAME_RECORD,
    JOURNAL_MAGIC,
    decode_journal,
    frame_bytes,
    iter_journal_payloads,
    pack_record,
    record_length,
    scan_frames,
    unpack_records,
)
from repro.workloads.generators import poisson_sequence

SNAP, FULL = 4, 16
GOLDEN_DIGEST = "585ac1f50c49ab5dca26c4d485aec71874622c33e054676e8fbbb4d35c0776fd"
#: sha256 of the journal that ``push_batch`` writes for ``_golden_stream``
#: (format v4; the v3 build's journal was 3d581036...5bebce9).
GOLDEN_JOURNAL_SHA256 = (
    "11aea5abe5c6b2e7f0052dcd5b0487f432e90519afbd2c5b7d4d511b124e9f54"
)
#: The ``(index, payload)`` pairs and header the v2 (pickle-framed) build
#: journaled for the same stream, decoded by that build and saved as JSON.
EARLIER_PAYLOADS = Path(__file__).parent / "data" / "golden_push_batch.v2.json.gz"
#: A journal of a still earlier build, in format v2 (``RJF2``), whose state
#: digest hashes a kernel-state v2 snapshot: this build refuses it unread.
EARLIER_JOURNAL = Path(__file__).parent / "data" / "golden_push_batch.journal"
EARLIER_JOURNAL_SHA256 = (
    "6fa74c364a90864850d7d5a06d104a769bcbd6acf7bd857baf6f037fa2482552"
)


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _session(n=8, name="greedy", **kw):
    machine = TreeMachine(n)
    kw.setdefault("snapshot_interval", SNAP)
    kw.setdefault("full_snapshot_interval", FULL)
    return AllocationSession(machine, make_algorithm(name, machine, d=2.0), **kw)


def _records(n=8, tasks=30, seed=0):
    sigma = poisson_sequence(n, tasks, np.random.default_rng(seed))
    return list(sequence_records(sigma))


def _fill(journal, records, batch=5, **kw):
    session = _session(journal_path=journal, fsync_policy="batch", **kw)
    for i in range(0, len(records), batch):
        session.push_batch([dict(r) for r in records[i : i + batch]])
    session.close()
    return session


class TestFormatLayout:
    def test_v2_journal_is_framed_binary(self, tmp_path):
        journal = tmp_path / "s.journal"
        _fill(journal, _records(tasks=40, seed=1))
        data = journal.read_bytes()
        assert data.startswith(JOURNAL_MAGIC)
        _frames, good_end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        assert reason is None and good_end == len(data)

    def test_delta_riders_between_full_snapshots(self, tmp_path):
        journal = tmp_path / "s.journal"
        _fill(journal, _records(tasks=40, seed=1))
        payloads = dict(iter_journal_payloads(journal))
        fulls = [i for i, p in payloads.items() if "state_sha256" in p]
        deltas = [i for i, p in payloads.items() if "delta" in p]
        assert fulls and deltas
        # State digests land only on full-interval crossings; deltas fill
        # the snapshot-interval crossings in between, and never coincide.
        assert not set(fulls) & set(deltas)
        assert len(deltas) > len(fulls)  # most crossings are cheap deltas
        # No journal embeds the O(history) snapshot itself any more.
        assert not any("snapshot" in p for p in payloads.values())
        assert all(len(payloads[i]["state_sha256"]) == 64 for i in fulls)


class TestV1Refusal:
    """Journals are v2 only: a v1 JSONL journal from an older build is
    refused on open — never converted, truncated or appended to."""

    V1 = (
        '{"fingerprint": "0", "kind": "repro-checkpoint", "version": 1}\n'
        '{"cell": 0, "json": {"record": {"kind": "arrival", "time": 0.0, '
        '"id": 0, "size": 2, "work": 1.0}}}\n'
    )

    @pytest.mark.parametrize(
        "opener",
        [
            lambda path: CheckpointJournal(path, fingerprint={"kind": "x"}),
            lambda path: _session(journal_path=path),
        ],
        ids=["journal", "session"],
    )
    def test_v1_journal_is_refused_untouched(self, tmp_path, opener):
        path = tmp_path / "old.journal"
        path.write_text(self.V1)
        before = path.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no corrupt-tail warning either
            with pytest.raises(CheckpointError, match="v1 JSONL journal"):
                opener(path)
        assert path.read_bytes() == before

    def test_journal_dump_refuses_it_too(self, tmp_path, capsys):
        path = tmp_path / "old.journal"
        path.write_text(self.V1)
        assert main(["journal", "dump", str(path)]) != 0
        err = capsys.readouterr().err
        assert "v1 JSONL journal from an older build" in err
        assert "Delete it" in err
        assert path.read_text() == self.V1


class TestCorruptTails:
    def _filled(self, tmp_path, tasks=40):
        journal = tmp_path / "s.journal"
        records = _records(tasks=tasks, seed=5)
        _fill(journal, records)
        reference = _session()
        for rec in records:
            reference.push(rec)
        return journal, records, reference

    @staticmethod
    def _last_batch_frame(data):
        frames, _end, _r = scan_frames(data, len(JOURNAL_MAGIC))
        batches = [f for f in frames if f[0] == FRAME_BATCH]
        return batches[-1]

    def _recovers(self, journal, records, reference, match):
        with pytest.warns(UserWarning, match=match):
            resumed = _session(journal_path=journal, fsync_policy="batch")
        survived = resumed.num_events
        assert survived < len(records)  # the lost batch really is lost
        for rec in records[survived:]:
            resumed.push(rec)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert (
            resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()
        )
        resumed.close()

    def test_torn_tail_mid_frame(self, tmp_path):
        journal, records, reference = self._filled(tmp_path)
        data = journal.read_bytes()
        _k, payload, start = self._last_batch_frame(data)
        journal.write_bytes(data[: start + 9 + len(payload) // 2])
        self._recovers(journal, records, reference, "torn payload")

    def test_truncated_length_prefix(self, tmp_path):
        journal, records, reference = self._filled(tmp_path)
        data = journal.read_bytes()
        _k, _payload, start = self._last_batch_frame(data)
        journal.write_bytes(data[: start + 4])  # 4 bytes of its header
        self._recovers(journal, records, reference, "truncated header")

    def test_corrupted_crc_byte(self, tmp_path):
        journal, records, reference = self._filled(tmp_path)
        data = bytearray(journal.read_bytes())
        _k, _payload, start = self._last_batch_frame(bytes(data))
        data[start + 9] ^= 0x40  # flip one payload byte: CRC fails
        journal.write_bytes(bytes(data))
        self._recovers(journal, records, reference, "crc mismatch")


class TestTamperDetection:
    def test_tampered_record_fails_the_delta_check(self, tmp_path):
        """Rewriting an event (with a *valid* CRC) still cannot forge
        history: replay diverges from the journaled delta digest."""
        journal = tmp_path / "s.journal"
        session = _session(
            journal_path=journal, snapshot_interval=2, full_snapshot_interval=64
        )
        for rec in _records(tasks=12, seed=6):
            session.push(rec)
        session.close()

        data = journal.read_bytes()
        frames, _end, _r = scan_frames(data, len(JOURNAL_MAGIC))
        out = bytearray(JOURNAL_MAGIC)
        tampered = False
        for kind, payload, _pos in frames:
            if kind == FRAME_RECORD and not tampered:
                length = record_length(payload)
                (rec,) = unpack_records(payload[:length])
                if rec["kind"] == "arrival":
                    rec["size"] = max(1, rec["size"] // 2)
                    payload = pack_record(rec) + payload[length:]
                    tampered = True
            out += frame_bytes(kind, payload)
        assert tampered
        journal.write_bytes(bytes(out))
        with pytest.raises(CheckpointError, match="diverges from the"):
            _session(
                journal_path=journal, snapshot_interval=2,
                full_snapshot_interval=64,
            )

    def test_rewritten_digest_rider_names_its_event(self, tmp_path):
        """A state digest rewritten under a valid CRC fails the digest
        check at exactly the event it rides on."""
        journal = tmp_path / "s.journal"
        _fill(journal, _records(tasks=40, seed=1))
        data = journal.read_bytes()
        frames, _end, _r = scan_frames(data, len(JOURNAL_MAGIC))
        out = bytearray(JOURNAL_MAGIC)
        rewritten = None
        for kind, payload, _pos in frames:
            if kind == FRAME_ATTACH and rewritten is None:
                extra = json.loads(payload[8:])
                if "state_sha256" in extra:
                    extra["state_sha256"] = "0" * 64
                    payload = payload[:8] + json.dumps(extra).encode()
                    rewritten = int.from_bytes(payload[:8], "little")
            out += frame_bytes(kind, payload)
        assert rewritten is not None
        journal.write_bytes(bytes(out))
        with pytest.raises(
            CheckpointError, match=f"digest embedded at event {rewritten} "
        ):
            _session(journal_path=journal)


class TestDigestEncoding:
    def test_golden_digest_of_a_small_kernel(self):
        """The checkpoint digest is an on-disk format: journals written
        by one build are verified by the next.  A change to the encoder
        (or to snapshot()) shows up here first, on every Python version
        CI runs."""
        session = _session()
        session.submit(2, task_id=0)
        session.submit(4, task_id=1)
        session.submit(1, task_id=2, work=2.5)
        session.depart(1)
        session.submit(8, task_id=3)
        assert _state_digest(session.snapshot()) == GOLDEN_DIGEST


def _golden_stream(tasks=300):
    """600 arrival/departure records, fixed by arithmetic alone.

    Some arrivals omit ``work`` and some carry an int time, as JSON
    decodes them, so the stream also pins how records are normalised.
    """
    events = []
    for i in range(tasks):
        arrival = {"kind": "arrival", "time": float(i), "id": i,
                   "size": 1 << (i * 7 % 6)}
        if i % 3:
            arrival["work"] = 1.0 + (i % 5) * 0.25
        if i % 10 == 0:
            arrival["time"] = i
        events.append((float(i), 0, arrival))
        leave = i + 20.5 + (i % 7)
        events.append((leave, 1, {"kind": "departure", "time": leave, "id": i}))
    events.sort(key=lambda e: (e[0], e[1]))
    return [record for _t, _k, record in events]


def _golden_session(journal, **kw):
    machine = TreeMachine(64)
    return AllocationSession(
        machine, make_algorithm("greedy", machine, d=2.0),
        journal_path=journal, snapshot_interval=64, full_snapshot_interval=512,
        **kw,
    )


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenBatchJournal:
    """The bytes a batched journal holds are an on-disk format."""

    def test_push_batch_journal_bytes_are_pinned(self, tmp_path):
        """Three group commits of 256, 256 and 88 records: a delta rider,
        then the state digest, then a delta again."""
        journal = tmp_path / "golden.journal"
        session = _golden_session(journal, fsync_policy="batch")
        records = _golden_stream()
        for i in range(0, len(records), 256):
            session.push_batch(records[i : i + 256])
        session.close()
        payloads = dict(iter_journal_payloads(journal))
        assert [i for i, p in payloads.items() if "delta" in p] == [255, 599]
        assert [i for i, p in payloads.items() if "state_sha256" in p] == [511]
        assert _sha256(journal) == GOLDEN_JOURNAL_SHA256

    def test_matches_the_earlier_build_record_for_record(self, tmp_path):
        """Only the format moved: every record and rider is the one the
        v2 build journaled — same keys in the same order, same value
        types — and so is the header but for its version."""
        journal = tmp_path / "golden.journal"
        session = _golden_session(journal, fsync_policy="batch")
        records = _golden_stream()
        for i in range(0, len(records), 256):
            session.push_batch(records[i : i + 256])
        session.close()
        earlier = json.loads(gzip.decompress(EARLIER_PAYLOADS.read_bytes()))
        new = iter_journal_payloads(journal)
        old = [tuple(pair) for pair in earlier["payloads"]]
        assert new == old
        assert _typed(new) == _typed(old)
        header = decode_journal(journal.read_bytes())[0]
        assert header == dict(earlier["header"], version=JOURNAL_VERSION)
        assert header["workload"]["kernel_state"] == KERNEL_STATE_VERSION

    def test_earlier_build_journal_is_refused(self, tmp_path):
        """A v2 journal is refused on open, unread — before the torn
        tail appended here could be truncated away."""
        journal = tmp_path / "golden.journal"
        data = EARLIER_JOURNAL.read_bytes() + b"\x07torn"
        journal.write_bytes(data)
        assert _sha256(EARLIER_JOURNAL) == EARLIER_JOURNAL_SHA256
        with pytest.raises(CheckpointError, match=r"v2 \(RJF2"):
            _golden_session(journal)
        assert journal.read_bytes() == data


def _typed(value):
    """``value`` with every dict's key order and every leaf's type spelled
    out, so that ``1 == 1.0`` or a reordered dict cannot compare equal."""
    if isinstance(value, dict):
        return [(k, _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_typed(v) for v in value]
    return (type(value).__name__, repr(value))


class TestJournalSize:
    def test_bytes_per_record_stay_flat_under_heavy_migration(self, tmp_path):
        """A_M with d=1/16 repacks often and migrates most tasks.  Digest
        checkpoints keep the journal near the size of its records (~36 B
        here), however large the digested state."""
        n = 256
        machine = TreeMachine(n)
        journal = tmp_path / "s.journal"
        session = AllocationSession(
            machine,
            make_algorithm("periodic", machine, d=1 / 16),
            journal_path=journal,
            fsync_policy="batch",
            snapshot_interval=16,
            full_snapshot_interval=64,
        )
        sigma = poisson_sequence(n, 2000, np.random.default_rng(11))
        records = list(sequence_records(sigma))
        for i in range(0, len(records), 64):
            session.push_batch([dict(r) for r in records[i : i + 64]])
        session.close()
        per_record = journal.stat().st_size / len(records)
        assert per_record < 150, per_record
        assert session.kernel.metrics.realloc.num_migrations > 2000
        payloads = dict(iter_journal_payloads(journal))
        assert sum("state_sha256" in p for p in payloads.values()) >= 3


_KILL_CHILD = textwrap.dedent(
    """
    import json, os, signal, sys

    from repro.core.registry import make_algorithm
    from repro.machines.tree import TreeMachine
    from repro.service import AllocationSession

    journal, policy, records_path, committed = sys.argv[1:5]
    records = json.loads(open(records_path).read())
    committed = int(committed)
    machine = TreeMachine(8)
    session = AllocationSession(
        machine,
        make_algorithm("greedy", machine, d=2.0),
        journal_path=journal,
        snapshot_interval=4,
        full_snapshot_interval=16,
        fsync_policy=policy,
    )
    for i in range(0, committed, 5):
        session.push_batch(records[i : i + 5])
    session.flush()  # commit point: everything before here must survive
    print("READY", flush=True)
    for rec in records[committed:]:
        session.push(rec)  # uncommitted tail — fair game for the crash
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


class TestKillInsideDeltaWindow:
    """SIGKILL with the last state digest 9 events stale.

    ``committed=25`` of a 29-event stream with ``snapshot_interval=4``
    and ``full_snapshot_interval=16``: the last state digest rides the
    batch that crosses event 16, the last delta rides event 24, and the
    stream *ends* before the next full crossing — so wherever in
    ``[25, 29]`` the surviving journal stops (lazier fsync policies can
    leak OS-buffered tail writes past the kill), the crash lands
    mid-delta-window and resume must replay through the delta check.
    """

    @pytest.mark.parametrize("policy", ["always", "batch", "interval:3600000"])
    def test_resumes_bit_identically(self, tmp_path, policy):
        records = _records(tasks=35, seed=7)[:29]
        committed = 25
        reference = _session()
        for rec in records:
            reference.push(rec)

        records_path = tmp_path / "records.json"
        records_path.write_text(json.dumps(records))
        journal = tmp_path / "killed.journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_repo_src()), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_CHILD, str(journal), policy,
             str(records_path), str(committed)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "READY" in proc.stdout

        # The surviving journal really is mid-window: a delta rider comes
        # after the last state digest.
        payloads = dict(iter_journal_payloads(journal))
        fulls = [i for i, p in payloads.items() if "state_sha256" in p]
        deltas = [i for i, p in payloads.items() if "delta" in p]
        assert fulls and deltas and max(deltas) > max(fulls)

        with pytest.warns(UserWarning) if _has_partial_tail(journal) else _noop():
            resumed = _session(journal_path=journal, fsync_policy=policy)
        assert committed <= resumed.num_events <= len(records)
        for rec in records[resumed.num_events:]:
            resumed.push(rec)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert (
            resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()
        )


def _repo_src():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _has_partial_tail(journal) -> bool:
    data = journal.read_bytes()
    _frames, good_end, reason = scan_frames(data, len(JOURNAL_MAGIC))
    return reason is not None and good_end < len(data)


def _noop():
    import contextlib

    return contextlib.nullcontext()
