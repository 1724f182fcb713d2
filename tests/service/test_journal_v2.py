"""Framed (v2) journal torture tests: frames, digests, refusal, kills.

The binary journal's contracts, attacked one at a time: a torn tail or
flipped CRC byte must surrender exactly the intact prefix with a
warning; a v1 JSONL journal of an older build must be refused and left
byte-for-byte untouched; tampered records must fail the delta check, a
rewritten state digest must fail the digest check, and a divergence in
history alone must still be caught; journals that embed full snapshots
(older builds) must keep resuming; and a SIGKILL landing *inside a delta
window* (after a delta rider, before the next state digest) must resume
to the same final state as an uninterrupted run under every fsync
policy.
"""

import hashlib
import json
import os
import pickle
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
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.service.session import _state_digest
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.frames import (
    JOURNAL_MAGIC,
    frame_bytes,
    iter_journal_payloads,
    scan_frames,
)
from repro.workloads.generators import poisson_sequence

SNAP, FULL = 4, 16
GOLDEN_DIGEST = "8ac8ceff5511b49d6e4fbb0701ffec66154b0274cb72fdf5836ac22a1f4f6761"
#: sha256 of the journal that ``push_batch`` writes for ``_golden_stream``.
GOLDEN_JOURNAL_SHA256 = (
    "6fa74c364a90864850d7d5a06d104a769bcbd6acf7bd857baf6f037fa2482552"
)
#: That journal as an earlier build wrote it (the build whose batch path
#: had its own column encoder); a later build must resume it verified.
GOLDEN_JOURNAL = Path(__file__).parent / "data" / "golden_push_batch.journal"


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
        batches = [f for f in frames if f[0] == 4]  # FRAME_BATCH
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
            if kind == 3 and not tampered:  # FRAME_PICKLE
                index, value = pickle.loads(payload)
                rec = value.get("record", {}) if isinstance(value, dict) else {}
                if rec.get("kind") == "arrival":
                    rec["size"] = max(1, rec["size"] // 2)
                    payload = pickle.dumps((index, value))
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
            if kind == 5 and rewritten is None:  # FRAME_ATTACH
                index, extra = pickle.loads(payload)
                if "state_sha256" in extra:
                    extra["state_sha256"] = "0" * 64
                    payload = pickle.dumps((index, extra))
                    rewritten = index
            out += frame_bytes(kind, payload)
        assert rewritten is not None
        journal.write_bytes(bytes(out))
        with pytest.raises(
            CheckpointError, match=f"digest embedded at event {rewritten} "
        ):
            _session(journal_path=journal)

    def test_history_only_divergence_fails_the_digest(
        self, tmp_path, monkeypatch
    ):
        """The digest still covers history: a departed task's placement
        log, which no delta rider and no later decision can see, is
        rewritten during replay and the next digest must refuse it."""
        journal = tmp_path / "s.journal"
        records = _records(tasks=40, seed=1)
        _fill(journal, records)
        payloads = dict(iter_journal_payloads(journal))
        digests = sorted(i for i, p in payloads.items() if "state_sha256" in p)
        target = digests[-1]
        departed = [
            (i, r["record"]["id"])
            for i, r in payloads.items()
            if i < target and r["record"]["kind"] == "departure"
        ]
        # Tamper after a departure that precedes the last digest but
        # follows the digest before it, so that digest is the one to fail.
        after = digests[-2] if len(digests) > 1 else -1
        at, victim = next((i, t) for i, t in departed if i > after)

        original = AllocationSession.push_replay

        def replay(self, record):
            decision = original(self, record)
            if self.num_events == at + 1:
                log = self.kernel._placement_log[victim]
                t, node = log[0]
                log[0] = (t, node + 1)
            return decision

        monkeypatch.setattr(AllocationSession, "push_replay", replay)
        with pytest.raises(
            CheckpointError, match=f"digest embedded at event {target} "
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

    def test_earlier_build_journal_resumes_with_every_rider_verified(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "golden.journal"
        journal.write_bytes(GOLDEN_JOURNAL.read_bytes())
        assert _sha256(journal) == GOLDEN_JOURNAL_SHA256
        digests, deltas = [], []
        real_delta = AllocationSession._delta_state
        monkeypatch.setattr(
            "repro.service.session._state_digest",
            lambda state: digests.append(1) or _state_digest(state),
        )
        monkeypatch.setattr(
            AllocationSession, "_delta_state",
            lambda self: deltas.append(1) or real_delta(self),
        )
        resumed = _golden_session(journal)
        assert (len(digests), len(deltas)) == (1, 2)

        reference = _golden_session(None)
        for record in _golden_stream():
            reference.push(record)
        assert resumed.num_events == reference.num_events == 600
        assert resumed.snapshot() == reference.snapshot()
        assert resumed.status() == reference.status()
        resumed.close()


class TestLegacySnapshotRiders:
    """Journals written by builds that embedded the full snapshot."""

    @staticmethod
    def _write(journal, records, rider):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(AllocationSession, "_checkpoint_rider", rider)
            _fill(journal, records)

    def test_full_snapshot_riders_still_resume(self, tmp_path):
        records = _records(tasks=40, seed=8)
        cut = 2 * len(records) // 3
        journal = tmp_path / "legacy.journal"
        self._write(
            journal, records[:cut],
            lambda self: {"snapshot": self.kernel.snapshot()},
        )
        payloads = dict(iter_journal_payloads(journal))
        assert any("snapshot" in p for p in payloads.values())
        reference = _session()
        for rec in records:
            reference.push(rec)

        resumed = _session(journal_path=journal)
        assert resumed.num_events == cut
        for rec in records[cut:]:
            resumed.push(rec)
        resumed.close()
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert (
            resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()
        )

    def test_tampered_legacy_snapshot_is_refused(self, tmp_path):
        def rider(self):
            snap = self.kernel.snapshot()
            snap["active_size"] += 1  # not the state replay reaches
            return {"snapshot": snap}

        journal = tmp_path / "legacy.journal"
        self._write(journal, _records(tasks=40, seed=8), rider)
        with pytest.raises(CheckpointError, match="diverges from the snapshot"):
            _session(journal_path=journal)


class TestJournalSize:
    def test_bytes_per_record_stay_flat_under_heavy_migration(self, tmp_path):
        """A_M with d=1/16 repacks often and migrates most tasks, and the
        kernel snapshot keeps every placement and load sample ever made,
        so it grows with history.  Digest checkpoints keep the journal
        near the size of its records (~36 B here); embedding the
        snapshot at the same 62 checkpoints cost ~1.35 KB per record."""
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
