"""Journal format v2 torture tests: frames, digests, negotiation, kills.

The binary journal's contracts, attacked one at a time: a torn tail or
flipped CRC byte must surrender exactly the intact prefix with a
warning; a v1 journal reopened by v2-default code must stay v1 and
resume bit-identically; tampered records must fail the delta check, a
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

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import CheckpointError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.service.session import _state_digest
from repro.sim.frames import (
    JOURNAL_MAGIC,
    frame_bytes,
    iter_journal_payloads,
    scan_frames,
)
from repro.workloads.generators import poisson_sequence

SNAP, FULL = 4, 16
GOLDEN_DIGEST = "8ac8ceff5511b49d6e4fbb0701ffec66154b0274cb72fdf5836ac22a1f4f6761"


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

    def test_v1_requested_stays_jsonl(self, tmp_path):
        journal = tmp_path / "s.journal"
        _fill(journal, _records(tasks=10, seed=2), journal_format="v1")
        text = journal.read_text()
        assert text.startswith("{")
        # v1 raw-JSON records: plain payloads keep their JSON shape
        # instead of the old pickle+base64 double encoding.
        body = text.splitlines()[1:]
        assert any('"json"' in line for line in body)
        assert not any('"data"' in line for line in body)


class TestFormatNegotiation:
    def test_v1_reopened_by_v2_default_stays_v1(self, tmp_path):
        records = _records(tasks=30, seed=3)
        cut = len(records) // 2
        reference = _session()
        for rec in records:
            reference.push(rec)

        journal = tmp_path / "old.journal"
        _fill(journal, records[:cut], journal_format="v1")

        resumed = _session(journal_path=journal)  # journal_format="v2"
        assert resumed.num_events == cut
        for rec in records[cut:]:
            resumed.push(rec)
        resumed.close()
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        # The appended tail is still JSONL — a journal never mixes formats.
        assert not journal.read_bytes().startswith(JOURNAL_MAGIC)
        assert journal.read_text().endswith("\n")

    def test_v2_reopened_with_v1_request_stays_v2(self, tmp_path):
        records = _records(tasks=20, seed=4)
        journal = tmp_path / "new.journal"
        _fill(journal, records)
        resumed = _session(journal_path=journal, journal_format="v1")
        assert resumed.num_events == len(records)
        resumed.submit(2)
        resumed.close()
        data = journal.read_bytes()
        assert data.startswith(JOURNAL_MAGIC)
        _frames, _end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        assert reason is None


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


class TestLegacySnapshotRiders:
    """Journals written by builds that embedded the full snapshot."""

    @staticmethod
    def _write(journal, records, fmt, rider):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(AllocationSession, "_checkpoint_rider", rider)
            _fill(journal, records, journal_format=fmt)

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_full_snapshot_riders_still_resume(self, tmp_path, fmt):
        records = _records(tasks=40, seed=8)
        cut = 2 * len(records) // 3
        journal = tmp_path / f"legacy.{fmt}"
        self._write(
            journal, records[:cut], fmt,
            lambda self: {"snapshot": self.kernel.snapshot()},
        )
        payloads = dict(iter_journal_payloads(journal))
        assert any("snapshot" in p for p in payloads.values())
        reference = _session()
        for rec in records:
            reference.push(rec)

        resumed = _session(journal_path=journal, journal_format=fmt)
        assert resumed.num_events == cut
        for rec in records[cut:]:
            resumed.push(rec)
        resumed.close()
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert (
            resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()
        )

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_tampered_legacy_snapshot_is_refused(self, tmp_path, fmt):
        def rider(self):
            snap = self.kernel.snapshot()
            snap["active_size"] += 1  # not the state replay reaches
            return {"snapshot": snap}

        journal = tmp_path / f"legacy.{fmt}"
        self._write(journal, _records(tasks=40, seed=8), fmt, rider)
        with pytest.raises(CheckpointError, match="diverges from the snapshot"):
            _session(journal_path=journal, journal_format=fmt)


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
    if data.startswith(JOURNAL_MAGIC):
        _frames, good_end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        return reason is not None and good_end < len(data)
    text = data.decode("utf-8")
    return bool(text) and not text.endswith("\n")


def _noop():
    import contextlib

    return contextlib.nullcontext()
