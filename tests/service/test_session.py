"""Online session tests: live metrics, durability, and crash resume.

The acceptance bar for the service layer: a streaming session killed
mid-run and resumed from its journal reaches exactly the same final
metrics as an uninterrupted run, and a session's event history replayed
through the batch simulator agrees bit-for-bit.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import CheckpointError, SimulationError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.sim.frames import FRAME_PICKLE, JOURNAL_MAGIC, frame_bytes, scan_frames
from repro.workloads.generators import poisson_sequence


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _session(n=8, name="greedy", **kw):
    machine = TreeMachine(n)
    return AllocationSession(machine, make_algorithm(name, machine, d=2.0), **kw)


def _records(n=8, tasks=30, seed=0):
    sigma = poisson_sequence(n, tasks, np.random.default_rng(seed))
    return list(sequence_records(sigma))


class TestLiveSession:
    def test_running_metrics_any_instant(self):
        s = _session()
        s.submit(4)
        assert (s.max_load, s.optimal_load) == (1, 1)
        s.submit(8, time=0.5)
        s.submit(8, time=0.5)
        # Two machine-spanning tasks over the size-4 task's half: load 3.
        assert s.max_load == 3
        assert s.optimal_load == 3  # ceil(20 / 8) peak active volume
        assert s.competitive_ratio == pytest.approx(1.0)
        status = s.status()
        assert status["events"] == 3 and status["active_tasks"] == 3

    def test_clock_is_monotonic(self):
        s = _session()
        s.submit(1, time=5.0)
        with pytest.raises(SimulationError, match="precedes the session clock"):
            s.submit(1, time=4.0)

    def test_auto_ids_skip_past_explicit_ones(self):
        s = _session()
        s.submit(1, task_id=10)
        decision = s.submit(1)
        assert decision.task_id == 11

    def test_fault_events_need_fault_tolerance(self):
        s = _session()
        with pytest.raises(SimulationError, match="fault-tolerant session"):
            s.fail(4)

    def test_fault_tolerant_session_salvages(self):
        s = _session(n=8, fault_tolerant=True)
        s.submit(2)
        s.submit(2)
        decision = s.fail(4)  # a leaf-level subtree
        assert decision.kind == "failure"
        assert s.status()["failures"] == 1
        assert s.status()["min_surviving_pes"] < 8
        s.repair(4)
        s.kill(0)
        assert s.status()["kills"] == 1

    def test_push_matches_named_methods(self):
        a, b = _session(), _session()
        a.submit(4, time=1.0, task_id=0)
        a.depart(0, time=2.0)
        b.push({"kind": "arrival", "size": 4, "time": 1.0, "id": 0})
        b.push({"kind": "departure", "id": 0, "time": 2.0})
        assert _digest(a.snapshot()) == _digest(b.snapshot())


class TestBatchAgreement:
    def test_streamed_run_equals_batch_run(self, tmp_path):
        """The same events through the session and the batch simulator
        produce identical metrics — one kernel, two drivers."""
        from repro.sim.engine import Simulator

        n, records = 8, _records(tasks=40, seed=2)
        session = _session(n, journal_path=tmp_path / "s.journal")
        for rec in records:
            session.push(rec)

        machine = TreeMachine(n)
        sim = Simulator(machine, make_algorithm("greedy", machine, d=2.0))
        result = sim.run(session.sequence())
        assert result.metrics.to_state() == session.kernel.metrics.to_state()
        assert result.final_placements == session.placements
        assert result.optimal_load == session.optimal_load

    def test_save_run_archives_and_audits(self, tmp_path):
        from repro.sim.archive import load_run, load_run_events
        from repro.sim.audit import audit_run

        session = _session(journal_path=tmp_path / "s.journal")
        records = _records(tasks=25, seed=4)
        for rec in records:
            session.push(rec)
        path = tmp_path / "run.json"
        session.save_run(path, metadata={"origin": "test"})

        machine, sequence, intervals = load_run(path)
        audit_run(machine, sequence, intervals).raise_if_failed()
        embedded = load_run_events(path)
        assert embedded == records
        # A batch archive has no embedded events — loader returns [].
        from repro.sim.engine import Simulator
        from repro.sim.archive import save_run

        m2 = TreeMachine(8)
        sim = Simulator(m2, make_algorithm("greedy", m2))
        sim.run(sequence)
        batch_path = tmp_path / "batch.json"
        save_run(batch_path, m2, sequence, sim)
        assert load_run_events(batch_path) == []


class TestResume:
    def test_kill_and_resume_reaches_identical_final_state(self, tmp_path):
        records = _records(tasks=40, seed=9)
        cut = len(records) // 2

        # The uninterrupted reference run.
        reference = _session()
        for rec in records:
            reference.push(rec)

        # The crashed run: journal, absorb half, vanish without close().
        journal = tmp_path / "session.journal"
        first = _session(journal_path=journal, snapshot_interval=4)
        for rec in records[:cut]:
            first.push(rec)
        del first  # no close: the crash case

        resumed = _session(journal_path=journal, snapshot_interval=4)
        assert resumed.num_events == cut
        for rec in records[cut:]:
            resumed.push(rec)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()
        assert resumed.status() == reference.status()

    def test_resume_with_faults(self, tmp_path):
        journal = tmp_path / "faulty.journal"
        first = _session(fault_tolerant=True, journal_path=journal,
                         snapshot_interval=2)
        first.submit(2)
        first.submit(2)
        first.fail(4)
        first.kill(0)
        snap = first.snapshot()
        first.close()

        resumed = _session(fault_tolerant=True, journal_path=journal,
                           snapshot_interval=2)
        assert _digest(resumed.snapshot()) == _digest(snap)
        assert resumed.status()["failures"] == 1
        resumed.repair(4)
        assert resumed.status()["min_surviving_pes"] == 6

    def test_resume_refuses_different_configuration(self, tmp_path):
        journal = tmp_path / "cfg.journal"
        s = _session(name="greedy", journal_path=journal)
        s.submit(1)
        s.close()
        with pytest.raises(CheckpointError, match="different workload"):
            _session(name="firstfit", journal_path=journal)

    def test_resume_detects_divergent_replay(self, tmp_path):
        """A record rewritten under a valid CRC fails the embedded
        state-digest check."""
        journal = tmp_path / "tamper.journal"
        intervals = dict(snapshot_interval=2, full_snapshot_interval=2)
        s = _session(journal_path=journal, **intervals)
        s.submit(2)
        s.submit(4)
        s.close()

        data = journal.read_bytes()
        frames, _end, _reason = scan_frames(data, len(JOURNAL_MAGIC))
        out = bytearray(JOURNAL_MAGIC)
        for kind, payload, _pos in frames:
            if kind == FRAME_PICKLE:
                index, value = pickle.loads(payload)
                if index == 0:  # first event record
                    value["record"]["size"] = 1  # not what the digest saw
                    payload = pickle.dumps((index, value))
            out += frame_bytes(kind, payload)
        journal.write_bytes(bytes(out))

        with pytest.raises(CheckpointError, match="diverges from the snapshot"):
            _session(journal_path=journal, **intervals)
