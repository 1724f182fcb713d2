"""Batched ingest through the service layer: push_batch + group commit.

Three contracts: (1) ``push_batch`` is bit-identical to per-event
``push`` — decisions, kernel state, journal resumability; (2) a batch
that fails part-way applies and journals exactly the per-event prefix;
(3) under every fsync policy, a SIGKILLed session resumes to identical
final metrics after replaying the lost tail, losing at most the records
since the last commit — one uncommitted batch.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import BatchError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.workloads.generators import churn_sequence, poisson_sequence


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _session(n=8, name="greedy", **kw):
    machine = TreeMachine(n)
    return AllocationSession(machine, make_algorithm(name, machine, d=2.0), **kw)


def _records(n=8, tasks=30, seed=0, generator=poisson_sequence):
    sigma = generator(n, tasks, np.random.default_rng(seed))
    return list(sequence_records(sigma))


def _chunks(items, rng):
    out, i = [], 0
    while i < len(items):
        k = int(rng.integers(1, 9))
        out.append(items[i : i + k])
        i += k
    return out


class TestPushBatchEquivalence:
    @pytest.mark.parametrize("name", ["greedy", "periodic"])
    def test_matches_per_event_push(self, name):
        records = _records(tasks=40, seed=3, generator=churn_sequence)
        serial = _session(name=name)
        expected = [serial.push(rec) for rec in records]
        batched = _session(name=name)
        got = []
        for chunk in _chunks(records, np.random.default_rng(3)):
            got.extend(batched.push_batch(chunk).decisions)
        assert got == expected
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())
        assert batched.status() == serial.status()
        assert batched.now == serial.now
        assert batched._cursor == serial._cursor

    def test_auto_clock_and_ids_match(self):
        """Records without time/id get the same assignments either way."""
        bare = [{"kind": "arrival", "size": 2} for _ in range(6)]
        bare += [{"kind": "departure", "id": i} for i in range(3)]
        serial = _session()
        expected = [serial.push(dict(rec)) for rec in bare]
        batched = _session()
        got = list(batched.push_batch(bare).decisions)
        got += list(batched.push_batch([]).decisions)  # empty batch: no-op
        assert got == expected
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())

    def test_batched_journal_resumes_identically(self, tmp_path):
        records = _records(tasks=30, seed=7)
        reference = _session()
        for rec in records:
            reference.push(rec)

        journal = tmp_path / "batched.journal"
        writer = _session(
            journal_path=journal, snapshot_interval=4, fsync_policy="batch"
        )
        for chunk in _chunks(records, np.random.default_rng(7)):
            writer.push_batch(chunk)
        writer.close()

        resumed = _session(journal_path=journal, snapshot_interval=4)
        assert resumed.num_events == len(records)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()

    @pytest.mark.parametrize("size", [2, 10], ids=["loop", "columnar"])
    def test_id_beyond_int64_is_journaled(self, tmp_path, size):
        """The columnar journal frame holds int64 ids; a batch carrying a
        larger one falls back to per-record frames and still resumes."""
        records = [
            {"kind": "arrival", "time": float(i), "id": 2**70 + i, "size": 2}
            for i in range(size)
        ]
        journal = tmp_path / "big.journal"
        writer = _session(journal_path=journal, fsync_policy="batch")
        assert len(writer.push_batch(records).decisions) == size
        writer.close()
        resumed = _session(journal_path=journal)
        assert resumed.num_events == size
        assert _digest(resumed.snapshot()) == _digest(writer.snapshot())

    def test_fault_records_in_batches(self):
        serial = _session(fault_tolerant=True)
        batched = _session(fault_tolerant=True)
        script = [
            {"kind": "arrival", "size": 2, "id": 0},
            {"kind": "arrival", "size": 2, "id": 1},
            {"kind": "failure", "node": 4},
            {"kind": "kill", "id": 0},
            {"kind": "repair", "node": 4},
        ]
        expected = [serial.push(dict(rec)) for rec in script]
        got = list(batched.push_batch(script).decisions)
        assert got == expected
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())


#: Invalid records, among them hostile numbers a decoder must refuse
#: rather than coerce: a NaN or infinite time, a fractional size, a
#: boolean or fractional id.
INVALID_RECORDS = [
    {"kind": "nonsense"},
    {"kind": "departure", "time": float("nan"), "id": 0},
    {"kind": "arrival", "time": float("inf"), "size": 2},
    {"kind": "arrival", "size": 1.7},
    {"kind": "arrival", "size": 2, "id": True},
    {"kind": "departure", "id": 0.5},
]


class TestPushBatchFailure:
    def test_invalid_record_applies_prefix(self, tmp_path):
        records = _records(tasks=10, seed=1)
        k = 4
        serial = _session()
        expected = [serial.push(rec) for rec in records[:k]]

        for case, bad in enumerate(INVALID_RECORDS):
            batch = records[:k] + [bad] + records[k:]
            journal = tmp_path / f"fail-{case}.journal"
            batched = _session(journal_path=journal, fsync_policy="batch")
            with pytest.raises(BatchError) as info:
                batched.push_batch(batch)
            assert info.value.applied == k, bad
            assert list(info.value.decisions) == expected, bad
            assert _digest(batched.snapshot()) == _digest(serial.snapshot())
            assert batched.status() == serial.status(), bad
            batched.close()
            # The journaled prefix is replayable.
            resumed = _session(journal_path=journal)
            assert resumed.num_events == k
            assert _digest(resumed.snapshot()) == _digest(serial.snapshot())
            resumed.close()

    def test_kernel_rejection_applies_prefix(self):
        serial = _session()
        serial.push({"kind": "arrival", "size": 2, "id": 0})
        batched = _session()
        with pytest.raises(BatchError) as info:
            batched.push_batch(
                [
                    {"kind": "arrival", "size": 2, "id": 0},
                    {"kind": "departure", "id": 42},  # unknown task
                    {"kind": "arrival", "size": 2, "id": 1},
                ]
            )
        assert info.value.applied == 1
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())


_KILL_CHILD = textwrap.dedent(
    """
    import json, os, signal, sys

    import numpy as np

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


class TestKillResumeEveryPolicy:
    @pytest.mark.parametrize(
        "policy", ["always", "batch", "interval:3600000"]
    )
    def test_sigkill_loses_at_most_uncommitted_tail(self, tmp_path, policy):
        records = _records(tasks=25, seed=13)
        committed = 15
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
            [
                sys.executable,
                "-c",
                _KILL_CHILD,
                str(journal),
                policy,
                str(records_path),
                str(committed),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "READY" in proc.stdout

        with pytest.warns(UserWarning) if _has_partial_tail(journal) else _noop():
            resumed = _session(
                journal_path=journal, snapshot_interval=4, fsync_policy=policy
            )
        # Loss window: everything up to the last flush() survived; at most
        # the uncommitted tail (one batch) is gone.
        assert committed <= resumed.num_events <= len(records)
        for rec in records[resumed.num_events:]:
            resumed.push(rec)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()


def _repo_src():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _has_partial_tail(journal) -> bool:
    from repro.sim.frames import JOURNAL_MAGIC, scan_frames

    data = journal.read_bytes()
    if data.startswith(JOURNAL_MAGIC):
        _frames, good_end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        return reason is not None and good_end < len(data)
    text = data.decode("utf-8")
    return bool(text) and not text.endswith("\n")


def _noop():
    import contextlib

    return contextlib.nullcontext()
