"""Restore-based resume: the state sidecar beside a session journal.

At each full checkpoint a journaled session writes ``<journal>.state``
(kernel snapshot, algorithm state, SLO controller, cursor); a resume
restores it and replays only the journal tail.  The bar:

* restore is invisible: every algorithm in every session mode resumes
  from the sidecar to exactly the state, history and later replies of a
  full replay and of an unjournaled oracle, at every sampled kill point;
* a sidecar that does not verify — torn, flipped, re-hashed, foreign,
  past a torn tail, a pickle — is ignored with a warning, never trusted,
  never executed, and the session replays the whole journal instead.
"""

import gzip
import hashlib
import json
import pickle
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.service.session as session_module
from repro.core.base import AllocationAlgorithm
from repro.core.greedy import GreedyAlgorithm
from repro.core.registry import algorithm_names, make_algorithm
from repro.errors import CheckpointError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, SLOPolicy, sequence_records
from repro.service.resume import MAGIC, SidecarWarning, read_sidecar, sidecar_path
from repro.service.stream import records_from_events
from repro.verify.journal import (
    JOURNAL_MODES,
    _fingerprint,
    check_journal_resume,
    mode_stream,
)
from repro.workloads.generators import churn_sequence

DATA = Path(__file__).parent / "data"
N = 64
INTERVALS = dict(snapshot_interval=4, full_snapshot_interval=16)


@pytest.mark.parametrize("mode", JOURNAL_MODES)
@pytest.mark.parametrize("name", algorithm_names())
def test_restore_equals_replay_at_every_kill(name, mode):
    """Each kill resumes from its sidecar and without it; both match the
    oracle of the surviving records and answer every later record alike."""
    records, options = mode_stream(mode, N, 100, np.random.default_rng(5), 5)
    outcome = check_journal_resume(
        records, algorithm=name, num_pes=N, d=0.5, seed=5, batch=7,
        kill_points=3, **options,
    )
    assert outcome.ok, outcome.divergences
    assert outcome.restored_kills > 0 and outcome.rename_kills > 0


def _session(path=None, name="periodic", n=N, **kw):
    machine = TreeMachine(n)
    options = dict(INTERVALS, **kw)
    return AllocationSession(
        machine, make_algorithm(name, machine, d=0.5, seed=3),
        journal_path=path, **options,
    )


def _churn(tasks=150, seed=1):
    return list(sequence_records(churn_sequence(N, tasks, np.random.default_rng(seed))))


def _journaled(tmp_path, records, **kw):
    path = tmp_path / "s.journal"
    session = _session(path, **kw)
    for record in records:
        session.push(dict(record))
    session.close()
    return path


def _resume(path, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("error", SidecarWarning)
        return _session(path, **kw)


class TestRestore:
    def test_restart_replays_only_the_tail(self, tmp_path):
        records = _churn()
        path = _journaled(tmp_path, records)
        resumed = _resume(path)
        # 150 records, digests every 16: restored at 144, 6 replayed.
        assert (resumed.restored_events, resumed.replayed_events) == (144, 6)
        assert resumed.num_events == 150
        resumed.close()

    def test_history_accessors_match_a_full_replay(self, tmp_path):
        records = _churn()
        path = _journaled(tmp_path, records, fault_tolerant=True)
        restored = _resume(path, fault_tolerant=True)
        sidecar_path(path).unlink()
        replayed = _session(path, fault_tolerant=True)
        assert restored.restored_events > 0 and replayed.restored_events == 0
        assert records_from_events(restored.events) == records_from_events(replayed.events)
        assert restored.sequence() == replayed.sequence()
        assert restored.fault_plan() == replayed.fault_plan()
        assert restored.resizes() == replayed.resizes()
        assert _fingerprint(restored) == _fingerprint(replayed)
        restored.close()
        replayed.close()

    def test_archive_of_a_restored_session_is_unchanged(self, tmp_path):
        """save_run after a restore writes the committed fixture archive
        (failures, repairs, a kill, a grow and a shrink)."""
        records = [json.loads(line) for line in (DATA / "fault_resize.jsonl").open()]
        path = tmp_path / "fault.journal"

        def open_session():
            # As ``repro simulate --stream --faults --n 64 --algorithm
            # periodic --d 1`` builds it, with short checkpoint intervals.
            machine = TreeMachine(N)
            return AllocationSession(
                machine, make_algorithm("periodic", machine, d=1.0, seed=0),
                journal_path=path, fault_tolerant=True, snapshot_interval=4,
                full_snapshot_interval=32,
            )

        first = open_session()
        for record in records[:250]:
            first.push(record)
        first.close()
        resumed = open_session()
        assert resumed.restored_events == 224
        for record in records[250:]:
            resumed.push(record)
        archive = tmp_path / "fault-run.json"
        resumed.save_run(archive, metadata={"workload": "stream", "seed": 0})
        resumed.close()
        expected = gzip.decompress((DATA / "fault_resize_run.json.gz").read_bytes())
        assert archive.read_bytes() == expected

    def test_sidecar_covers_the_last_full_checkpoint(self, tmp_path):
        path = _journaled(tmp_path, _churn(tasks=40))
        assert sidecar_path(path).read_bytes().startswith(MAGIC)
        image = read_sidecar(sidecar_path(path))
        assert image["index"] == image["events"] == 32
        assert image["journal_bytes"] <= path.stat().st_size

    @pytest.mark.parametrize("policy", ["batch", "interval:60000"])
    def test_kill_after_a_sidecar_write_under_buffered_fsync(
        self, policy, tmp_path, monkeypatch
    ):
        """Under a buffered fsync policy the checkpoint record is still
        pending when its sidecar is written.  A process kill right after
        the rename keeps only what the OS holds; the sidecar must verify
        against that journal."""
        path = tmp_path / "s.journal"
        kills = []
        write = session_module.write_sidecar

        def write_then_kill(target, body):
            write(target, body)
            kills.append((path.read_bytes(), target.read_bytes()))

        monkeypatch.setattr(session_module, "write_sidecar", write_then_kill)
        records = _churn(tasks=40)
        live = _session(path, fsync_policy=policy)
        for record in records:
            live.push(dict(record))
        monkeypatch.undo()
        assert len(kills) == 2  # full checkpoints at 16 and 32 events
        for n, (journal, state) in enumerate(kills):
            killed = tmp_path / f"kill{n}.journal"
            killed.write_bytes(journal)
            sidecar_path(killed).write_bytes(state)
            resumed = _resume(killed)
            assert resumed.restored_events == resumed.num_events == 16 * (n + 1)
            oracle = _session()
            for record in records[: resumed.num_events]:
                oracle.push(dict(record))
            assert _fingerprint(resumed) == _fingerprint(oracle)
            resumed.close()
        live.close()

    def test_journal_needs_a_restorable_algorithm(self, tmp_path):
        class Stateless(GreedyAlgorithm):
            state = AllocationAlgorithm.state

        machine = TreeMachine(N)
        with pytest.raises(CheckpointError, match="no restorable state"):
            AllocationSession(
                machine, Stateless(machine), journal_path=tmp_path / "s.journal"
            )
        assert not (tmp_path / "s.journal").exists()

    def test_new_journal_unlinks_a_stale_sidecar(self, tmp_path):
        path = _journaled(tmp_path, _churn(tasks=40))
        stale = sidecar_path(path).read_bytes()
        path.unlink()
        sidecar_path(path).write_bytes(stale)
        fresh = _session(path)
        assert not sidecar_path(path).exists()
        fresh.close()

    def test_degraded_copies_keep_their_failed_subtrees(self, tmp_path):
        """A sidecar taken while a subtree is down restores degraded
        copies that still block it: later arrivals land where a full
        replay puts them, never on the dead PEs."""
        path = tmp_path / "ft.journal"

        def open_session(journal=None):
            machine = TreeMachine(8)
            return AllocationSession(
                machine, make_algorithm("greedy", machine), fault_tolerant=True,
                journal_path=journal, snapshot_interval=1, full_snapshot_interval=4,
            )

        before = [
            {"kind": "arrival", "time": 0.0, "id": 0, "size": 1},
            {"kind": "failure", "time": 1.0, "node": 2},  # PEs 0-3 down
            {"kind": "arrival", "time": 2.0, "id": 1, "size": 2},
            {"kind": "arrival", "time": 3.0, "id": 2, "size": 1},
        ]
        after = [
            {"kind": "arrival", "time": 4.0 + i, "id": 3 + i, "size": size}
            for i, size in enumerate([1, 2, 1, 4, 1])
        ]
        live, oracle = open_session(path), open_session()
        for record in before:
            live.push(dict(record))
            oracle.push(dict(record))
        live.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error", SidecarWarning)
            resumed = open_session(path)
        assert resumed.restored_events == 4
        for record in after:
            assert resumed.push(dict(record)) == oracle.push(dict(record))
        assert _fingerprint(resumed) == _fingerprint(oracle)
        resumed.close()

    def test_slo_queue_and_counters_restore(self, tmp_path):
        slo = SLOPolicy(slowdown_target=1.0, queue_capacity=4)
        records = _churn(tasks=120, seed=0)
        path = tmp_path / "slo.journal"
        live = _session(path, name="greedy", slo=slo)
        oracle = _session(name="greedy", slo=slo)
        for record in records[:90]:
            live.offer(dict(record))
            oracle.offer(dict(record))
        live.close()
        resumed = _resume(path, name="greedy", slo=slo)
        assert resumed.restored_events > 0
        assert resumed.admission_queue() == oracle.admission_queue()
        assert resumed.status() == oracle.status()
        for record in records[90:]:
            assert resumed.offer(dict(record)) == oracle.offer(dict(record))
        assert _fingerprint(resumed) == _fingerprint(oracle)
        resumed.close()


class _Boom:
    """Unpickling this would create a file: proof the sidecar never is."""

    def __init__(self, target):
        self.target = target

    def __reduce__(self):
        return (Path.touch, (Path(self.target),))


def _flip(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 0x40]) + data[mid + 1:]


def _rehashed(image: dict) -> bytes:
    body = json.dumps(image).encode()
    return MAGIC + hashlib.sha256(body).hexdigest().encode() + b"\n" + zlib.compress(body)


def _hostile(kind, path, tmp_path):
    """Replace the sidecar beside ``path`` with a hostile one of ``kind``."""
    state = sidecar_path(path)
    good = state.read_bytes()
    image = read_sidecar(state)
    if kind == "truncated":
        state.write_bytes(good[: len(good) // 2])
    elif kind == "bit-flipped":
        state.write_bytes(_flip(good))
    elif kind == "wrong-hash":
        body = json.dumps(dict(image, events=image["events"] + 1)).encode()
        state.write_bytes(MAGIC + b"0" * 64 + b"\n" + zlib.compress(body))
    elif kind == "forged-state":
        # Valid hash over a body whose kernel disagrees with the journal.
        image["kernel"]["active_size"] += 1
        state.write_bytes(_rehashed(image))
    elif kind == "forged-algorithm":
        # Valid hash and kernel; an algorithm image that load_state
        # accepts but does not round-trip.
        image["algorithm"]["unknown"] = 1
        state.write_bytes(_rehashed(image))
    elif kind == "foreign":
        other = tmp_path / "other"
        other.mkdir()
        donor = _journaled(other, _churn(seed=9))
        state.write_bytes(sidecar_path(donor).read_bytes())
    elif kind == "past-torn-tail":
        data = path.read_bytes()
        path.write_bytes(data[: image["journal_bytes"] - 5])
    elif kind == "pickle":
        state.write_bytes(pickle.dumps(_Boom(tmp_path / "pwned")))
    elif kind == "pickle-after-magic":
        payload = pickle.dumps(_Boom(tmp_path / "pwned"))
        state.write_bytes(
            MAGIC + hashlib.sha256(payload).hexdigest().encode() + b"\n"
            + zlib.compress(payload)
        )
    else:  # pragma: no cover
        raise AssertionError(kind)


HOSTILE = [
    "truncated", "bit-flipped", "wrong-hash", "forged-state", "forged-algorithm",
    "foreign",
    "past-torn-tail", "pickle", "pickle-after-magic",
]


@pytest.mark.parametrize("kind", HOSTILE)
def test_hostile_sidecar_falls_back_to_full_replay(kind, tmp_path):
    records = _churn()
    path = _journaled(tmp_path, records)
    _hostile(kind, path, tmp_path)
    with pytest.warns(SidecarWarning, match="ignored"):
        resumed = _session(path)
    assert resumed.restored_events == 0
    assert not (tmp_path / "pwned").exists()
    assert not sidecar_path(path).exists()  # never trusted again
    survived = resumed.num_events
    oracle = _session()
    for record in records[:survived]:
        oracle.push(dict(record))
    assert _fingerprint(resumed) == _fingerprint(oracle)
    for record in records[survived:]:
        assert resumed.push(dict(record)) == oracle.push(dict(record))
    assert _fingerprint(resumed) == _fingerprint(oracle)
    resumed.close()
