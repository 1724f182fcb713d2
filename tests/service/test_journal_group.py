"""Group commit inside the session journal, seen from the session.

Under ``fsync=batch`` and ``interval:<ms>`` the events a session pushes
one at a time between two syncs share one ``FRAME_BATCH``.  A full
checkpoint writes the group out before its state sidecar pins the
journal, so a resume restores from the sidecar; and a kill that tears a
coalesced batch frame loses exactly that group, the events before it
resuming as they were.
"""

import warnings

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, records_from_events, sequence_records
from repro.service.resume import SidecarWarning, read_sidecar, sidecar_path
from repro.sim.frames import FRAME_ATTACH, FRAME_BATCH, JOURNAL_MAGIC, scan_frames
from repro.workloads.generators import churn_sequence

N = 16
FULL = 32
POLICIES = ["batch", "interval:3600000"]


def _session(path, policy):
    machine = TreeMachine(N)
    return AllocationSession(
        machine, make_algorithm("greedy", machine, d=2.0), journal_path=path,
        fsync_policy=policy, snapshot_interval=8, full_snapshot_interval=FULL,
    )


def _records(tasks=60):
    return list(sequence_records(churn_sequence(N, tasks, np.random.default_rng(3))))


def _frames(data):
    frames, end, reason = scan_frames(data, len(JOURNAL_MAGIC))
    assert reason is None and end == len(data)
    return frames[1:]  # past the header


def _snapshot_after(records, policy):
    """The kernel snapshot of an unjournaled session fed ``records``."""
    session = _session(None, policy)
    try:
        for record in records:
            session.push(record)
        return session.snapshot()
    finally:
        session.close()


def _resume(path, policy):
    with warnings.catch_warnings():
        warnings.simplefilter("error", SidecarWarning)
        return _session(path, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_full_checkpoint_sidecar_ends_its_group(tmp_path, policy):
    path = tmp_path / "s.journal"
    records = _records()
    session = _session(path, policy)
    for record in records[: FULL + 5]:
        session.push(record)
    # Killed here: the five events after the checkpoint are still held.
    data = path.read_bytes()
    image = read_sidecar(sidecar_path(path))
    session.close()
    assert image["journal_bytes"] == len(data) and image["index"] == FULL
    kinds = [kind for kind, _payload, _start in _frames(data)]
    # The events up to the checkpoint are one batch frame; its last
    # carries the state digest rider, among the delta riders.
    assert kinds[0] == FRAME_BATCH and set(kinds[1:]) == {FRAME_ATTACH}

    killed = tmp_path / "killed.journal"
    killed.write_bytes(data)
    sidecar_path(killed).write_bytes(sidecar_path(path).read_bytes())
    resumed = _resume(killed, policy)
    try:
        assert (resumed.restored_events, resumed.replayed_events) == (FULL, 0)
        assert resumed.snapshot() == _snapshot_after(records[:FULL], policy)
    finally:
        resumed.close()


@pytest.mark.parametrize("policy", POLICIES)
def test_torn_coalesced_batch_loses_exactly_its_group(tmp_path, policy):
    path = tmp_path / "s.journal"
    records = _records()
    session = _session(path, policy)
    for start in range(0, len(records), 10):
        for record in records[start : start + 10]:
            session.push(record)
        session.flush()
    session.close()
    data = path.read_bytes()
    whole = _session(path, policy)
    history = records_from_events(whole.events)
    whole.close()
    groups = [
        (start, len(payload), int.from_bytes(payload[:8], "little", signed=True))
        for kind, payload, start in _frames(data)
        if kind == FRAME_BATCH
    ]
    assert len(groups) >= 4
    start, length, first = groups[len(groups) // 2]
    assert first > 0

    killed = tmp_path / "killed.journal"
    killed.write_bytes(data[: start + 9 + length // 2])  # inside the batch frame
    with pytest.warns(UserWarning, match="corrupt tail"):
        resumed = _session(killed, policy)
    try:
        assert resumed.num_events == first
        assert resumed.snapshot() == _snapshot_after(records[:first], policy)
        assert records_from_events(resumed.events) == history[:first]
    finally:
        resumed.close()

