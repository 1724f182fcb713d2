"""A session's event history is its journal.

``events``, ``sequence()``, ``fault_plan()``, ``resizes()`` and the
``save_run`` archive decode the journal, so they must read the same
whether the session ran uninterrupted, was resumed from its state
sidecar, or was resumed by a full replay — for a plain stream, a stream
of failures, repairs, kills and resizes, and an SLO stream that queues,
rejects, cancels and dequeues.  Without a journal there is no history.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.registry import make_algorithm
from repro.errors import SimulationError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, SLOPolicy, sequence_records
from repro.service.resume import sidecar_path
from repro.service.stream import records_from_events
from repro.sim.frames import iter_journal_payloads
from repro.workloads.generators import churn_sequence

DATA = Path(__file__).parent / "data"


def _plain():
    records = list(sequence_records(churn_sequence(64, 150, np.random.default_rng(1))))
    return records, {"name": "greedy"}


def _faults():
    records = [json.loads(line) for line in (DATA / "fault_resize.jsonl").open()]
    return records, {"name": "periodic", "d": 1.0, "fault_tolerant": True}


def _slo():
    records = list(sequence_records(churn_sequence(64, 120, np.random.default_rng(0))))
    slo = SLOPolicy(slowdown_target=1.0, queue_capacity=4)
    return records, {"name": "greedy", "slo": slo}


STREAMS = {"plain": _plain, "faults": _faults, "slo": _slo}


def _session(path=None, *, name, d=2.0, fsync_policy="batch", **kw):
    machine = TreeMachine(64)
    return AllocationSession(
        machine, make_algorithm(name, machine, d=d, seed=0), journal_path=path,
        snapshot_interval=4, full_snapshot_interval=16, fsync_policy=fsync_policy, **kw,
    )


def _feed(session, records):
    for record in records:
        session.push(dict(record))


def _history(session, archive):
    """Everything a session reads from its journal, archive bytes included."""
    session.save_run(archive, metadata={"seed": 0})
    return {
        "events": records_from_events(session.events),
        "sequence": session.sequence(),
        "fault_plan": session.fault_plan(),
        "resizes": session.resizes(),
        "archive": archive.read_bytes(),
    }


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("fsync", ["always", "batch"])
def test_history_is_the_same_uninterrupted_restored_and_replayed(stream, fsync, tmp_path):
    records, options = STREAMS[stream]()
    cut = 2 * len(records) // 3

    whole = _session(tmp_path / "whole.journal", fsync_policy=fsync, **options)
    _feed(whole, records)
    expected = _history(whole, tmp_path / "whole.json")
    assert len(expected["events"]) == whole.num_events
    whole.close()

    for how in ("restored", "replayed"):
        path = tmp_path / f"{how}.journal"
        first = _session(path, fsync_policy=fsync, **options)
        _feed(first, records[:cut])
        first.close()
        if how == "replayed":
            sidecar_path(path).unlink()
        resumed = _session(path, fsync_policy=fsync, **options)
        assert (resumed.restored_events > 0) == (how == "restored")
        _feed(resumed, records[cut:])
        assert _history(resumed, tmp_path / f"{how}.json") == expected, how
        resumed.close()


def test_streams_cover_every_record_kind_and_admission_mark(tmp_path):
    kinds, marks = set(), set()
    for stream in STREAMS.values():
        records, options = stream()
        path = tmp_path / f"{len(kinds)}.journal"
        session = _session(path, **options)
        _feed(session, records)
        session.close()
        for _index, payload in iter_journal_payloads(path):
            kinds.add(payload["record"]["kind"])
            marks.add(payload["record"].get("slo"))
    assert kinds == {"arrival", "departure", "failure", "repair", "kill", "resize"}
    assert marks == {None, "queue", "reject", "cancel", "dequeue"}


def test_history_reads_records_still_buffered(tmp_path):
    """Under ``fsync=batch`` a lone push stays in the user-space buffer;
    reading the history hands it to the OS first."""
    records, options = _plain()
    path = tmp_path / "s.journal"
    session = _session(path, **options)
    _feed(session, records[:20])  # before the first full checkpoint's flush
    on_disk = path.stat().st_size
    assert session.journal_pending == 20
    events = session.events
    assert path.stat().st_size > on_disk
    assert records_from_events(events) == [
        {key: value for key, value in record.items() if key != "work" or value != 1.0}
        for record in records[:20]
    ]
    assert session.journal_pending == 20  # handed to the OS, not fsync'd
    session.close()


def test_unjournaled_session_has_no_history(tmp_path):
    records, options = _faults()
    session = _session(**options)
    _feed(session, records[:10])
    for read in (
        lambda: session.events,
        session.sequence,
        session.fault_plan,
        session.resizes,
        lambda: session.save_run(tmp_path / "run.json"),
    ):
        with pytest.raises(SimulationError, match="journal_path"):
            read()
    assert not (tmp_path / "run.json").exists()


def test_stdin_serve_without_a_journal_refuses_save_and_serves_on(
    capsys, monkeypatch, tmp_path
):
    target = tmp_path / "run.json"
    lines = [
        {"kind": "arrival", "size": 2},
        {"op": "save", "path": str(target)},
        {"kind": "arrival", "size": 1},
        {"op": "status"},
    ]
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("".join(json.dumps(line) + "\n" for line in lines))
    )
    assert main(["serve", "--n", "16"]) == 0
    replies = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(replies) == 4
    assert replies[1]["op"] == "save" and "journal" in replies[1]["error"]
    assert replies[2]["task_id"] == 1
    assert replies[3]["events"] == 2
    assert not target.exists()
