"""A journaled session's memory is O(active tasks), not O(history).

The session keeps an event counter, not an event log, and a resume
streams its journal one frame at a time.  So ten times as many events,
at the same number of live tasks, may not cost more traced memory: not
while ingesting, not at the peak of a resume, and not after it.
"""

import gc
import tracemalloc

import numpy as np

from repro.core.registry import make_algorithm
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession

N = 4096
LIVE = 64
SHORT, LONG = 2_000, 20_000
KIB = 1024


def _records(count, seed=0):
    """Churn of at most ``LIVE`` tasks with power-of-two sizes."""
    rng = np.random.default_rng(seed)
    live, next_id, out = [], 0, []
    for _ in range(count):
        if len(live) >= LIVE or (live and rng.random() < 0.5):
            tid = live.pop(int(rng.integers(len(live))))
            out.append({"kind": "departure", "id": tid})
        else:
            size = 1 << int(rng.integers(0, 11))
            out.append({"kind": "arrival", "id": next_id, "size": size})
            live.append(next_id)
            next_id += 1
    return out


def _session(path):
    machine = TreeMachine(N)
    return AllocationSession(
        machine, make_algorithm("greedy", machine), journal_path=path,
        fsync_policy="batch",
    )


def _traced(fn):
    """``(result, current, peak)`` traced bytes of ``fn()``, the current
    figure after a collection."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def _ingest(path, count):
    records = _records(count)

    def run():
        session = _session(path)
        for record in records:
            session.push(record)
        return session

    session, grown, _peak = _traced(run)
    assert session.num_events == count
    session.close()
    return grown


def test_ingest_memory_does_not_grow_with_history(tmp_path):
    short = _ingest(tmp_path / "short.journal", SHORT)
    long = _ingest(tmp_path / "long.journal", LONG)
    assert long - short <= 256 * KIB, (short // KIB, long // KIB)


def _resume(path, count):
    session = _session(path)
    for record in _records(count):
        session.push(record)
    session.close()
    del session
    resumed, retained, peak = _traced(lambda: _session(path))
    assert resumed.num_events == count and resumed.restored_events > 0
    resumed.close()
    return peak, retained


def test_resume_memory_does_not_grow_with_the_journal(tmp_path):
    short_peak, short_kept = _resume(tmp_path / "short.journal", SHORT)
    long_peak, long_kept = _resume(tmp_path / "long.journal", LONG)
    assert long_peak - short_peak <= 1024 * KIB, (short_peak // KIB, long_peak // KIB)
    assert long_kept - short_kept <= 512 * KIB, (short_kept // KIB, long_kept // KIB)
