"""Journal fast-path benchmarks: frame codec, replay, and durable ingest.

Not a paper artifact — this suite tracks the binary (framed) journal.
Three layers are metered:

* codec microbenches: encode/decode of wire-record batches as tagged
  records (the bench names keep the word "columnar" of the
  layout they replaced, so snapshots stay comparable),
* replay: reopening a journaled session (the resume path), which
  decodes the batch frames,
* journaled ingest: ``push_batch`` end-to-end per fsync policy (the
  ``batch`` policy is the headline configuration: batch frames, the
  columnar kernel engine and group commit at batch 256).

Journal benches are fsync/I-O bound; the snapshot gate holds them to a
looser events/sec-only tolerance (see ``scripts/bench_snapshot.py``).
The ``*_floor`` tests at the bottom are acceptance assertions on the
journal's size, hardware-independent; CI's ``journal-smoke`` job runs
them at N=256.

``REPRO_BENCH_N`` overrides the machine size (default 4096).
"""

import itertools
import os

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.sim.frames import iter_journal_payloads, pack_record, unpack_records
from repro.workloads.generators import churn_sequence

N_LARGE = int(os.environ.get("REPRO_BENCH_N", "4096"))
TASKS = 500  # churn gives one arrival + one departure per task

_journal_ids = itertools.count()


@pytest.fixture(scope="module")
def records():
    sigma = churn_sequence(N_LARGE, TASKS, np.random.default_rng(17))
    return list(sequence_records(sigma))


@pytest.fixture(scope="module")
def wire_records(records):
    """Records normalised to the strict hot-path schema (explicit work),
    the way the session fills defaults before it journals them."""
    return [
        dict(rec, work=float(rec.get("work", 1.0)))
        if rec["kind"] == "arrival"
        else rec
        for rec in records
    ]


def _fresh_session(tmp_path, fsync_policy):
    machine = TreeMachine(N_LARGE)
    return AllocationSession(
        machine,
        make_algorithm("greedy", machine, d=2.0),
        journal_path=tmp_path / f"journal-{next(_journal_ids)}.journal",
        fsync_policy=fsync_policy,
    )


def _ingest(session, records, batch=256):
    for i in range(0, len(records), batch):
        session.push_batch(records[i : i + batch])
    session.close()


def _note_rate(benchmark, num_events):
    if benchmark.stats is None:  # --benchmark-disable: nothing to annotate
        return
    mean = benchmark.stats.stats.mean
    if mean > 0:
        benchmark.extra_info["events_per_sec"] = round(num_events / mean)


# ---------------------------------------------------------------------------
# Codec microbenches: pure CPU, no I/O.
# ---------------------------------------------------------------------------


def _batch(records) -> bytes:
    """The record bytes of one batch frame."""
    return b"".join([pack_record(r) for r in records])


def test_perf_journal_encode_columnar(benchmark, wire_records):
    """Encode the whole stream as batch records in 256-record slices."""

    def encode():
        for i in range(0, len(wire_records), 256):
            _batch(wire_records[i : i + 256])

    assert all(pack_record(r) is not None for r in wire_records)
    benchmark(encode)
    _note_rate(benchmark, len(wire_records))


def test_perf_journal_decode_columnar(benchmark, wire_records):
    blobs = [
        _batch(wire_records[i : i + 256])
        for i in range(0, len(wire_records), 256)
    ]

    def decode():
        for blob in blobs:
            unpack_records(blob)

    benchmark(decode)
    _note_rate(benchmark, len(wire_records))


# ---------------------------------------------------------------------------
# Replay: the resume path.
# ---------------------------------------------------------------------------


def test_perf_journal_replay(benchmark, records, tmp_path):
    writer = _fresh_session(tmp_path, "batch")
    path = writer._journal.path
    _ingest(writer, records)

    def replay():
        machine = TreeMachine(N_LARGE)
        AllocationSession(
            machine,
            make_algorithm("greedy", machine, d=2.0),
            journal_path=path,
            fsync_policy="batch",
        ).close()

    benchmark.pedantic(replay, rounds=3, iterations=1)
    _note_rate(benchmark, len(records))


# ---------------------------------------------------------------------------
# Journaled ingest: end-to-end events/sec per fsync policy.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fsync_policy", ["always", "batch", "interval:100"],
                         ids=lambda v: v.replace(":", ""))
def test_perf_ingest_journal_policy(benchmark, records, tmp_path, fsync_policy):
    def setup():
        return (_fresh_session(tmp_path, fsync_policy), records), {}

    benchmark.pedantic(_ingest, setup=setup, rounds=3, iterations=1)
    _note_rate(benchmark, len(records))


# ---------------------------------------------------------------------------
# Acceptance floors: the size claims the binary journal was built for.  CI's
# journal-smoke job runs them at N=256.
# ---------------------------------------------------------------------------

#: Bytes per journaled record the batch frames must stay under.  The v1
#: JSONL journal wrote ~94 B per record on this stream and the pickled
#: columnar batches of v2 34.5 B; wide v3 records took ~26.5 B in
#: ``push_batch`` group commits and ~28 B pushed one by one.  Narrow v4
#: records take 10.8 B in ``push_batch`` group commits and 12.3 B pushed
#: one by one under ``fsync=batch`` (the journal groups them between
#: syncs), at N=256 and N=4096 alike.
MAX_BYTES_PER_RECORD = 14


def _assert_size_floor(path, records, wire_records):
    per_record = path.stat().st_size / len(records)
    assert per_record <= MAX_BYTES_PER_RECORD, (
        f"journal takes {per_record:.1f} B per record "
        f"(bound {MAX_BYTES_PER_RECORD} B at N={N_LARGE})"
    )
    journaled = [p["record"] for _i, p in iter_journal_payloads(path)]
    assert journaled == wire_records


def test_journal_size_floor(records, wire_records, tmp_path):
    """``push_batch`` frames take <= 14 B per record on the churn stream
    — and the journal replays exactly the records that went in."""
    session = _fresh_session(tmp_path, "batch")
    path = session._journal.path
    _ingest(session, records)
    _assert_size_floor(path, records, wire_records)


def test_journal_push_size_floor(records, wire_records, tmp_path):
    """Records pushed one by one under ``fsync=batch`` share batch frames
    between syncs: <= 14 B per record on the same stream."""
    session = _fresh_session(tmp_path, "batch")
    path = session._journal.path
    for record in records:
        session.push(record)
    session.close()
    _assert_size_floor(path, records, wire_records)
