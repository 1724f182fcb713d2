"""Journal fast-path benchmarks: frame codec, replay, and durable ingest.

Not a paper artifact — this suite tracks the binary (framed) journal.
Three layers are metered:

* codec microbenches: columnar encode/decode of wire-record batches,
* replay: reopening a journaled session (the resume path), which
  decodes batch frames columnar-wise,
* journaled ingest: ``push_batch`` end-to-end per fsync policy (the
  ``batch`` policy is the headline configuration: batch frames, the
  columnar kernel engine and group commit at batch 256).

Journal benches are fsync/I-O bound; the snapshot gate holds them to a
looser events/sec-only tolerance (see ``scripts/bench_snapshot.py``).
The ``*_floor`` test at the bottom is an acceptance assertion on the
journal's size, hardware-independent; CI's ``journal-smoke`` job runs
it at N=256.

``REPRO_BENCH_N`` overrides the machine size (default 4096).
"""

import itertools
import os

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.sim.frames import (
    decode_record_batch,
    encode_wire_records,
    iter_journal_payloads,
)
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
    the way the session fills defaults before columnar encoding."""
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


def test_perf_journal_encode_columnar(benchmark, wire_records):
    """Columnar-encode the whole stream in 256-record slices."""

    def encode():
        for i in range(0, len(wire_records), 256):
            assert encode_wire_records(wire_records[i : i + 256]) is not None

    benchmark(encode)
    _note_rate(benchmark, len(wire_records))


def test_perf_journal_decode_columnar(benchmark, wire_records):
    blobs = [
        encode_wire_records(wire_records[i : i + 256])
        for i in range(0, len(wire_records), 256)
    ]
    assert all(blobs)

    def decode():
        for blob in blobs:
            decode_record_batch(blob)

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
# Acceptance floor: the size claim the binary journal was built for.  CI's
# journal-smoke job runs it at N=256.
# ---------------------------------------------------------------------------

#: Bytes per journaled record the batch frames must stay under.  The v1
#: JSONL journal this format replaced wrote ~94 B per record on this
#: stream; the old "at most half of v1" rule is this absolute bound.
MAX_BYTES_PER_RECORD = 47


def test_journal_v2_size_floor(records, wire_records, tmp_path):
    """Batch frames take <= 47 B per record on the churn stream — and the
    journal replays exactly the records that went in."""
    session = _fresh_session(tmp_path, "batch")
    path = session._journal.path
    _ingest(session, records)
    per_record = path.stat().st_size / len(records)
    assert per_record <= MAX_BYTES_PER_RECORD, (
        f"journal takes {per_record:.1f} B per record "
        f"(bound {MAX_BYTES_PER_RECORD} B at N={N_LARGE})"
    )
    journaled = [p["record"] for _i, p in iter_journal_payloads(path)]
    assert journaled == wire_records
