"""Events/sec throughput of the ingest path, per-event vs. batched.

Not a paper artifact — this suite tracks the streaming implementation
itself.  Two layers are metered:

* kernel-only ingest: ``AllocationKernel.apply`` in a loop vs.
  ``apply_batch`` (one ``apply`` per event) at several batch sizes,
* journaled ingest: ``AllocationSession.push`` with ``fsync=always`` vs.
  ``push_batch`` under group commit (``fsync=batch``) and interval
  fsync — the headline events/sec numbers,
* a second topology (hypercube) so the batched win is shown to be
  machine-independent.

Benchmarks whose name contains ``journal`` are fsync/I-O bound and are
exempted from the snapshot regression gate (``scripts/bench_snapshot.py``)
because their variance tracks the storage stack, not the code.  The two
``*_speedup_floor`` tests at the bottom are plain-timing acceptance
assertions (skipped at smoke N); they run without ``--benchmark-only``.

``REPRO_BENCH_N`` overrides the machine size (default 4096) so CI can run
a fast smoke pass at small N while snapshots use the full size.
"""

import itertools
import os
import time

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.kernel import AllocationKernel
from repro.machines.hypercube import Hypercube
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.workloads.generators import churn_sequence

N_LARGE = int(os.environ.get("REPRO_BENCH_N", "4096"))
TASKS = 500  # churn gives one arrival + one departure per task

_journal_ids = itertools.count()


@pytest.fixture(scope="module")
def sigma():
    return churn_sequence(N_LARGE, TASKS, np.random.default_rng(17))


@pytest.fixture(scope="module")
def records(sigma):
    return list(sequence_records(sigma))


def _fresh_kernel(machine_cls=TreeMachine):
    machine = machine_cls(N_LARGE)
    return AllocationKernel(machine, make_algorithm("greedy", machine, d=2.0))


def _fresh_session(tmp_path, fsync_policy):
    machine = TreeMachine(N_LARGE)
    return AllocationSession(
        machine,
        make_algorithm("greedy", machine, d=2.0),
        journal_path=tmp_path / f"ingest-{next(_journal_ids)}.journal",
        fsync_policy=fsync_policy,
    )


def _ingest_records(session, records, batch):
    if batch == 1:
        for record in records:
            session.push(record)
    else:
        for i in range(0, len(records), batch):
            session.push_batch(records[i : i + batch])
    session.close()


def _ingest_events(kernel, events, batch):
    if batch == 1:
        for event in events:
            kernel.apply(event)
    else:
        for i in range(0, len(events), batch):
            kernel.apply_batch(events[i : i + batch])


def _note_rate(benchmark, num_events):
    if benchmark.stats is None:  # --benchmark-disable: nothing to annotate
        return
    mean = benchmark.stats.stats.mean
    if mean > 0:
        benchmark.extra_info["events_per_sec"] = round(num_events / mean)


# ---------------------------------------------------------------------------
# Kernel-only ingest (no journal): amortised metering and dispatch.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 16, 256], ids=lambda b: f"batch{b}")
def test_perf_ingest_kernel(benchmark, sigma, batch):
    events = list(sigma)

    def setup():
        return (_fresh_kernel(), events, batch), {}

    benchmark.pedantic(_ingest_events, setup=setup, rounds=5, iterations=1)
    _note_rate(benchmark, len(events))


def test_perf_ingest_kernel_hypercube_batch256(benchmark, sigma):
    events = list(sigma)

    def setup():
        return (_fresh_kernel(Hypercube), events, 256), {}

    benchmark.pedantic(_ingest_events, setup=setup, rounds=5, iterations=1)
    _note_rate(benchmark, len(events))


# ---------------------------------------------------------------------------
# Journaled ingest: the headline events/sec numbers.  fsync-bound — the
# snapshot gate exempts every bench named *journal*.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fsync_policy,batch",
    [
        ("always", 1),
        ("always", 256),
        ("batch", 256),
        ("interval:100", 1),
        ("interval:100", 256),
    ],
    ids=lambda v: str(v).replace(":", ""),
)
def test_perf_ingest_journal(benchmark, records, tmp_path, fsync_policy, batch):
    def setup():
        return (_fresh_session(tmp_path, fsync_policy), records, batch), {}

    benchmark.pedantic(_ingest_records, setup=setup, rounds=3, iterations=1)
    _note_rate(benchmark, len(records))


# ---------------------------------------------------------------------------
# Acceptance floors (plain timing, not pytest-benchmark): these encode the
# speedup claims the batched path was built for.  Skipped at smoke N where
# constant overheads drown the asymptotics.
# ---------------------------------------------------------------------------


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.skipif(N_LARGE < 1024, reason="floors calibrated for N >= 1024")
def test_batched_journal_ingest_speedup_floor(records, tmp_path):
    """push_batch(256) under group commit beats per-event fsync=always."""
    floor = 3.0 if N_LARGE >= 4096 else 2.0
    per_event = _best_of(
        3, lambda: _ingest_records(_fresh_session(tmp_path, "always"), records, 1)
    )
    batched = _best_of(
        3, lambda: _ingest_records(_fresh_session(tmp_path, "batch"), records, 256)
    )
    ratio = per_event / batched
    assert ratio >= floor, (
        f"batched journaled ingest only {ratio:.2f}x faster than per-event "
        f"(floor {floor}x at N={N_LARGE})"
    )


@pytest.mark.skipif(N_LARGE < 1024, reason="floors calibrated for N >= 1024")
def test_rebuild_adoption_speedup_floor():
    """rebuild_from adoption beats the legacy clear()+place() loop >= 2x."""
    from repro.core.repack import repack
    from repro.machines.hierarchy import Hierarchy
    from repro.machines.loads import LoadTracker
    from repro.tasks.task import Task
    from repro.types import TaskId

    hierarchy = Hierarchy(N_LARGE)
    rng = np.random.default_rng(1)
    tasks = [
        Task(TaskId(i), int(1 << rng.integers(0, 8)), 0.0) for i in range(500)
    ]
    sizes = {task.task_id: task.size for task in tasks}
    mapping = repack(hierarchy, tasks).mapping
    tracker = LoadTracker(hierarchy)

    def legacy():
        tracker.clear()
        for tid, node in mapping.items():
            tracker.place(node, sizes[tid])

    def rebuild():
        tracker.rebuild_from(
            (node, sizes[tid]) for tid, node in mapping.items()
        )

    legacy_t = _best_of(5, legacy)
    rebuild_t = _best_of(5, rebuild)
    ratio = legacy_t / rebuild_t
    assert ratio >= 2.0, (
        f"rebuild_from adoption only {ratio:.2f}x faster than clear+place "
        f"(floor 2.0x at N={N_LARGE})"
    )
