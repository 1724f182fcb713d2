"""Performance micro-benchmarks of the library's hot kernels.

Not a paper artifact — these track the implementation itself, per the HPC
guides ("no optimization without measuring").  The kernels are the ones
every experiment leans on:

* LoadTracker place/remove (O(log N) path re-aggregation),
* the O(log N) min-load tree descent (greedy's inner loop) and the
  legacy O(N/size) level scan it replaced, side by side,
* the journal-backed leaf-load snapshot,
* procedure A_R packing (closed form) plus the vectorised LoadTracker
  adoption (``rebuild_from``), and side by side the per-task first-fit
  oracle and the legacy clear+place loop they replaced,
* BuddyCopy allocate/free cycles,
* a full greedy run (end-to-end event rate).

``REPRO_BENCH_N`` overrides the machine size (default 4096) so CI can run
a fast smoke pass at small N while snapshots use the full size.
"""

import os

import numpy as np
import pytest

from repro.core.greedy import GreedyAlgorithm
from repro.core.repack import repack, repack_reference
from repro.machines.copies import BuddyCopy
from repro.machines.hierarchy import Hierarchy
from repro.machines.loads import LoadTracker
from repro.machines.tree import TreeMachine
from repro.sim.runner import run
from repro.tasks.task import Task
from repro.types import TaskId
from repro.workloads.generators import churn_sequence

N_LARGE = int(os.environ.get("REPRO_BENCH_N", "4096"))


@pytest.fixture(scope="module")
def hierarchy():
    return Hierarchy(N_LARGE)


def test_perf_loadtracker_place_remove(benchmark, hierarchy):
    tracker = LoadTracker(hierarchy)
    node = hierarchy.node_for(64, 3)

    def kernel():
        for _ in range(100):
            tracker.place(node, 64)
        for _ in range(100):
            tracker.remove(node, 64)

    benchmark(kernel)
    assert tracker.max_load == 0


def _churned_tracker(hierarchy):
    tracker = LoadTracker(hierarchy)
    rng = np.random.default_rng(0)
    for _ in range(200):
        level = int(rng.integers(0, hierarchy.height + 1))
        size = N_LARGE >> level
        tracker.place(hierarchy.node_for(size, int(rng.integers(N_LARGE // size))), size)
    return tracker


def test_perf_min_descent(benchmark, hierarchy):
    tracker = _churned_tracker(hierarchy)

    result = benchmark(lambda: tracker.leftmost_min_submachine(16))
    assert hierarchy.subtree_size(result[0]) == 16


def test_perf_min_scan_legacy(benchmark, hierarchy):
    # The O(N/size) level scan the descent replaced — kept benchmarked so
    # one snapshot shows the speedup ratio at the current N.
    tracker = _churned_tracker(hierarchy)

    result = benchmark(lambda: tracker.leftmost_min_submachine_scan(16))
    assert hierarchy.subtree_size(result[0]) == 16
    assert result == tracker.leftmost_min_submachine(16)


def test_perf_leaf_loads(benchmark, hierarchy):
    tracker = _churned_tracker(hierarchy)
    tracker.leaf_loads()  # warm the journal-backed cache

    leaf = hierarchy.node_for(1, 0)

    def kernel():
        tracker.place(leaf, 1)
        loads = tracker.leaf_loads()
        tracker.remove(leaf, 1)
        return loads

    loads = benchmark(kernel)
    assert loads.shape == (N_LARGE,)


def _repack_workload():
    rng = np.random.default_rng(1)
    return [
        Task(TaskId(i), int(1 << rng.integers(0, 8)), 0.0) for i in range(500)
    ]


def test_perf_repack_cycle(benchmark, hierarchy):
    # The production reallocation path: procedure A_R packs the active
    # set, then a warm LoadTracker adopts the new mapping via the
    # vectorised rebuild (what PeriodicAlgorithm and restore() do).
    tasks = _repack_workload()
    sizes = {task.task_id: task.size for task in tasks}
    tracker = _churned_tracker(hierarchy)

    def kernel():
        result = repack(hierarchy, tasks)
        tracker.rebuild_from(
            (node, sizes[tid]) for tid, node in result.mapping.items()
        )
        return result

    result = benchmark(kernel)
    assert result.num_copies >= 1
    assert tracker.max_load >= 1


def test_perf_repack_reference(benchmark, hierarchy):
    # The per-task first-fit procedure the closed form replaced, in the
    # same cycle — kept benchmarked so one snapshot shows the
    # closed-form/reference ratio at the current N.
    tasks = _repack_workload()
    sizes = {task.task_id: task.size for task in tasks}
    tracker = _churned_tracker(hierarchy)

    def kernel():
        result = repack_reference(hierarchy, tasks)
        tracker.rebuild_from(
            (node, sizes[tid]) for tid, node in result.mapping.items()
        )
        return result

    result = benchmark(kernel)
    assert result.mapping == repack(hierarchy, tasks).mapping


def test_perf_repack_adopt_rebuild(benchmark, hierarchy):
    # Adoption step in isolation: one vectorised rebuild_from call.
    tasks = _repack_workload()
    sizes = {task.task_id: task.size for task in tasks}
    mapping = repack(hierarchy, tasks).mapping
    tracker = _churned_tracker(hierarchy)

    benchmark(
        lambda: tracker.rebuild_from(
            (node, sizes[tid]) for tid, node in mapping.items()
        )
    )
    assert tracker.max_load >= 1


def test_perf_repack_adopt_legacy(benchmark, hierarchy):
    # The clear() + per-task place() adoption loop that rebuild_from
    # replaced — kept benchmarked so one snapshot shows the adoption
    # speedup ratio at the current N.
    tasks = _repack_workload()
    sizes = {task.task_id: task.size for task in tasks}
    mapping = repack(hierarchy, tasks).mapping
    tracker = _churned_tracker(hierarchy)

    def kernel():
        tracker.clear()
        for tid, node in mapping.items():
            tracker.place(node, sizes[tid])

    benchmark(kernel)
    assert tracker.max_load >= 1


def test_perf_buddy_cycle(benchmark, hierarchy):
    copy = BuddyCopy(hierarchy)

    cycles = min(64, N_LARGE // 8)

    def kernel():
        nodes = [copy.allocate(8) for _ in range(cycles)]
        for node in nodes:
            copy.free(node)

    benchmark(kernel)
    assert copy.is_empty


def test_perf_greedy_full_run(benchmark):
    sigma = churn_sequence(N_LARGE, 1000, np.random.default_rng(2))

    def kernel():
        machine = TreeMachine(N_LARGE)
        return run(machine, GreedyAlgorithm(machine), sigma)

    result = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert result.metrics.events_processed == 1000


def test_perf_parallel_map_overhead(benchmark):
    # Fan-out fixed cost: serial fallback vs. a 2-worker pool is measured
    # by the snapshot harness over time; here we pin the serial path so
    # the dispatch bookkeeping itself stays cheap.
    from repro.sim.parallel import parallel_map

    items = [(i,) for i in range(64)]
    result = benchmark(lambda: parallel_map(_identity, items, jobs=None))
    assert result == list(range(64))


def _identity(x):
    return x
