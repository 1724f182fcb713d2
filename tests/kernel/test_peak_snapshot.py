"""The kernel's per-PE peak snapshot, and what it costs the load tracker.

``metrics.peak_snapshot`` is the per-PE load vector after the first event
that reached the run's highest max load (``peak_snapshot_time`` is that
event's time).  It can change only when the max load strictly rises, so
the kernel takes it only then, from
:meth:`~repro.machines.loads.LoadTracker.fresh_leaf_loads`: a kernel
whose algorithm never reads the per-PE leaf array leaves it unbuilt, and
its events pay no slice add to keep one current.
"""

import numpy as np

from repro.core.registry import make_algorithm
from repro.kernel import AllocationKernel
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.workloads.generators import churn_sequence

N = 4096
EVENTS = 3000


def _events():
    # Active volume held near 2N: the max load rises four times, the last
    # time some 850 events in.
    rng = np.random.default_rng(11)
    return list(churn_sequence(N, EVENTS, rng, target_volume=2 * N))


def _naive_peak(machine, events, decisions):
    """The per-PE loads and time after the first event that reached the
    highest max load, rebuilt from the placements with a difference
    array (no load tracker involved)."""
    loads = [d.max_load for d in decisions]
    at = loads.index(max(loads))
    h = machine.hierarchy
    placed = {}
    for event, d in zip(events[: at + 1], decisions[: at + 1]):
        assert not d.moves
        if d.kind == "arrival":
            placed[d.task_id] = d.node
        else:
            placed.pop(d.task_id)
    diff = np.zeros(N + 1, dtype=np.int64)
    for node in placed.values():
        lo, hi = h.leaf_span(node)
        diff[lo] += 1
        diff[hi] -= 1
    return np.cumsum(diff[:N]), events[at].time


def _assert_peak(kernel, events, decisions):
    snapshot, time = _naive_peak(kernel.machine, events, decisions)
    assert kernel.metrics.max_load == int(snapshot.max())
    assert np.array_equal(kernel.metrics.peak_snapshot, snapshot)
    assert kernel.metrics.peak_snapshot_time == time


def test_greedy_kernel_leaves_the_leaf_array_unbuilt():
    machine = TreeMachine(N)
    kernel = AllocationKernel(machine, make_algorithm("greedy", machine))
    events = _events()
    decisions = [kernel.apply(e) for e in events]
    assert kernel._loads._leaf is None
    _assert_peak(kernel, events, decisions)


def test_greedy_session_leaves_the_leaf_array_unbuilt():
    machine = TreeMachine(N)
    events = _events()
    with AllocationSession(machine, make_algorithm("greedy", machine)) as session:
        decisions = [session.push(r) for r in sequence_records(events)]
        assert session.kernel._loads._leaf is None
        _assert_peak(session.kernel, events, decisions)


def test_leaf_reading_algorithm_gets_the_same_peak():
    # First-fit reads the leaf array itself, so the tracker keeps it
    # built and the snapshot is a copy of it.
    machine = TreeMachine(N)
    kernel = AllocationKernel(machine, make_algorithm("firstfit", machine))
    events = _events()
    decisions = [kernel.apply(e) for e in events]
    assert kernel._loads._leaf is not None
    _assert_peak(kernel, events, decisions)
