"""Parity of the kernel's bulk reallocation accounting with per-task charging.

``AllocationKernel._apply_reallocation`` validates, prices and records a
whole remap with array operations.  These tests pin it to the per-task
semantics it replaced: the same distances on every topology, the same
``ReallocationStats`` down to the last float bit, and the same
``PlacementError`` text when an algorithm remaps a task badly.
"""

import re

import numpy as np
import pytest

from repro.core.base import AllocationAlgorithm, Placement, Reallocation
from repro.core.registry import make_algorithm
from repro.errors import PlacementError
from repro.kernel import AllocationKernel
from repro.machines.factory import machine_from_descriptor
from repro.sim.metrics import ReallocationStats
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.events import Arrival, Departure
from repro.tasks.task import Task
from repro.types import TaskId

DESCRIPTORS = [
    {"topology": "tree"},
    {"topology": "fattree-f2", "fatness": 2.0},
    {"topology": "fattree-f1.5", "fatness": 1.5},
    {"topology": "hypercube-binary"},
    {"topology": "hypercube-gray"},
    {"topology": "butterfly"},
    {"topology": "mesh2d"},
]


def _machine(desc, n):
    return machine_from_descriptor({**desc, "num_pes": n})


@pytest.mark.parametrize("desc", DESCRIPTORS, ids=lambda d: d["topology"])
@pytest.mark.parametrize("n", [1, 4, 64])
def test_migration_distances_match_scalar(desc, n):
    machine = _machine(desc, n)
    nodes = np.arange(1, 2 * n, dtype=np.int64)
    rng = np.random.default_rng(n)
    src = np.concatenate([np.repeat(nodes, len(nodes)), rng.choice(nodes, 200)])
    dst = np.concatenate([np.tile(nodes, len(nodes)), rng.choice(nodes, 200)])
    if n == 64:  # all 127 x 127 pairs is plenty; keep the sweep small
        src, dst = src[::7], dst[::7]
    got = machine.migration_distances(src, dst)
    assert got.dtype == np.int64
    expected = [machine.migration_distance(int(a), int(b)) for a, b in zip(src, dst)]
    assert got.tolist() == expected


def _churn(count, seed):
    """A churn of power-of-two tasks that keeps ~40 live at a time."""
    rng = np.random.default_rng(seed)
    live: list[int] = []
    events = []
    for step in range(count):
        if live and (len(live) > 40 or rng.random() < 0.3):
            tid = live.pop(int(rng.integers(len(live))))
            events.append(Departure(float(step), TaskId(tid)))
        else:
            size = 1 << int(rng.integers(0, 4))
            events.append(Arrival(float(step), Task(TaskId(step), size, float(step))))
            live.append(step)
    return events


@pytest.mark.parametrize("bytes_per_pe", [0.1, 1 / 3])
@pytest.mark.parametrize("desc", DESCRIPTORS[:4], ids=lambda d: d["topology"])
def test_stats_bit_identical_to_per_task_charges(desc, bytes_per_pe):
    machine = _machine(desc, 64)
    model = MigrationCostModel(bytes_per_pe=bytes_per_pe)
    kernel = AllocationKernel(
        machine, make_algorithm("periodic", machine, d=0.25), model
    )
    expected = ReallocationStats()
    bulk = kernel._apply_reallocation

    def per_task_oracle(realloc):
        expected.record_reallocation()
        for tid, new in realloc.mapping.items():
            old, size = kernel._placements[tid], kernel._tasks[tid].size
            if new == old:
                expected.record_stationary()
                continue
            charge = model.charge(machine, size, old, new)
            expected.record_move(size, charge.distance, charge.bytes_moved)
        return bulk(realloc)

    kernel._apply_reallocation = per_task_oracle
    for event in _churn(1500, seed=5):
        kernel.apply(event)
    got = kernel.metrics.realloc
    assert got.num_reallocations > 10 and got.num_migrations > 200
    assert got == expected
    # Same bits, not merely equal values: the digests hash the repr.
    assert repr(got.checkpoint_bytes) == repr(expected.checkpoint_bytes)
    assert repr(got.traffic_pe_hops) == repr(expected.traffic_pe_hops)


class _Remapper(AllocationAlgorithm):
    """Places honestly, then remaps per a fixed table on the 3rd arrival."""

    def __init__(self, machine, remap):
        super().__init__(machine)
        self.remap = remap
        self._placement: dict[TaskId, int] = {}

    @property
    def name(self):
        return "remapper"

    @property
    def reallocation_parameter(self):
        return 0.0

    def on_arrival(self, task):
        node = self.machine.hierarchy.node_for(task.size, len(self._placement))
        self._placement[task.task_id] = node
        return Placement(task.task_id, node)

    def on_departure(self, task):
        del self._placement[task.task_id]

    def maybe_reallocate(self, arrived_since_last):
        if len(self._placement) < 3:
            return None
        return Reallocation({**self._placement, **self.remap})


@pytest.mark.parametrize(
    "remap,message",
    [
        # Node 3 roots a 4-PE submachine; task 1 has size 2.
        ({TaskId(1): 3}, "remapper placed a size-2 task at a 4-PE submachine (node 3)"),
        ({TaskId(0): 0}, "remapper placed task 0 at invalid node 0"),
        ({TaskId(2): 16}, "remapper placed task 2 at invalid node 16"),
        ({TaskId(2): 2**70}, f"remapper placed task 2 at invalid node {2**70}"),
        # Several offenders: the first in mapping order is the one named.
        ({TaskId(0): 99, TaskId(1): 1}, "remapper placed task 0 at invalid node 99"),
    ],
)
def test_bad_remap_raises_the_per_task_message(remap, message):
    machine = _machine({"topology": "tree"}, 8)
    kernel = AllocationKernel(machine, _Remapper(machine, remap))
    kernel.apply(Arrival(0.0, Task(TaskId(0), 2, 0.0)))
    kernel.apply(Arrival(1.0, Task(TaskId(1), 2, 1.0)))
    with pytest.raises(PlacementError, match=f"^{re.escape(message)}$"):
        kernel.apply(Arrival(2.0, Task(TaskId(2), 2, 2.0)))
