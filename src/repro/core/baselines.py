"""Baseline allocation strategies used as comparison points in the benches.

None of these come with the paper's guarantees; they bracket the design
space so the experiments can show *why* the paper's algorithms are shaped
the way they are:

* :class:`RoundRobinAlgorithm` — cycle through the submachines of each size,
  load-blind.  The classic "fair by construction" strawman.
* :class:`WorstFitAlgorithm` — like greedy but judges a submachine by its
  *average* PE load instead of its max; shows that the max-based greedy
  criterion is what the Theorem 4.1 induction actually needs.
* :class:`FirstFitLevelAlgorithm` — leftmost submachine whose load is
  strictly below a target, else global minimum; a common heuristic in
  buddy-system allocators.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.base import AllocationAlgorithm, Placement, id_order, reorder, tracker_for
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = [
    "RoundRobinAlgorithm",
    "WorstFitAlgorithm",
    "FirstFitLevelAlgorithm",
]


class _TrackedBaseline(AllocationAlgorithm):
    """Common bookkeeping: a load tracker plus task -> node placements."""

    def __init__(self, machine: PartitionableMachine):
        super().__init__(machine)
        self._loads = machine.new_load_tracker()
        self._placement: dict[TaskId, NodeId] = {}

    def _commit(self, task: Task, node: NodeId) -> Placement:
        self._loads.place(node, task.size)
        self._placement[task.task_id] = node
        return Placement(task.task_id, node)

    def on_departure(self, task: Task) -> None:
        node = self._placement.pop(task.task_id, None)
        if node is None:
            raise AllocationError(f"departure of unplaced task {task.task_id}")
        self._loads.remove(node, task.size)

    def reset(self) -> None:
        self._loads = self.machine.new_load_tracker()
        self._placement.clear()

    def state(self) -> dict[str, Any]:
        return {"placement": id_order(self._placement)}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._placement = reorder(state["placement"], placements)
        self._loads = tracker_for(self.machine, self._placement, tasks)

    def _check_new(self, task: Task) -> None:
        self.machine.validate_task_size(task.size)
        if task.task_id in self._placement:
            raise AllocationError(f"task {task.task_id} already placed")


class RoundRobinAlgorithm(_TrackedBaseline):
    """Cycle through same-size submachines regardless of load."""

    def __init__(self, machine: PartitionableMachine):
        super().__init__(machine)
        self._cursor: dict[int, int] = {}

    @property
    def name(self) -> str:
        return "roundrobin"

    def on_arrival(self, task: Task) -> Placement:
        self._check_new(task)
        h = self.machine.hierarchy
        count = h.num_submachines(task.size)
        cursor = self._cursor.get(task.size, 0)
        node = h.node_for(task.size, cursor % count)
        self._cursor[task.size] = (cursor + 1) % count
        return self._commit(task, node)

    def reset(self) -> None:
        super().reset()
        self._cursor.clear()

    def state(self) -> dict[str, Any]:
        return dict(super().state(), cursor=[[s, c] for s, c in self._cursor.items()])

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        super().load_state(state, tasks, placements)
        self._cursor = {int(size): int(c) for size, c in state["cursor"]}


class WorstFitAlgorithm(_TrackedBaseline):
    """Choose the submachine with the smallest *total* (hence average) load.

    The total load of a ``2^x``-PE submachine is the sum of its PE loads —
    i.e. the cumulative size-weighted occupancy.  Picking by average rather
    than max spreads volume but can stack many small tasks onto one PE.
    """

    @property
    def name(self) -> str:
        return "worstfit-avg"

    def on_arrival(self, task: Task) -> Placement:
        self._check_new(task)
        h = self.machine.hierarchy
        level = h.level_for_size(task.size)
        leaf_loads = self._loads.leaf_loads()
        sums = leaf_loads.reshape(h.num_submachines(task.size), task.size).sum(axis=1)
        index = int(np.argmin(sums))
        return self._commit(task, h.node_for(task.size, index))


class FirstFitLevelAlgorithm(_TrackedBaseline):
    """Leftmost submachine with load strictly below ``threshold``; else min.

    With ``threshold = 1`` this is "leftmost idle submachine if any" — the
    behaviour of exclusive-use buddy allocators extended to sharing.
    """

    def __init__(self, machine: PartitionableMachine, threshold: int = 1):
        super().__init__(machine)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self._threshold = threshold

    @property
    def name(self) -> str:
        return f"firstfit(<{self._threshold})"

    def on_arrival(self, task: Task) -> Placement:
        self._check_new(task)
        h = self.machine.hierarchy
        loads = self._loads.level_loads(task.size)
        below = np.flatnonzero(loads < self._threshold)
        if below.size:
            index = int(below[0])
        else:
            index = int(np.argmin(loads))
        return self._commit(task, h.node_for(task.size, index))
