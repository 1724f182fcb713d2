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

from repro.core.base import AllocationAlgorithm, Placement
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = [
    "RoundRobinAlgorithm",
    "WorstFitAlgorithm",
    "FirstFitLevelAlgorithm",
]


class _Baseline(AllocationAlgorithm):
    """Common shape: loads are the kernel's, so no state of its own."""

    def state(self) -> dict[str, Any]:
        return {}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        """Nothing to adopt beyond what :meth:`state` saved."""


class RoundRobinAlgorithm(_Baseline):
    """Cycle through same-size submachines regardless of load."""

    def __init__(self, machine: PartitionableMachine):
        super().__init__(machine)
        self._cursor: dict[int, int] = {}

    @property
    def name(self) -> str:
        return "roundrobin"

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        h = self.machine.hierarchy
        count = h.num_submachines(task.size)
        cursor = self._cursor.get(task.size, 0)
        node = h.node_for(task.size, cursor % count)
        self._cursor[task.size] = (cursor + 1) % count
        return Placement(task.task_id, node)

    def reset(self) -> None:
        self._cursor.clear()

    def state(self) -> dict[str, Any]:
        return {"cursor": [[s, c] for s, c in self._cursor.items()]}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._cursor = {int(size): int(c) for size, c in state["cursor"]}


class WorstFitAlgorithm(_Baseline):
    """Choose the submachine with the smallest *total* (hence average) load.

    The total load of a ``2^x``-PE submachine is the sum of its PE loads —
    i.e. the cumulative size-weighted occupancy.  Picking by average rather
    than max spreads volume but can stack many small tasks onto one PE.
    """

    @property
    def name(self) -> str:
        return "worstfit-avg"

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        h = self.machine.hierarchy
        leaf_loads = self.loads.leaf_loads(copy=False)
        sums = leaf_loads.reshape(h.num_submachines(task.size), task.size).sum(axis=1)
        index = int(np.argmin(sums))
        return Placement(task.task_id, h.node_for(task.size, index))


class FirstFitLevelAlgorithm(_Baseline):
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
        self.machine.validate_task_size(task.size)
        h = self.machine.hierarchy
        loads = self.loads.level_loads(task.size)
        below = np.flatnonzero(loads < self._threshold)
        if below.size:
            index = int(below[0])
        else:
            index = int(np.argmin(loads))
        return Placement(task.task_id, h.node_for(task.size, index))
