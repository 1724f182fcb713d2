"""Algorithm A_G — greedy online allocation without reallocation (Section 4.1).

On each arrival of a task of size ``2^x``, A_G computes the loads of *all*
``2^x``-PE submachines (the load of a submachine being the maximum PE load
within it) and assigns the task to the leftmost submachine of minimum load.
Departures simply deallocate.

Theorem 4.1: for every sequence sigma,
``L_{A_G}(sigma) <= ceil((log N + 1) / 2) * L*``.

The min-load query is delegated to the driving kernel's tracker,
:meth:`repro.machines.loads.LoadTracker.leftmost_min_submachine`: an
O(log N) descent over a min-of-max aggregation.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.base import AllocationAlgorithm, Placement
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["GreedyAlgorithm"]


class GreedyAlgorithm(AllocationAlgorithm):
    """Least-loaded leftmost placement; never reallocates.

    Stateless: the loads it decides from are the driving kernel's
    (:meth:`~repro.core.base.AllocationAlgorithm.bind_loads`).
    """

    @property
    def name(self) -> str:
        return "A_G"

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        node, _load = self.loads.leftmost_min_submachine(task.size)
        return Placement(task.task_id, node)

    def state(self) -> dict[str, Any]:
        return {}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        """Nothing to adopt: A_G keeps no state of its own."""
