"""Algorithm A_G — greedy online allocation without reallocation (Section 4.1).

On each arrival of a task of size ``2^x``, A_G computes the loads of *all*
``2^x``-PE submachines (the load of a submachine being the maximum PE load
within it) and assigns the task to the leftmost submachine of minimum load.
Departures simply deallocate.

Theorem 4.1: for every sequence sigma,
``L_{A_G}(sigma) <= ceil((log N + 1) / 2) * L*``.

The bulk min-load query is delegated to
:meth:`repro.machines.loads.LoadTracker.leftmost_min_submachine`, which runs
vectorized in O(number of submachines of that size).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.base import AllocationAlgorithm, Placement, id_order, reorder, tracker_for
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["GreedyAlgorithm"]


class GreedyAlgorithm(AllocationAlgorithm):
    """Least-loaded leftmost placement; never reallocates."""

    def __init__(self, machine: PartitionableMachine):
        super().__init__(machine)
        self._loads = machine.new_load_tracker()
        self._placement: dict[TaskId, NodeId] = {}

    @property
    def name(self) -> str:
        return "A_G"

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        if task.task_id in self._placement:
            raise AllocationError(f"task {task.task_id} already placed")
        node, _load = self._loads.leftmost_min_submachine(task.size)
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

    # -- Introspection used by tests ------------------------------------------

    @property
    def current_max_load(self) -> int:
        """Max PE load as seen by the algorithm's own bookkeeping."""
        return self._loads.max_load

    # -- Columnar batch capability --------------------------------------------

    @property
    def columnar_state(self):
        """Expose ``(load tracker, placement map)`` to the columnar engine.

        Contract (see :mod:`repro.kernel.columnar`): the algorithm's whole
        arrival behaviour must be "place on the leftmost minimum-load
        submachine of the task's size, never reallocate", with these two
        structures as its *complete* mutable state — the engine updates
        both directly while it owns a batch, bypassing
        :meth:`on_arrival`/:meth:`on_departure`.  A_G satisfies this by
        definition (Section 4.1); an algorithm with any additional
        per-event state must not expose this property.
        """
        return self._loads, self._placement
