"""Algorithm A_C — the constantly reallocating optimal algorithm (Section 3).

A_C repacks *all* active tasks with procedure A_R on every arrival, and
deallocates on departure.  Theorem 3.1: its load equals the optimal load
``L* = ceil(s(sigma)/N)`` on every sequence — at any arrival instant the
repack uses ``ceil(S(sigma; tau)/N) <= L*`` copies (Lemma 1), and
departures only decrease load.

In the d-reallocation taxonomy A_C is the ``d = 0`` extreme: it pays a full
reallocation per arrival in exchange for perfect balance.  The simulator's
migration-cost accounting makes that price explicit.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.core.base import AllocationAlgorithm, Placement, Reallocation, id_order, reorder
from repro.core.repack import repack
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["OptimalReallocatingAlgorithm"]


class OptimalReallocatingAlgorithm(AllocationAlgorithm):
    """Repack-on-every-arrival (``d = 0``); achieves exactly ``L*``."""

    def __init__(self, machine: PartitionableMachine):
        super().__init__(machine)
        self._active: dict[TaskId, Task] = {}
        self._placement: dict[TaskId, NodeId] = {}
        self._pending_repack: Optional[Reallocation] = None

    @property
    def name(self) -> str:
        return "A_C"

    @property
    def reallocation_parameter(self) -> float:
        return 0.0

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        if task.task_id in self._active:
            raise AllocationError(f"task {task.task_id} already placed")
        self._active[task.task_id] = task
        # Repack everything, including the newcomer; its placement is read
        # off the repack and the full remap is handed to the simulator via
        # maybe_reallocate immediately after this arrival.
        result = repack(self.machine.hierarchy, self._active.values())
        self._placement = dict(result.mapping)
        self._pending_repack = Reallocation(dict(result.mapping))
        return Placement(task.task_id, self._placement[task.task_id])

    def maybe_reallocate(self, arrived_since_last: int) -> Optional[Reallocation]:
        pending, self._pending_repack = self._pending_repack, None
        if pending is None:
            return None
        # The newcomer was already placed at its repacked position by
        # on_arrival; the remap covers the remaining active tasks.
        return pending

    def on_departure(self, task: Task) -> None:
        if task.task_id not in self._active:
            raise AllocationError(f"departure of unplaced task {task.task_id}")
        del self._active[task.task_id]
        del self._placement[task.task_id]

    def reset(self) -> None:
        self._active.clear()
        self._placement.clear()
        self._pending_repack = None

    def state(self) -> dict[str, Any]:
        # Between events no repack is pending: maybe_reallocate consumed it.
        return {"active": id_order(self._active), "placement": id_order(self._placement)}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._active = reorder(state["active"], tasks)
        self._placement = reorder(state["placement"], placements)
        self._pending_repack = None
