"""The oblivious randomized algorithm of Section 5.1.

(The paper reuses the name "A_R" for this algorithm; to avoid clashing with
the reallocation *procedure* A_R of Section 3 we call it
:class:`ObliviousRandomAlgorithm`.)

On the arrival of a task of size ``2^x``, assign it to a uniformly random
``2^x``-PE submachine — each of the ``N / 2^x`` aligned submachines with
probability ``2^x / N`` — ignoring all current loads.  No reallocation.

Theorem 5.1: the maximum *expected* load is at most
``(3 log N / log log N + 1) * L*``; the proof is a Hoeffding tail bound on
the number of tasks covering a fixed PE, whose mean is at most ``L*`` under
this distribution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.base import AllocationAlgorithm, Placement, id_order, reorder
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ObliviousRandomAlgorithm"]


class ObliviousRandomAlgorithm(AllocationAlgorithm):
    """Uniform random submachine placement (load-oblivious, no reallocation)."""

    def __init__(self, machine: PartitionableMachine, rng: np.random.Generator):
        super().__init__(machine)
        self._rng = rng
        self._placement: dict[TaskId, NodeId] = {}

    @property
    def name(self) -> str:
        return "A_rand"

    @property
    def is_randomized(self) -> bool:
        return True

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        if task.task_id in self._placement:
            raise AllocationError(f"task {task.task_id} already placed")
        h = self.machine.hierarchy
        count = h.num_submachines(task.size)
        index = int(self._rng.integers(count))
        node = h.node_for(task.size, index)
        self._placement[task.task_id] = node
        return Placement(task.task_id, node)

    def on_departure(self, task: Task) -> None:
        if self._placement.pop(task.task_id, None) is None:
            raise AllocationError(f"departure of unplaced task {task.task_id}")

    def reset(self) -> None:
        # Note: does NOT reset the RNG; independent repetitions across
        # resets are exactly what expected-load estimation needs.
        self._placement.clear()

    def state(self) -> dict[str, Any]:
        return {"placement": id_order(self._placement), "rng": self._rng.bit_generator.state}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._placement = reorder(state["placement"], placements)
        self._rng.bit_generator.state = state["rng"]
