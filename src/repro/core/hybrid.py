"""Randomization + reallocation — the paper's stated open problem.

Section 5 closes with: "The question of utilizing reallocation together
with randomization is an area for future study."  This module supplies the
natural candidate so the repository can *measure* what the paper left
open:

:class:`RandomizedPeriodicAlgorithm` places arrivals obliviously at random
(the Section 5.1 algorithm) but repacks all active tasks with procedure
A_R every time the arrival volume since the last repack reaches ``d * N``
(the Section 4 budget).  Intuition for why this should work: between
repacks at most ``dN`` volume arrives, so random placement's Hoeffding
tail applies to a ``<= d``-copy overlay on top of an optimally packed
``ceil(active/N)``-copy base — the deterministic ``d + L*`` argument with
the random layer replacing A_B's first-fit layer.

Ablation bench A4 compares it against deterministic A_M and the
never-reallocating randomized algorithm at equal d.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.core.base import AllocationAlgorithm, Placement, Reallocation, id_order, reorder
from repro.core.repack import repack
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RandomizedPeriodicAlgorithm"]


class RandomizedPeriodicAlgorithm(AllocationAlgorithm):
    """Oblivious random placement with periodic A_R repacking."""

    def __init__(
        self, machine: PartitionableMachine, d: float, rng: np.random.Generator
    ):
        super().__init__(machine)
        if d < 0:
            raise ValueError(f"reallocation parameter d must be >= 0, got {d}")
        self._d = float(d)
        self._rng = rng
        self._active: dict[TaskId, Task] = {}
        self._placement: dict[TaskId, NodeId] = {}

    @property
    def name(self) -> str:
        dstr = "inf" if math.isinf(self._d) else f"{self._d:g}"
        return f"A_randM(d={dstr})"

    @property
    def is_randomized(self) -> bool:
        return True

    @property
    def reallocation_parameter(self) -> float:
        return self._d

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        if task.task_id in self._active:
            raise AllocationError(f"task {task.task_id} already placed")
        h = self.machine.hierarchy
        count = h.num_submachines(task.size)
        node = h.node_for(task.size, int(self._rng.integers(count)))
        self._active[task.task_id] = task
        self._placement[task.task_id] = node
        return Placement(task.task_id, node)

    def on_departure(self, task: Task) -> None:
        if self._active.pop(task.task_id, None) is None:
            raise AllocationError(f"departure of unplaced task {task.task_id}")
        del self._placement[task.task_id]

    def maybe_reallocate(self, arrived_since_last: int) -> Optional[Reallocation]:
        if math.isinf(self._d):
            return None
        if arrived_since_last < self._d * self.machine.num_pes:
            return None
        result = repack(self.machine.hierarchy, self._active.values())
        self._placement = dict(result.mapping)
        return Reallocation(dict(result.mapping))

    def reset(self) -> None:
        self._active.clear()
        self._placement.clear()

    def state(self) -> dict[str, Any]:
        return {
            "active": id_order(self._active),
            "placement": id_order(self._placement),
            "rng": self._rng.bit_generator.state,
        }

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._active = reorder(state["active"], tasks)
        self._placement = reorder(state["placement"], placements)
        self._rng.bit_generator.state = state["rng"]
