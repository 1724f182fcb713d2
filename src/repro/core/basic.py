"""Algorithm A_B — copy-based first-fit online allocation (Section 4.1).

A_B maintains an ordered list of "copies of T".  An arriving task of size
``2^x`` is assigned to the leftmost vacant ``2^x``-PE submachine of the
*first* copy that has one (a new copy is appended if none does); a
departing task's submachine is deallocated in its copy.

Lemma 2: if the *total* size of all arrivals in the sequence is ``S``, A_B
never uses more than ``ceil(S/N)`` copies, hence its load is at most
``ceil(S/N)``.  (Unlike A_G's guarantee this degrades with sequence length,
which is why A_M pairs A_B with periodic repacking.)

The class supports being re-seeded from a :class:`~repro.core.repack.RepackResult`
so the d-reallocation algorithm A_M can continue first-fitting into the
post-repack copy state.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.base import AllocationAlgorithm, Placement, reorder
from repro.core.repack import RepackResult
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.machines.copies import CopySet
from repro.tasks.task import Task
from repro.types import CopyId, NodeId, TaskId

__all__ = ["BasicAlgorithm"]


class BasicAlgorithm(AllocationAlgorithm):
    """First-fit into ordered machine copies; never reallocates by itself."""

    def __init__(self, machine: PartitionableMachine):
        super().__init__(machine)
        self._copies = CopySet(machine.hierarchy)
        self._slot: dict[TaskId, tuple[CopyId, NodeId]] = {}

    @property
    def name(self) -> str:
        return "A_B"

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        if task.task_id in self._slot:
            raise AllocationError(f"task {task.task_id} already placed")
        cid, node = self._copies.first_fit(task.size)
        self._slot[task.task_id] = (cid, node)
        return Placement(task.task_id, node)

    def on_departure(self, task: Task) -> None:
        slot = self._slot.pop(task.task_id, None)
        if slot is None:
            raise AllocationError(f"departure of unplaced task {task.task_id}")
        self._copies.free(*slot)

    def reset(self) -> None:
        self._copies = CopySet(self.machine.hierarchy)
        self._slot.clear()

    def state(self) -> dict[str, Any]:
        """The copy count and each task's copy, in slot order; the nodes
        are the placements."""
        return {
            "copies": self._copies.num_copies,
            "slot": [[int(tid), int(cid)] for tid, (cid, _node) in self._slot.items()],
        }

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        copy_of = {int(tid): int(cid) for tid, cid in state["slot"]}
        nodes = reorder(list(copy_of), placements)
        self._slot = {tid: (CopyId(copy_of[tid]), node) for tid, node in nodes.items()}
        self._copies = CopySet.from_slots(
            self.machine.hierarchy, int(state["copies"]), self._slot.values()
        )

    # -- Integration with A_M -------------------------------------------------

    def adopt_repack(self, result: RepackResult) -> None:
        """Replace internal state with the outcome of a repack (A_R).

        After this call the algorithm's copies are exactly the repacked
        copies; subsequent arrivals first-fit into them.
        """
        self._copies = result.copies
        self._slot = {
            tid: (result.copy_of[tid], node) for tid, node in result.mapping.items()
        }

    # -- Introspection -----------------------------------------------------------

    @property
    def num_copies(self) -> int:
        """Copies ever created since the last reset/repack (Lemma 2's bound)."""
        return self._copies.num_copies

    @property
    def num_nonempty_copies(self) -> int:
        return self._copies.num_nonempty_copies

    def placement_of(self, task_id: TaskId) -> NodeId:
        return self._slot[task_id][1]
