"""Budget-limited incremental reallocation — a practical extension.

The paper's reallocation procedure A_R moves *every* active task, which is
what makes reallocation "an expensive operation [that] must be performed
infrequently".  A natural engineering refinement is to cap the number of
tasks each reallocation may migrate: when the repack opportunity arrives,
compute the full A_R target packing, then realise only the ``k`` moves
that reduce the maximum load the most, leaving everything else in place.

:class:`IncrementalReallocationAlgorithm` implements this with a simple
peel-from-the-peak heuristic: while the migration budget lasts and the
current max load exceeds the packing optimum ``ceil(active/N)``, take a
task placed through a maximum-load PE (smallest first, so one move frees
the most stacked leaf per PE moved) and re-place it greedily at the
least-loaded submachine of its size.

This trades the paper's clean ``d + L*`` guarantee for a tunable
migration bill; ablation bench A5 maps the frontier (max load vs tasks
moved per repack), quantifying how much of the full-repack benefit the
first few moves capture.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional

from repro.core.base import (
    AllocationAlgorithm,
    Placement,
    Reallocation,
    id_order,
    reorder,
)
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.machines.loads import LoadTracker
from repro.tasks.task import Task
from repro.types import NodeId, TaskId, ceil_div

__all__ = ["IncrementalReallocationAlgorithm"]


class IncrementalReallocationAlgorithm(AllocationAlgorithm):
    """Greedy placement + at most ``moves_per_realloc`` migrations per repack."""

    def __init__(
        self,
        machine: PartitionableMachine,
        d: float,
        moves_per_realloc: int,
    ):
        super().__init__(machine)
        if d < 0:
            raise ValueError(f"reallocation parameter d must be >= 0, got {d}")
        if moves_per_realloc < 0:
            raise ValueError("moves_per_realloc must be >= 0")
        self._d = float(d)
        self._budget = moves_per_realloc
        self._loads: LoadTracker = machine.new_load_tracker()
        self._active: dict[TaskId, Task] = {}
        self._placement: dict[TaskId, NodeId] = {}

    @property
    def name(self) -> str:
        dstr = "inf" if math.isinf(self._d) else f"{self._d:g}"
        return f"A_inc(d={dstr},k={self._budget})"

    @property
    def reallocation_parameter(self) -> float:
        return self._d

    def bind_loads(self, loads: LoadTracker) -> None:
        """Keep the private tracker: the repack search below moves tasks on
        it while it looks, which the kernel's tracker must never see."""

    # -- Online placement (greedy, as A_G) ------------------------------------

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        if task.task_id in self._active:
            raise AllocationError(f"task {task.task_id} already placed")
        node, _ = self._loads.leftmost_min_submachine(task.size)
        self._loads.place(node, task.size)
        self._active[task.task_id] = task
        self._placement[task.task_id] = node
        return Placement(task.task_id, node)

    def on_departure(self, task: Task) -> None:
        node = self._placement.pop(task.task_id, None)
        if node is None:
            raise AllocationError(f"departure of unplaced task {task.task_id}")
        self._loads.remove(node, task.size)
        del self._active[task.task_id]

    # -- Budget-limited repack ----------------------------------------------------

    def _tasks_through_peak(self) -> list[TaskId]:
        """Active tasks whose submachine contains a maximum-load PE."""
        h = self.machine.hierarchy
        leaf_loads = self._loads.leaf_loads()
        peak = int(leaf_loads.max())
        peak_pes = {int(pe) for pe in (leaf_loads == peak).nonzero()[0]}
        out = []
        for tid, node in self._placement.items():
            lo, hi = h.leaf_span(node)
            if any(pe in peak_pes for pe in range(lo, hi)):
                out.append(tid)
        return out

    def maybe_reallocate(self, arrived_since_last: int) -> Optional[Reallocation]:
        if math.isinf(self._d) or self._budget == 0:
            return None
        if arrived_since_last < self._d * self.machine.num_pes:
            return None
        target = ceil_div(
            sum(t.size for t in self._active.values()), self.machine.num_pes
        )
        if self._loads.max_load <= target:
            # Lazy: already at the packing optimum — decline and keep the
            # repack opportunity for an arrival that actually needs it.
            return None
        moves = 0
        changed = False
        while moves < self._budget and self._loads.max_load > target:
            candidates = self._tasks_through_peak()
            if not candidates:
                break
            # Smallest task first: cheapest state to move per stacked leaf
            # freed (a peak PE loses one thread whichever task we pick).
            tid = min(candidates, key=lambda t: (self._active[t].size, t))
            task = self._active[tid]
            old = self._placement[tid]
            self._loads.remove(old, task.size)
            new, new_load = self._loads.leftmost_min_submachine(task.size)
            # Only worthwhile if the destination is strictly better than the
            # load the task contributed to at the source.
            self._loads.place(new, task.size)
            if new == old:
                break  # nowhere better to go
            self._placement[tid] = new
            moves += 1
            changed = True
        if not changed:
            # Could not improve (no candidate had a better home): decline
            # rather than burn the budget on an identity remap.
            return None
        return Reallocation(dict(self._placement))

    def reset(self) -> None:
        self._loads = self.machine.new_load_tracker()
        self._active.clear()
        self._placement.clear()

    def state(self) -> dict[str, Any]:
        return {"active": id_order(self._active), "placement": id_order(self._placement)}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._active = reorder(state["active"], tasks)
        self._placement = reorder(state["placement"], placements)
        self._loads = self.machine.new_load_tracker()
        self._loads.rebuild_from(
            (node, tasks[tid].size) for tid, node in self._placement.items()
        )
