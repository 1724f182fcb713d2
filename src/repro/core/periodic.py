"""Algorithm A_M — the d-reallocation online algorithm (Section 4.1).

A_M exposes the paper's headline trade-off.  Let
``g = ceil((log N + 1) / 2)`` (the greedy guarantee).

* If ``d >= g``: reallocation is so rare it cannot help; behave exactly as
  the greedy A_G and never reallocate.
* If ``d < g``: place arrivals with the copy-based A_B, and whenever the
  cumulative size of arrivals since the last reallocation reaches ``d * N``,
  repack all active tasks with procedure A_R.

Theorem 4.2: ``L_{A_M}(sigma) <= min{d + 1, ceil((log N + 1)/2)} * L*``.
The ``d < g`` branch's argument: the repacked prefix occupies at most ``L*``
copies (Lemma 1), and arrivals since the repack total at most ``d * N`` so
A_B adds at most ``d`` copies (Lemma 2) — ``d + L* <= (d + 1) L*`` in all.

``d = 0`` degenerates to repack-after-every-arrival, i.e. the optimal A_C.

Trigger policies.  The model only says a d-reallocation algorithm *can*
reallocate once the arrival volume since the last repack reaches ``dN``;
when to actually do so is a policy choice:

* ``lazy=False`` (the paper's literal A_M): repack exactly when the budget
  fills.  Simple, and what Theorem 4.2 analyses.
* ``lazy=True``: once the budget is full, keep placing online and repack
  only when the current max load exceeds what a repack would achieve
  (``ceil(active_volume / N)``).  This is the behaviour of the paper's
  Figure 1 narrative — "it can reallocate t3 to the position of t2 at the
  time t5 arrives" — and it Pareto-dominates the eager policy: never more
  reallocations, never a higher load bound (the Theorem 4.2 argument goes
  through unchanged because a lazy repack still resets both copy budgets).
  Ablation bench A1/E4 compares the two.
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
    tracker_for,
)
from repro.core.basic import BasicAlgorithm
from repro.core.bounds import greedy_upper_bound_factor
from repro.core.greedy import GreedyAlgorithm
from repro.core.repack import repack
from repro.errors import AllocationError
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId, ceil_div

__all__ = ["PeriodicReallocationAlgorithm"]


class PeriodicReallocationAlgorithm(AllocationAlgorithm):
    """The d-reallocation algorithm A_M of Theorem 4.2."""

    def __init__(self, machine: PartitionableMachine, d: float, *, lazy: bool = False):
        super().__init__(machine)
        if d < 0:
            raise ValueError(f"reallocation parameter d must be >= 0, got {d}")
        self._d = float(d)
        self._lazy = lazy
        self._greedy_factor = greedy_upper_bound_factor(machine.num_pes)
        self._uses_greedy = self._d >= self._greedy_factor
        self._inner: AllocationAlgorithm = (
            GreedyAlgorithm(machine) if self._uses_greedy else BasicAlgorithm(machine)
        )
        self._active: dict[TaskId, Task] = {}
        # Mirror of current placements for the lazy trigger's load check;
        # the eager trigger never reads it, so only a lazy A_M keeps one.
        self._tracker = machine.new_load_tracker() if lazy else None
        self._nodes: dict[TaskId, int] = {}

    @property
    def name(self) -> str:
        d = self._d
        dstr = "inf" if math.isinf(d) else (f"{int(d)}" if d == int(d) else f"{d:g}")
        suffix = ",lazy" if self._lazy else ""
        return f"A_M(d={dstr}{suffix})"

    @property
    def reallocation_parameter(self) -> float:
        return self._d

    @property
    def uses_greedy_branch(self) -> bool:
        """Whether ``d >= ceil((log N + 1)/2)`` selected the A_G branch."""
        return self._uses_greedy

    @property
    def is_lazy(self) -> bool:
        return self._lazy

    def on_arrival(self, task: Task) -> Placement:
        if task.task_id in self._active:
            raise AllocationError(f"task {task.task_id} already placed")
        placement = self._inner.on_arrival(task)
        self._active[task.task_id] = task
        if self._tracker is not None:
            self._tracker.place(placement.node, task.size)
            self._nodes[task.task_id] = placement.node
        return placement

    def on_departure(self, task: Task) -> None:
        self._inner.on_departure(task)
        self._active.pop(task.task_id, None)
        if self._tracker is not None:
            self._tracker.remove(self._nodes.pop(task.task_id), task.size)

    def maybe_reallocate(self, arrived_since_last: int) -> Optional[Reallocation]:
        if self._uses_greedy:
            return None
        if arrived_since_last < self._d * self.machine.num_pes:
            return None
        if self._tracker is not None:
            active_volume = sum(t.size for t in self._active.values())
            best_possible = ceil_div(active_volume, self.machine.num_pes)
            if self._tracker.max_load <= best_possible:
                return None  # a repack would not improve anything yet
        result = repack(self.machine.hierarchy, self._active.values())
        assert isinstance(self._inner, BasicAlgorithm)
        self._inner.adopt_repack(result)
        if self._tracker is not None:
            # One vectorised O(N) rebuild instead of clear() + per-task
            # place(): repacks remap every active task, so incremental
            # updates would walk the whole tree once per task.
            self._tracker.rebuild_from(
                (node, self._active[tid].size)
                for tid, node in result.mapping.items()
            )
            self._nodes = dict(result.mapping)
        return Reallocation(dict(result.mapping))

    def reset(self) -> None:
        self._inner.reset()
        self._active.clear()
        if self._tracker is not None:
            self._tracker = self.machine.new_load_tracker()
        self._nodes.clear()

    def state(self) -> dict[str, Any]:
        return {
            "inner": self._inner.state(),
            "active": id_order(self._active),
            "nodes": id_order(self._nodes),
        }

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._inner.load_state(state["inner"], tasks, placements)
        self._active = reorder(state["active"], tasks)
        if self._tracker is not None:
            self._nodes = reorder(state["nodes"], placements)
            self._tracker = tracker_for(self.machine, self._nodes, tasks)
