"""Salvage repacking — procedure A_R on the degraded machine.

When a subtree fails, every task overlapping it is orphaned.  The salvage
policy re-runs the paper's repacking procedure A_R over *all* active tasks
against the surviving capacity: copies of T in which every failed subtree
is pre-blocked (:class:`DegradedCopySet`), decreasing-size first-fit as in
Section 3.

Degraded Lemma 1 (docs/RESILIENCE.md): when every active task size is at
most the smallest maximal alive subtree — guaranteed by the fault-plan
generator's granularity rule — decreasing first-fit fills every degraded
copy completely before opening the last, so salvage uses exactly
``ceil(S / N_surviving)`` copies: the degraded optimum ``L*_deg``.

:class:`FaultTolerantAlgorithm` makes *every* registry algorithm runnable
under faults: while the machine is healthy it is a transparent proxy for
the wrapped algorithm; after the first failure it permanently switches to
degraded mode — copy-based first-fit (A_B) for new arrivals on the
surviving machine, salvage repacks at fault events, and budgeted A_R
repacks at the wrapped algorithm's own ``d`` (against ``d * N_surviving``).
The wrapped algorithm's healthy-machine guarantee is kept verbatim until
the failure; afterwards the degraded bound of Theorem 4.2's argument
applies (peak load <= (d+1) * max(ceil(s / N_surviving), 1)).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence

from repro.core.base import AllocationAlgorithm, Placement, Reallocation, id_order, reorder
from repro.core.repack import RepackResult
from repro.errors import AllocationError, SalvageError
from repro.machines.base import PartitionableMachine
from repro.machines.copies import BuddyCopy, CopySet
from repro.machines.degraded import DegradedView
from repro.machines.hierarchy import Hierarchy
from repro.tasks.task import Task
from repro.types import CopyId, NodeId, TaskId

__all__ = ["DegradedCopySet", "salvage_repack", "FaultTolerantAlgorithm"]


class DegradedCopySet(CopySet):
    """Copies of T with every failed subtree pre-blocked.

    Fresh copies come up with the failed nodes already withdrawn, so the
    first-fit rule can never place a task over dead PEs; everything else
    (creation order, leftmost allocation) matches the healthy
    :class:`~repro.machines.copies.CopySet` exactly.
    """

    __slots__ = ("_blocked_nodes",)

    def __init__(self, hierarchy: Hierarchy, blocked_nodes: Iterable[NodeId]):
        super().__init__(hierarchy)
        self._blocked_nodes = tuple(sorted(blocked_nodes))

    @property
    def blocked_nodes(self) -> tuple[NodeId, ...]:
        return self._blocked_nodes

    def _new_copy(self) -> BuddyCopy:
        copy = BuddyCopy(self.hierarchy)
        for node in self._blocked_nodes:
            copy.block(node)
        return copy

    @classmethod
    def from_slots(
        cls,
        hierarchy: Hierarchy,
        num_copies: int,
        slots: Iterable[tuple[CopyId, NodeId]],
        blocked_nodes: Iterable[NodeId] = (),
    ) -> "DegradedCopySet":
        """Fresh blocked copies with one task assigned at each slot."""
        copies = cls(hierarchy, blocked_nodes)
        copies._copies = [copies._new_copy() for _ in range(num_copies)]
        for cid, node in slots:
            if not 0 <= cid < num_copies:
                raise AllocationError(f"slot names copy {cid} of {num_copies}")
            copies[cid].assign_at(node)
        return copies


def salvage_repack(
    hierarchy: Hierarchy,
    active_tasks: Iterable[Task],
    failed_nodes: Sequence[NodeId],
) -> RepackResult:
    """Run A_R over ``active_tasks`` on the machine minus ``failed_nodes``.

    Identical to :func:`repro.core.repack.repack` except that every copy
    blocks the failed subtrees.  Raises :class:`SalvageError` when some
    task is larger than every surviving submachine (ruled out by the
    granularity rule, but reachable with hand-built plans).
    """
    ordered = sorted(active_tasks, key=lambda t: (-t.size, t.task_id))
    copies = DegradedCopySet(hierarchy, failed_nodes)
    mapping: Dict[TaskId, NodeId] = {}
    copy_of: Dict[TaskId, CopyId] = {}
    for task in ordered:
        try:
            cid, node = copies.first_fit(task.size)
        except AllocationError as exc:
            raise SalvageError(
                f"cannot salvage task {task.task_id} (size {task.size}): "
                f"no surviving {task.size}-PE submachine with failed "
                f"subtrees {list(failed_nodes)!r}"
            ) from exc
        mapping[task.task_id] = node
        copy_of[task.task_id] = cid
    return RepackResult(
        mapping=mapping,
        copy_of=copy_of,
        num_copies=copies.num_copies,
        copies=copies,
    )


class FaultTolerantAlgorithm(AllocationAlgorithm):
    """Registry-algorithm wrapper that survives PE failures.

    Healthy mode: pure delegation to ``inner`` (placements mirrored so the
    fault path always knows the active set).  Degraded mode — entered at
    the first failure, permanent for the run: arrivals first-fit into the
    current degraded copies, fault events trigger salvage repacks via
    :meth:`on_fault`, and the inner algorithm's ``d`` budget triggers full
    A_R repacks against surviving capacity.  The inner algorithm is not
    consulted again after the switch: its internal geometry (greedy load
    trees, healthy copies) is unsound on the degraded machine.
    """

    def __init__(
        self,
        machine: PartitionableMachine,
        inner: AllocationAlgorithm,
        view: DegradedView,
    ):
        super().__init__(machine)
        if inner.machine is not machine:
            raise SalvageError(
                "wrapped algorithm was constructed for a different machine"
            )
        self.inner = inner
        self.view = view
        self._degraded = False
        self._tasks: Dict[TaskId, Task] = {}
        self._nodes: Dict[TaskId, NodeId] = {}
        self._copies: Optional[DegradedCopySet] = None
        self._copy_of: Dict[TaskId, CopyId] = {}

    # -- Identification -----------------------------------------------------

    @property
    def name(self) -> str:
        return f"FT[{self.inner.name}]"

    @property
    def is_randomized(self) -> bool:
        return self.inner.is_randomized

    @property
    def reallocation_parameter(self) -> float:
        return self.inner.reallocation_parameter

    @property
    def is_degraded(self) -> bool:
        return self._degraded

    @property
    def active_tasks(self) -> Dict[TaskId, Task]:
        return dict(self._tasks)

    # -- Event hooks --------------------------------------------------------

    def on_arrival(self, task: Task) -> Placement:
        if not self._degraded:
            placement = self.inner.on_arrival(task)
            self._tasks[task.task_id] = task
            self._nodes[task.task_id] = placement.node
            return placement
        assert self._copies is not None
        try:
            cid, node = self._copies.first_fit(task.size)
        except AllocationError as exc:
            raise SalvageError(
                f"cannot place arriving task {task.task_id} "
                f"(size {task.size}) on the degraded machine"
            ) from exc
        self._tasks[task.task_id] = task
        self._nodes[task.task_id] = node
        self._copy_of[task.task_id] = cid
        return Placement(task.task_id, node)

    def on_departure(self, task: Task) -> None:
        if not self._degraded:
            self.inner.on_departure(task)
        else:
            assert self._copies is not None
            self._copies.free(
                self._copy_of.pop(task.task_id), self._nodes[task.task_id]
            )
        self._tasks.pop(task.task_id, None)
        self._nodes.pop(task.task_id, None)

    def kill(self, task: Task) -> None:
        """The task died (its PEs survive) — release it like a departure."""
        self.on_departure(task)

    def maybe_reallocate(self, arrived_since_last: int) -> Optional[Reallocation]:
        if not self._degraded:
            realloc = self.inner.maybe_reallocate(arrived_since_last)
            if realloc is not None:
                self._nodes.update(realloc.mapping)
            return realloc
        d = self.reallocation_parameter
        if math.isinf(d):
            return None
        if arrived_since_last < d * max(1, self.view.surviving_pes):
            return None
        return Reallocation(self._salvage())

    # -- Fault hooks --------------------------------------------------------

    def on_fault(self) -> Optional[Reallocation]:
        """React to a just-applied failure or repair on :attr:`view`.

        Called by the fault-aware simulator *after* the view is updated.
        Switches to (or stays in) degraded mode, repacks all active tasks
        onto the surviving capacity, and returns the remapping (``None``
        when nothing is active — the copies are still rebuilt so future
        arrivals respect the new fault set).
        """
        self._degraded = True
        mapping = self._salvage()
        return Reallocation(mapping) if mapping else None

    def on_resize(
        self, machine: PartitionableMachine, view: DegradedView
    ) -> Optional[Reallocation]:
        """Adopt a grown/shrunk ``machine`` and repack every active task.

        Called by the kernel *after* it swapped its own machine and view
        (so placements the repack returns are validated against the new
        tree).  The wrapper switches to degraded mode permanently: the
        inner algorithm's internal geometry (greedy load trees, healthy
        copies) was built for the old machine and is unsound on the new
        one, while copy-based first-fit is sound on any machine — and its
        degraded bound (``(d+1) * max(ceil(s / N_surviving), 1)``,
        evaluated per constant-N epoch) is exactly what the piecewise
        referee checks.  Returns the full remapping (``None`` when nothing
        is active; the copies are still rebuilt for future arrivals).
        """
        self.machine = machine
        self.view = view
        self._degraded = True
        mapping = self._salvage()
        return Reallocation(mapping) if mapping else None

    def _salvage(self) -> Dict[TaskId, NodeId]:
        result = salvage_repack(
            self.machine.hierarchy, self._tasks.values(), self.view.failed_nodes
        )
        assert isinstance(result.copies, DegradedCopySet)
        self._copies = result.copies
        self._copy_of = dict(result.copy_of)
        self._nodes = dict(result.mapping)
        return dict(result.mapping)

    def reset(self) -> None:
        self.inner.reset()
        self._degraded = False
        self._tasks.clear()
        self._nodes.clear()
        self._copies = None
        self._copy_of.clear()

    # -- Restorable state ---------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Healthy: the inner algorithm's state.  Degraded: the degraded
        copies (blocked nodes, count, each task's copy); the inner
        algorithm is never consulted again, so its state is dropped.
        ``machine`` and ``view`` are the kernel's and are rebound by the
        caller before :meth:`load_state`."""
        out: dict[str, Any] = {
            "degraded": self._degraded,
            "tasks": id_order(self._tasks),
            "nodes": id_order(self._nodes),
        }
        if not self._degraded:
            out["inner"] = self.inner.state()
        elif self._copies is not None:
            out["copies"] = {
                "blocked": [int(n) for n in self._copies.blocked_nodes],
                "count": self._copies.num_copies,
                "copy_of": [[int(t), int(c)] for t, c in self._copy_of.items()],
            }
        return out

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._degraded = bool(state["degraded"])
        self._tasks = reorder(state["tasks"], tasks)
        self._nodes = reorder(state["nodes"], placements)
        self._copies = None
        self._copy_of = {}
        if not self._degraded:
            self.inner.load_state(state["inner"], tasks, placements)
            return
        copies = state.get("copies")
        if copies is not None:
            copy_of = {TaskId(int(t)): CopyId(int(c)) for t, c in copies["copy_of"]}
            reorder(list(copy_of), self._tasks)  # one copy per active task
            self._copy_of = copy_of
            self._copies = DegradedCopySet.from_slots(
                self.machine.hierarchy,
                int(copies["count"]),
                ((copy_of[t], self._nodes[t]) for t in copy_of),
                [NodeId(int(n)) for n in copies["blocked"]],
            )
