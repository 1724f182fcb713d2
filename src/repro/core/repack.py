"""Reallocation procedure A_R (Section 3) — the repacking primitive.

Given the set of active tasks, A_R maps them to fresh "copies of T":

1. sort the tasks in order of decreasing size;
2. for each task of size ``2^x``, find the *first* copy (in creation order)
   containing a vacant ``2^x``-PE submachine, creating a new copy if none
   does;
3. assign the task to the *leftmost* vacant ``2^x``-PE submachine of that
   copy.

Lemma 1: for total active size ``S``, A_R uses exactly ``ceil(S/N)`` copies
(decreasing-size first-fit leaves no hole except possibly in the last copy),
so the resulting machine load is ``ceil(S/N)`` — the optimal load for that
instant.

Closed form.  Because the sizes are powers of two taken in decreasing
order, every copy's occupied leaves form a prefix whose length is a
multiple of the current task's size, and every copy but the last is full
(a copy with free space would have hosted the earlier, larger task that
opened the next copy).  So the first-fit answer is pure offset arithmetic:
task ``k`` starts at leaf offset ``o = sum(sizes before k)`` of the
concatenated copies, lands in copy ``o // N``, and occupies the
size-``s`` submachine whose first leaf is ``o % N``, i.e. hierarchy node
``(N + o % N) // s``.  :func:`repack` computes all placements with one
prefix sum and builds each copy's vacancy tree in one vectorised
bottom-up pass (:meth:`~repro.machines.copies.CopySet.from_packing`) —
no per-task ``first_fit``.  :func:`repack_reference` runs the procedure
literally, one :meth:`~repro.machines.copies.CopySet.first_fit` at a
time, and is the test oracle the closed form must match field for field.

The degraded variant (:func:`repro.faults.salvage.salvage_repack`) stays
on the literal procedure: failed subtrees punch holes that break the
prefix contiguity the closed form relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.machines.copies import CopySet
from repro.machines.hierarchy import Hierarchy
from repro.tasks.task import Task
from repro.types import CopyId, NodeId, TaskId, ceil_div

__all__ = ["RepackResult", "repack", "repack_reference"]


@dataclass(frozen=True)
class RepackResult:
    """Outcome of one run of procedure A_R."""

    #: Physical placement of each task (hierarchy node of its size).
    mapping: Mapping[TaskId, NodeId]
    #: Copy index of each task — the "thread layer" it occupies.
    copy_of: Mapping[TaskId, CopyId]
    #: Number of copies created; Lemma 1 guarantees ``ceil(S/N)``.
    num_copies: int
    #: The copy structures themselves, so an online algorithm (A_B inside
    #: A_M) can continue first-fitting into the repacked state.
    copies: CopySet


def _ordered(active_tasks: Iterable[Task]) -> list[Task]:
    # Ties between equal-size tasks are broken by task id so the procedure
    # is deterministic (the paper's analysis is indifferent to this order).
    return sorted(active_tasks, key=lambda t: (-t.size, t.task_id))


def repack(hierarchy: Hierarchy, active_tasks: Iterable[Task]) -> RepackResult:
    """Run procedure A_R on the given active tasks, in closed form.

    Returns exactly what :func:`repack_reference` returns — the same
    ``mapping`` and ``copy_of`` in the same (sorted) order, the same copy
    count and copies that answer every later ``first_fit``/``free``
    identically.  A size that is not a power of two ``<= N`` is handed
    to the reference so it raises the reference's error.
    """
    import numpy as np

    ordered = _ordered(active_tasks)
    n = hierarchy.num_leaves
    sizes = np.fromiter((t.size for t in ordered), dtype=np.int64, count=len(ordered))
    if not ((sizes >= 1) & (sizes <= n) & ((sizes & (sizes - 1)) == 0)).all():
        return repack_reference(hierarchy, ordered)
    offsets = np.cumsum(sizes) - sizes
    copy_ids = offsets // n
    nodes = (n + offsets % n) // sizes
    num_copies = ceil_div(int(sizes.sum()), n)
    tids = [t.task_id for t in ordered]
    return RepackResult(
        mapping=dict(zip(tids, nodes.tolist())),
        copy_of=dict(zip(tids, copy_ids.tolist())),
        num_copies=num_copies,
        copies=CopySet.from_packing(hierarchy, copy_ids, nodes, num_copies),
    )


def repack_reference(
    hierarchy: Hierarchy, active_tasks: Iterable[Task]
) -> RepackResult:
    """Run procedure A_R literally: one first-fit per task (test oracle)."""
    copies = CopySet(hierarchy)
    mapping: dict[TaskId, NodeId] = {}
    copy_of: dict[TaskId, CopyId] = {}
    for task in _ordered(active_tasks):
        cid, node = copies.first_fit(task.size)
        mapping[task.task_id] = node
        copy_of[task.task_id] = cid
    return RepackResult(
        mapping=mapping,
        copy_of=copy_of,
        num_copies=copies.num_copies,
        copies=copies,
    )
