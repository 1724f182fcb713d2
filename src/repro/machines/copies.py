"""The "copies of T" device used by procedures A_R and A_B.

Both the reallocation procedure A_R (Section 3) and the basic online
algorithm A_B (Section 4.1) view the machine as a growing ordered list of
*identical copies* of T.  Within one copy every PE hosts at most one task,
so a copy is an ordinary (non-shared) buddy allocator; the *load* of the
real machine is bounded by the number of copies, because each copy is
emulated as one thread layer.

:class:`BuddyCopy` implements one copy: a vacancy tree supporting

* ``largest_vacant()`` — size of the biggest fully-vacant aligned
  submachine (0 if full),
* ``allocate(size)`` — place a task in the *leftmost* vacant ``size``-PE
  submachine (the paper's tie-break), O(log N),
* ``free(node)`` — release it, O(log N).

:class:`CopySet` implements the ordered list with the paper's first-fit
rule: scan copies in creation order, use the first that can host the task,
append a fresh copy if none can.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import AllocationError, PlacementError
from repro.machines.hierarchy import Hierarchy
from repro.types import CopyId, NodeId, is_power_of_two

__all__ = ["BuddyCopy", "CopySet"]


class BuddyCopy:
    """One copy of the machine: an aligned-subtree buddy allocator.

    State per node: ``assigned[v]`` (a task occupies exactly node ``v``) and
    ``max_vacant[v]`` — the size of the largest fully-vacant aligned
    submachine inside ``v``'s subtree, where a submachine is vacant iff no
    task is assigned at it, below it, *or at any ancestor* (an ancestor
    assignment occupies all leaves below).
    """

    __slots__ = ("hierarchy", "_assigned", "_max_vacant", "_num_tasks", "_blocked")

    def __init__(self, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        n2 = 2 * hierarchy.num_leaves
        self._assigned = np.zeros(n2, dtype=bool)
        self._max_vacant = np.zeros(n2, dtype=np.int64)
        # Initially the whole copy is vacant: max_vacant[v] = subtree size.
        h = hierarchy
        for level in range(h.height + 1):
            self._max_vacant[h.level_slice(level)] = h.num_leaves >> level
        self._num_tasks = 0
        # Subtrees withdrawn from allocation without hosting a task (failed
        # submachines in a degraded copy); occupy vacancy but not task count.
        self._blocked: frozenset[NodeId] = frozenset()

    @classmethod
    def _from_arrays(
        cls, hierarchy: Hierarchy, assigned: np.ndarray, max_vacant: np.ndarray,
        num_tasks: int,
    ) -> "BuddyCopy":
        copy = cls.__new__(cls)
        copy.hierarchy = hierarchy
        copy._assigned = assigned
        copy._max_vacant = max_vacant
        copy._num_tasks = num_tasks
        copy._blocked = frozenset()
        return copy

    # -- Queries ---------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        """Number of tasks currently assigned in this copy."""
        return self._num_tasks

    @property
    def is_empty(self) -> bool:
        return self._num_tasks == 0

    def largest_vacant(self) -> int:
        """Size of the largest vacant aligned submachine (0 if copy is full)."""
        return int(self._max_vacant[1])

    def can_host(self, size: int) -> bool:
        """True iff a vacant ``size``-PE submachine exists in this copy."""
        return self.largest_vacant() >= size

    def is_assigned(self, node: NodeId) -> bool:
        self.hierarchy._check(node)
        return bool(self._assigned[node])

    def assigned_nodes(self) -> Iterator[NodeId]:
        """Nodes with a task assigned, in heap order (left-to-right by level)."""
        return (int(v) for v in np.flatnonzero(self._assigned))

    # -- Internal maintenance ------------------------------------------------

    def _recompute_up(self, node: NodeId) -> None:
        h = self.hierarchy
        assigned = self._assigned
        mv = self._max_vacant
        n_leaves = h.num_leaves
        v = node
        while v >= 1:
            size_v = n_leaves >> (v.bit_length() - 1)
            if assigned[v]:
                mv[v] = 0
            elif v >= n_leaves:
                mv[v] = 1
            else:
                l, r = mv[2 * v], mv[2 * v + 1]
                # Children both entirely vacant <=> their max_vacant equal
                # their full sizes <=> this subtree is entirely vacant.
                if l == size_v // 2 and r == size_v // 2:
                    mv[v] = size_v
                else:
                    mv[v] = max(l, r)
            v >>= 1

    # -- Mutation ----------------------------------------------------------------

    def allocate(self, size: int) -> NodeId:
        """Assign a task to the leftmost vacant ``size``-PE submachine.

        Raises :class:`AllocationError` if no vacant submachine of that size
        exists (callers check :meth:`can_host` or rely on the exception).
        """
        h = self.hierarchy
        if not is_power_of_two(size) or size > h.num_leaves:
            raise PlacementError(f"cannot allocate size {size} in an "
                                 f"{h.num_leaves}-PE copy")
        if not self.can_host(size):
            raise AllocationError(f"no vacant {size}-PE submachine in this copy")
        mv = self._max_vacant
        v: NodeId = 1
        target_size = size
        while h.subtree_size(v) > target_size:
            left, right = 2 * v, 2 * v + 1
            # Prefer the left child whenever it can host — this yields the
            # leftmost vacant submachine because leaf spans at any level are
            # ordered left-to-right by heap index.
            v = left if mv[left] >= target_size else right
        # v now roots a subtree of exactly `size` PEs with max_vacant >= size,
        # which for an exact-size node means entirely vacant.
        if mv[v] != target_size:  # pragma: no cover - guarded by can_host
            raise AllocationError("vacancy tree inconsistent")
        self._assigned[v] = True
        self._num_tasks += 1
        self._recompute_up(v)
        return v

    def assign_at(self, node: NodeId) -> None:
        """Assign a task at a specific node (used when replaying placements).

        The node's subtree must be entirely vacant and no ancestor assigned.
        """
        h = self.hierarchy
        h._check(node)
        if self._max_vacant[node] != h.subtree_size(node):
            raise AllocationError(f"node {node} is not entirely vacant")
        for anc in h.ancestors(node):
            if self._assigned[anc]:
                raise AllocationError(f"ancestor {anc} of node {node} is assigned")
        self._assigned[node] = True
        self._num_tasks += 1
        self._recompute_up(node)

    def block(self, node: NodeId) -> None:
        """Withdraw the (entirely vacant) subtree at ``node`` from allocation.

        Used to build *degraded* copies: a failed submachine is blocked in
        every copy so first-fit can never place a task on dead PEs.  A
        blocked node participates in the vacancy tree exactly like an
        assignment but carries no task and cannot be freed.
        """
        h = self.hierarchy
        h._check(node)
        if self._max_vacant[node] != h.subtree_size(node):
            raise AllocationError(f"cannot block node {node}: not entirely vacant")
        for anc in h.ancestors(node):
            if self._assigned[anc]:
                raise AllocationError(
                    f"cannot block node {node}: ancestor {anc} is assigned"
                )
        self._assigned[node] = True
        self._blocked = self._blocked | {node}
        self._recompute_up(node)

    def free(self, node: NodeId) -> None:
        """Release the task assigned exactly at ``node``."""
        self.hierarchy._check(node)
        if node in self._blocked:
            raise AllocationError(f"node {node} is blocked (failed), not a task")
        if not self._assigned[node]:
            raise AllocationError(f"node {node} has no assigned task to free")
        self._assigned[node] = False
        self._num_tasks -= 1
        self._recompute_up(node)

    # -- Diagnostics ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Recompute the vacancy tree from scratch and compare (test helper).

        The live tree is *lazy*: values strictly below an assigned node are
        never consulted and may be stale, so the recomputation compares only
        nodes not blocked by an assigned ancestor.
        """
        h = self.hierarchy
        mv = np.zeros_like(self._max_vacant)
        blocked = np.zeros(2 * h.num_leaves, dtype=bool)
        for v in range(2, 2 * h.num_leaves):
            blocked[v] = blocked[v >> 1] or self._assigned[v >> 1]
        # An assigned node nested under another assigned node is illegal.
        for v in range(2, 2 * h.num_leaves):
            if self._assigned[v] and blocked[v]:
                raise AssertionError(f"nested assignment at node {v}")
        for level in range(h.height, -1, -1):
            for v in h.nodes_at_level(level):
                size_v = h.num_leaves >> level
                if self._assigned[v]:
                    mv[v] = 0
                elif v >= h.num_leaves:
                    mv[v] = 1
                else:
                    l, r = mv[2 * v], mv[2 * v + 1]
                    mv[v] = size_v if (l == size_v // 2 and r == size_v // 2) else max(l, r)
        unblocked = ~blocked
        unblocked[0] = False
        if not np.array_equal(mv[unblocked], self._max_vacant[unblocked]):
            raise AssertionError("BuddyCopy vacancy tree out of sync")
        if int(self._assigned[1:].sum()) != self._num_tasks + len(self._blocked):
            raise AssertionError("BuddyCopy task count out of sync")


class CopySet:
    """Ordered list of machine copies with first-fit search (A_R / A_B rule).

    Copies are ordered by creation time and never removed: the paper's
    search rule ("the first copy of T that contains a vacant submachine")
    naturally reuses emptied early copies, and keeping them preserves the
    creation order the proofs rely on.
    """

    __slots__ = ("hierarchy", "_copies")

    def __init__(self, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        self._copies: list[BuddyCopy] = []

    def __len__(self) -> int:
        return len(self._copies)

    def __getitem__(self, copy_id: CopyId) -> BuddyCopy:
        return self._copies[copy_id]

    @property
    def num_copies(self) -> int:
        return len(self._copies)

    @property
    def num_nonempty_copies(self) -> int:
        """Copies currently holding at least one task — the tight load bound."""
        return sum(1 for c in self._copies if not c.is_empty)

    @classmethod
    def from_packing(
        cls,
        hierarchy: Hierarchy,
        copy_ids: np.ndarray,
        nodes: np.ndarray,
        num_copies: int,
    ) -> "CopySet":
        """Copies holding one task at each ``nodes[k]`` of copy ``copy_ids[k]``.

        The bulk constructor behind the closed-form repack: it sets every
        copy's assignments at once and derives the vacancy trees bottom-up,
        one vectorised step per level across all copies, with the rule of
        :meth:`BuddyCopy._recompute_up`.  Below an assigned node nothing is
        assigned, so those entries come out at their full subtree sizes,
        which is what per-task :meth:`BuddyCopy.allocate` leaves there too.
        The nodes must not nest within a copy (a packing never does).
        """
        h = hierarchy
        n = h.num_leaves
        assigned = np.zeros((num_copies, 2 * n), dtype=bool)
        assigned[copy_ids, nodes] = True
        mv = np.zeros((num_copies, 2 * n), dtype=np.int64)
        mv[:, n:] = ~assigned[:, n:]
        for level in range(h.height - 1, -1, -1):
            lo, hi = 1 << level, 2 << level
            half = n >> (level + 1)
            left = mv[:, 2 * lo : 2 * hi : 2]
            right = mv[:, 2 * lo + 1 : 2 * hi : 2]
            up = np.where((left == half) & (right == half), 2 * half,
                          np.maximum(left, right))
            up[assigned[:, lo:hi]] = 0
            mv[:, lo:hi] = up
        counts = np.bincount(copy_ids, minlength=num_copies).tolist()
        copy_set = cls(hierarchy)
        copy_set._copies = [
            BuddyCopy._from_arrays(h, assigned[c], mv[c], counts[c])
            for c in range(num_copies)
        ]
        return copy_set

    @classmethod
    def from_slots(
        cls,
        hierarchy: Hierarchy,
        num_copies: int,
        slots: Iterable[tuple[CopyId, NodeId]],
    ) -> "CopySet":
        """``num_copies`` copies holding one task at each ``(copy, node)``
        slot — how a restored first-fit allocator gets its copies back.

        The copies answer every later :meth:`first_fit` and :meth:`free`
        as the ones the slots were read from, since the vacancy trees are
        a function of the assignments (:meth:`from_packing`).
        """
        pairs = list(slots)
        copy_ids = np.fromiter((c for c, _ in pairs), dtype=np.int64, count=len(pairs))
        nodes = np.fromiter((v for _, v in pairs), dtype=np.int64, count=len(pairs))
        n = hierarchy.num_leaves
        if len(set(pairs)) != len(pairs) or not (
            ((copy_ids >= 0) & (copy_ids < num_copies) & (nodes >= 1) & (nodes < 2 * n)).all()
        ):
            raise AllocationError(
                f"slots do not fit {num_copies} copies of an {n}-PE machine"
            )
        return cls.from_packing(hierarchy, copy_ids, nodes, num_copies)

    def _new_copy(self) -> BuddyCopy:
        """Construct a fresh copy; subclasses pre-shape it (degraded copies)."""
        return BuddyCopy(self.hierarchy)

    def first_fit(self, size: int) -> tuple[CopyId, NodeId]:
        """Place a task per the paper's rule; returns (copy index, node).

        Scans copies in creation order for the first that can host ``size``,
        creating a new copy if none can, then allocates the leftmost vacant
        ``size``-PE submachine inside it.
        """
        for cid, copy in enumerate(self._copies):
            if copy.can_host(size):
                return CopyId(cid), copy.allocate(size)
        copy = self._new_copy()
        self._copies.append(copy)
        if not copy.can_host(size):
            raise AllocationError(
                f"no {size}-PE submachine survives in a fresh copy "
                "(machine too degraded for this task size)"
            )
        return CopyId(len(self._copies) - 1), copy.allocate(size)

    def free(self, copy_id: CopyId, node: NodeId) -> None:
        """Release a task previously placed by :meth:`first_fit`."""
        if not 0 <= copy_id < len(self._copies):
            raise AllocationError(f"unknown copy {copy_id}")
        self._copies[copy_id].free(node)

    def reset(self) -> None:
        """Discard all copies (start of a from-scratch repack)."""
        self._copies.clear()

    def total_tasks(self) -> int:
        return sum(c.num_tasks for c in self._copies)

    def check_invariants(self) -> None:
        for c in self._copies:
            c.check_invariants()
