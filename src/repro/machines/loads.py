"""Per-PE load tracking for a partitionable machine.

The paper's central quantity is the *load* of a PE: the number of active
tasks whose submachine contains it.  Because every placement is an aligned
subtree, a task placed at hierarchy node ``v`` adds one to every leaf under
``v`` — so the leaf load of PE ``u`` equals the sum, over the root-to-leaf
path of ``u``, of the number of tasks placed exactly at each path node.

:class:`LoadTracker` exploits this: it stores, as two heap-indexed lists of
plain ints,

* ``count[v]`` — tasks currently placed exactly at node ``v``;
* ``M[v]``     — the max, over leaves ``u`` under ``v``, of the path sum
  from ``v`` down to ``u`` (inclusive of ``count[v]``).

Then the load of submachine ``v`` (max PE load within it) is
``M[v] + sum(count[a] for proper ancestors a of v)``, and the machine-wide
max load is simply ``M[root]``.

Arrivals and departures update ``count`` and re-aggregate ``M`` along one
root-to-leaf path: **O(log N)** per event.

Three query paths exist for the greedy algorithm's per-arrival question
("which 2^x-PE submachine has minimum load?"):

* :meth:`level_loads` — every load of one level, reduced off the per-PE
  leaf array by :func:`level_max` (a submachine's load is the max PE
  load within it): O(N) NumPy work, for callers that need *all* loads of
  a level (first-fit, two-choice, baselines, brute-force checks).
* :meth:`leftmost_min_submachine_scan` — the scan plus ``argmin``: the
  seed implementation, kept as the reference oracle.
* :meth:`leftmost_min_submachine` — **O(log N)** tree descent over a
  min-of-max aggregation (see below), the production path.

The descent structure answers "leftmost minimum-load submachine of size
2^x" exactly.  For a node ``v`` at level ``l`` and a target level
``L >= l`` define::

    D_L(v) = min over level-L descendants w of v of
             ( M[w] + sum(count[u] for u on the path v..parent(w)) )

so ``D_L(root)`` is the minimum load over all level-``L`` submachines
(the root has no proper ancestors), and ``D`` satisfies the local
recurrences ``D_l(v) = M[v]`` and
``D_L(v) = count[v] + min(D_L(left), D_L(right))`` for ``L > l``.
A node at level ``l`` therefore stores a vector of ``n - l + 1`` values —
``sum_l 2^l (n - l + 1) < 4N`` integers in total — and one count change
re-aggregates the vectors of the ``O(log N)`` path nodes, each in O(path
remainder), i.e. O(log^2 N) integer work per event.  The query itself
descends from the root comparing the two children's ``D_L`` entries
(going left on ties gives the paper's leftmost tie-break): **O(log N)**.

The two lists are the only stored source.  The min-of-max vectors and the
per-PE leaf array are derived from ``count`` and share one lifecycle:
each is built on its first query; from then on it is kept current by
every ``place``/``remove`` (the vectors by the path walk, the leaf array
by one in-place slice add over the node's leaf span); and a bulk
recompute (:meth:`rebuild_from`, :meth:`resized`) rebuilds whichever is
built.  Trackers that never ask pay nothing for either.  That includes
the tracker of every kernel whose algorithm decides without the leaf
array (greedy's descent builds only the vectors): the kernel's per-PE
peak snapshot reads :meth:`fresh_leaf_loads`, which builds nothing, and
asks only when the max load strictly rises.

Which builds use NumPy (imported when one first runs): the bulk
recompute of :meth:`rebuild_from` (``max_below``, and the min-of-max
vectors if built, one vectorised reduction per level), the first
min-of-max build of a non-empty tracker (a restored or re-seeded one),
and the leaf array with :meth:`level_loads` over it.  Plain ints serve
the rest: the per-event walk, the descent, the first min-of-max build of
an empty tracker (every entry 0) and the per-PE loads themselves
(:meth:`_derive_leaves`, list arithmetic about as fast as the array form
at N = 4096).  So a greedy tracker that starts empty never loads NumPy.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import TYPE_CHECKING, Iterable

from repro.errors import PlacementError
from repro.machines.hierarchy import Hierarchy
from repro.types import NodeId, is_power_of_two

if TYPE_CHECKING:
    import numpy as np

__all__ = ["LoadTracker", "level_max"]


def level_max(leaf: np.ndarray, size: int) -> np.ndarray:
    """Loads of every ``size``-PE submachine, left to right, from the
    per-PE loads ``leaf``: a fresh array, never a view of ``leaf``.

    For wide submachines ``reshape(-1, size).max(axis=1)`` is one tight
    reduction; for narrow ones it degenerates into thousands of tiny
    per-row reductions (30µs+ at size 4, N 4096), so below 64 PEs a
    pairwise-maximum halving tree — log2(size) whole-array ufunc calls,
    O(N) total element work — is an order of magnitude faster.
    """
    import numpy as np

    if size == 1:
        return leaf.copy()
    if size >= 64:
        return leaf.reshape(-1, size).max(axis=1)
    lv = leaf
    while size > 1:
        lv = np.maximum(lv[0::2], lv[1::2])
        size >>= 1
    return lv


class LoadTracker:
    """Mutable load state of one machine under aligned-subtree placements."""

    __slots__ = (
        "hierarchy",
        "_count",
        "_max_below",
        "_active",
        "_minagg",
        "_minagg_base",
        "_leaf",
        "_leaf_view",
    )

    def __init__(self, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        size = 2 * hierarchy.num_leaves
        # Heap-indexed, slot 0 unused.  Plain-int lists: the per-event path
        # walk is pure Python, and list indexing avoids the ~100ns-per-
        # element cost of reading NumPy scalars in that loop.
        self._count = [0] * size
        self._max_below = [0] * size
        self._active = 0
        # Min-of-max descent structure (built on first query; see module
        # docstring).  _minagg is one flat list; node v at level l with
        # index i within its level owns the slot range
        # [_minagg_base[l] + i*(n-l+1), ... + (n-l+1)), entry j holding
        # D_{l+j}(v).
        self._minagg: list[int] | None = None
        n = hierarchy.height
        base = [0] * (n + 2)
        for level in range(n + 1):
            base[level + 1] = base[level] + (1 << level) * (n - level + 1)
        self._minagg_base = base
        # Per-PE loads (built on first query) and a read-only view of them
        # for copy-free readers.
        self._leaf: np.ndarray | None = None
        self._leaf_view: np.ndarray | None = None

    # -- Mutation ----------------------------------------------------------

    def _validate_placement(self, node: NodeId, size: int) -> None:
        # The common case in one test: ``node`` is in range and roots
        # exactly ``size`` PEs (so ``size`` is a power of two).  Anything
        # else takes the full checks below, which name what is wrong.
        n_leaves = self.hierarchy.num_leaves
        if (
            type(size) is int
            and 0 < node < 2 * n_leaves
            and n_leaves >> (node.bit_length() - 1) == size
        ):
            return
        h = self.hierarchy
        if not h.is_valid_node(node):
            raise PlacementError(f"node {node} outside the machine")
        if not is_power_of_two(size):
            raise PlacementError(f"task size {size} is not a power of two")
        if h.subtree_size(node) != size:
            raise PlacementError(
                f"node {node} roots a {h.subtree_size(node)}-PE submachine, "
                f"cannot host a task of size {size}"
            )

    def _update(self, node: NodeId, delta: int) -> None:
        """Add ``delta`` tasks at ``node`` and recompute ``max_below`` (and
        the min-of-max vectors, if built) along the path from ``node`` to
        the root — O(log N) path nodes.  A built leaf array takes one
        slice add over the node's leaf span.

        The walk stops at the first proper ancestor whose ``max_below``
        entry and vector both come out unchanged: an ancestor's values
        depend only on its own count, which did not change, and on its
        children's values, so every node above it is unchanged too.
        """
        count = self._count
        mb = self._max_below
        minagg = self._minagg
        base = self._minagg_base
        n = len(base) - 2  # the height, without a call
        n_leaves = self.hierarchy.num_leaves
        count[node] += delta
        v = node
        level = v.bit_length() - 1
        leaf = self._leaf
        if leaf is not None:
            width = n_leaves >> level
            lo = (v - (1 << level)) * width
            leaf[lo : lo + width] += delta
        while v >= 1:
            c = count[v]
            if v >= n_leaves:  # leaf
                new = c
            else:
                a = mb[2 * v]
                b = mb[2 * v + 1]
                new = c + (a if a >= b else b)
            changed = v == node or mb[v] != new
            mb[v] = new
            if minagg is not None:
                i = v - (1 << level)
                width = n - level + 1  # own vector length
                a0 = base[level] + i * width
                minagg[a0] = new
                if width > 1:
                    c0 = base[level + 1] + 2 * i * (width - 1)
                    r0 = c0 + width - 1
                    vec = [
                        c + (x if x <= y else y)
                        for x, y in zip(
                            minagg[c0:r0], minagg[r0 : r0 + width - 1]
                        )
                    ]
                    if changed or vec != minagg[a0 + 1 : a0 + width]:
                        minagg[a0 + 1 : a0 + width] = vec
                        changed = True
            if not changed:
                break
            v >>= 1
            level -= 1

    def place(self, node: NodeId, size: int) -> None:
        """Record one task of ``size`` PEs placed at hierarchy node ``node``."""
        self._validate_placement(node, size)
        self._active += 1
        self._update(node, 1)

    def remove(self, node: NodeId, size: int) -> None:
        """Remove one previously placed task from ``node``."""
        self._validate_placement(node, size)
        if self._count[node] <= 0:
            raise PlacementError(f"no task placed at node {node} to remove")
        self._active -= 1
        self._update(node, -1)

    def clear(self) -> None:
        """Drop all placements (used by reallocation: repack from scratch).

        All buffers stay allocated — repack-heavy runs (A_C repacks on
        every arrival) call this constantly, and reallocating the two
        2N-slot lists each time dominated the repack path.
        """
        self._active = 0
        size = 2 * self.hierarchy.num_leaves
        self._count[:] = repeat(0, size)
        self._max_below[:] = repeat(0, size)
        self._minagg = None  # rebuilt on the next min-load query
        if self._leaf is not None:
            self._leaf[:] = 0

    def rebuild_from(self, placements: Iterable[tuple[NodeId, int]]) -> None:
        """Replace the entire load state with ``placements`` in one pass.

        ``placements`` is an iterable of ``(node, size)`` pairs — one per
        active task, duplicates allowed (several tasks may share a node).
        Equivalent to :meth:`clear` followed by one :meth:`place` per pair,
        but the ``count``/``max_below`` aggregation is recomputed bottom-up
        with vectorized per-level NumPy reductions: **O(N + T)** total
        instead of T single O(log N) (or O(log^2 N) with the min-agg
        structure built) path walks.  This is what makes the repack
        adoption in ``A_C``/``A_M`` reallocations stop being the dominant
        cost of repack-heavy runs.
        """
        import numpy as np

        pairs = list(placements)
        n = self.hierarchy.num_leaves
        try:
            nodes = np.fromiter((v for v, _ in pairs), dtype=np.int64, count=len(pairs))
            sizes = np.fromiter((s for _, s in pairs), dtype=np.int64, count=len(pairs))
        except OverflowError:  # beyond int64: invalid, the loop below says how
            nodes = sizes = np.zeros(len(pairs), dtype=np.int64)
        # All pairs checked at once; on a miss the per-pair check raises
        # the first offender's exact error.
        if not self.hierarchy.roots_of_size(nodes, sizes).all():
            for node, size in pairs:
                self._validate_placement(node, size)
        count = np.bincount(nodes, minlength=2 * n)
        self._count = count.tolist()
        self._active = len(pairs)
        self._recompute_aggregates(count)

    def resized(
        self, hierarchy: Hierarchy, placements: Iterable[tuple[NodeId, int]]
    ) -> "LoadTracker":
        """A fresh tracker on ``hierarchy`` seeded from ``placements``.

        The buffers of a tracker are sized to its hierarchy, so an
        online machine resize cannot mutate in place; instead the kernel
        swaps in this replacement — new-size buffers, loads re-derived
        from the (already remapped) placements via the O(N + T) vectorized
        :meth:`rebuild_from`.
        """
        tracker = LoadTracker(hierarchy)
        tracker.rebuild_from(placements)
        return tracker

    def _count_array(self) -> np.ndarray:
        """``count`` as a heap-indexed int64 array (one O(N) conversion)."""
        import numpy as np

        return np.fromiter(self._count, dtype=np.int64, count=len(self._count))

    def _recompute_aggregates(self, count: np.ndarray) -> None:
        """Rebuild ``max_below`` bottom-up from ``count`` (the array form of
        the stored list, which it must equal) with one vectorized reduction
        per level: O(N) total.  The derived structures already built are
        rebuilt too."""
        import numpy as np

        h = self.hierarchy
        mb = count.copy()
        for level in range(h.height - 1, -1, -1):
            sl = h.level_slice(level)
            below = mb[h.level_slice(level + 1)]
            np.maximum(below[0::2], below[1::2], out=mb[sl])
            mb[sl] += count[sl]
        self._max_below = mb.tolist()
        if self._minagg is not None:
            self._build_minagg(count)
        if self._leaf is not None:
            self._leaf[:] = self._derive_leaves()

    # -- Queries -------------------------------------------------------------

    @property
    def num_active(self) -> int:
        """Number of placements currently recorded."""
        return self._active

    @property
    def max_load(self) -> int:
        """Machine-wide maximum PE load, ``max_u lambda(u)`` — O(1)."""
        return self._max_below[1]

    def node_count(self, node: NodeId) -> int:
        """Tasks placed exactly at ``node``."""
        self.hierarchy._check(node)
        return self._count[node]

    def _path_sum(self, v: int) -> int:
        """Sum of ``count`` over ``v`` and its ancestors (0 for ``v == 0``)."""
        count = self._count
        total = 0
        while v:
            total += count[v]
            v >>= 1
        return total

    def ancestor_load(self, node: NodeId) -> int:
        """Sum of ``count`` over proper ancestors of ``node`` — O(log N)."""
        self.hierarchy._check(node)
        return self._path_sum(node >> 1)

    def submachine_load(self, node: NodeId) -> int:
        """Max PE load within the submachine rooted at ``node`` — O(log N)."""
        self.hierarchy._check(node)
        return self._max_below[node] + self._path_sum(node >> 1)

    def leaf_load(self, pe: int) -> int:
        """Load of one PE — O(log N)."""
        return self._path_sum(self.hierarchy.leaf_node(pe))

    def _derive_leaves(self) -> list[int]:
        """The per-PE loads derived from ``count``: O(N) in all.  Level by
        level, each node's path sum is its parent's plus its own count,
        so the parent sums are doubled (one per child) and added to the
        level's counts."""
        count = self._count
        sums = count[1:2]
        for level in range(1, self.hierarchy.height + 1):
            lo = 1 << level
            parents = [0] * lo
            parents[0::2] = sums
            parents[1::2] = sums
            sums = list(map(add, parents, count[lo : 2 * lo]))
        return sums

    def _leaves(self) -> np.ndarray:
        """The per-PE leaf array, built on first use: O(N) once."""
        if self._leaf is None:
            import numpy as np

            self._leaf = np.array(self._derive_leaves(), dtype=np.int64)
            self._leaf_view = self._leaf.view()
            self._leaf_view.flags.writeable = False
        return self._leaf

    def leaf_loads(self, *, copy: bool = True) -> np.ndarray:
        """Loads of all PEs: an O(N) copy of the leaf array (built on the
        first query, then kept current by every mutation).

        With ``copy=False`` the returned array is a **read-only view** of
        the leaf array: O(1), for internal callers (engine metrics, audits,
        consistency checks) that only read it before the tracker mutates
        again.  The view follows the tracker, so its contents change with
        the next ``place``/``remove``/``clear``/bulk update; callers that
        hold onto the loads must copy (the default).
        """
        leaf = self._leaves()
        return leaf.copy() if copy else self._leaf_view

    def fresh_leaf_loads(self) -> list[int]:
        """Loads of all PEs as a new list of ints the tracker does not
        keep: the leaf array's values if something built it, else one
        O(N) derivation from ``count`` that leaves the leaf array unbuilt,
        so a one-off reader (the kernel's peak snapshot) puts no slice
        add on later events."""
        if self._leaf is not None:
            return self._leaf.tolist()
        return self._derive_leaves()

    def level_loads(self, size: int) -> np.ndarray:
        """Loads of every ``size``-PE submachine, left to right — vectorized.

        ``result[j]`` is the max PE load within the ``j``-th aligned
        submachine of ``size`` PEs: O(N) NumPy work over the leaf array.
        Use :meth:`leftmost_min_submachine` when only the minimum is needed.
        """
        self.hierarchy.level_for_size(size)  # rejects sizes with no level
        return level_max(self._leaves(), size)

    def leftmost_min_submachine_scan(self, size: int) -> tuple[NodeId, int]:
        """Reference implementation: full level scan plus ``argmin``.

        ``argmin`` returns the first minimum, which is precisely the
        paper's leftmost tie-break.  Kept as the oracle the O(log N)
        descent is property-tested against, and as the baseline kernel in
        the perf benches.
        """
        loads = self.level_loads(size)
        j = int(loads.argmin())
        return self.hierarchy.node_for(size, j), int(loads[j])

    def _build_minagg(self, count: np.ndarray) -> None:
        """Materialize the min-of-max vectors bottom-up from ``count`` (the
        array form of the stored list), vectorized per level: O(N) total
        work."""
        import numpy as np

        h = self.hierarchy
        n = h.height
        # rows[l] is the (2^l, n-l+1) matrix of D vectors for level l;
        # column 0 is M, so M needs no separate input.
        rows: list[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
        rows[n] = count[h.level_slice(n)].reshape(-1, 1)
        for level in range(n - 1, -1, -1):
            below = rows[level + 1]
            mat = np.empty((1 << level, n - level + 1), dtype=np.int64)
            np.maximum(below[0::2, 0], below[1::2, 0], out=mat[:, 0])
            np.minimum(below[0::2, :], below[1::2, :], out=mat[:, 1:])
            mat += count[h.level_slice(level)][:, None]
            rows[level] = mat
        flat: list[int] = []
        for level in range(n + 1):
            flat.extend(rows[level].ravel().tolist())
        self._minagg = flat

    def leftmost_min_submachine(self, size: int) -> tuple[NodeId, int]:
        """Leftmost ``size``-PE submachine of minimum load, and that load.

        O(log N) descent over the min-of-max structure (built on the
        first query); ties resolve to the left child at every step, which
        is the paper's leftmost tie-break (verified against
        :meth:`leftmost_min_submachine_scan` by property tests).
        """
        target = self.hierarchy.level_for_size(size)
        if self._minagg is None:
            if self._active:
                self._build_minagg(self._count_array())
            else:  # every count is 0, so is every D_L(v)
                self._minagg = [0] * self._minagg_base[-1]
        minagg = self._minagg
        base = self._minagg_base
        n = len(base) - 2  # the height, without a call
        best = minagg[target]  # root vector starts at offset 0
        v = 1
        level = 0
        while level < target:
            j = target - level - 1  # entry index within the child vectors
            width = n - level  # child vector length
            c0 = base[level + 1] + 2 * (v - (1 << level)) * width
            if minagg[c0 + j] <= minagg[c0 + width + j]:
                v = 2 * v
            else:
                v = 2 * v + 1
            level += 1
        return v, best

    def check_invariants(self) -> None:
        """Verify internal aggregation consistency (test helper, O(N log N))."""
        h = self.hierarchy
        count = self._count
        m = list(count)
        for v in range(h.num_leaves - 1, 0, -1):
            m[v] = count[v] + max(m[2 * v], m[2 * v + 1])
        if m[1:] != self._max_below[1:]:
            raise AssertionError("LoadTracker max aggregation out of sync")
        if sum(count[1:]) != self._active:
            raise AssertionError("LoadTracker active-count out of sync")
        true_leaves = self._derive_leaves()
        if self._leaf is not None and self._leaf.tolist() != true_leaves:
            raise AssertionError("LoadTracker leaf array out of sync")
        # Min-of-max structure (only when built): every D_L(v) must equal
        # the brute-force minimum over level-L descendant loads.
        if self._minagg is not None:
            import numpy as np

            leaves = np.array(true_leaves, dtype=np.int64)
            base = self._minagg_base
            n = h.height
            for level in range(n + 1):
                width = n - level + 1
                for i, v in enumerate(h.nodes_at_level(level)):
                    vec = self._minagg[
                        base[level] + i * width : base[level] + (i + 1) * width
                    ]
                    anc_v = sum(count[a] for a in h.ancestors(v))
                    for j, target in enumerate(range(level, n + 1)):
                        lo, hi = h.leaf_span(v)
                        size = h.num_leaves >> target
                        block = leaves[lo:hi].reshape(-1, size)
                        expect = int(block.max(axis=1).min()) - anc_v
                        if vec[j] != expect:
                            raise AssertionError(
                                "LoadTracker min-of-max aggregation out of "
                                f"sync at node {v}, target level {target}"
                            )
