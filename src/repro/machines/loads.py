"""Per-PE load tracking for a partitionable machine.

The paper's central quantity is the *load* of a PE: the number of active
tasks whose submachine contains it.  Because every placement is an aligned
subtree, a task placed at hierarchy node ``v`` adds one to every leaf under
``v`` — so the leaf load of PE ``u`` equals the sum, over the root-to-leaf
path of ``u``, of the number of tasks placed exactly at each path node.

:class:`LoadTracker` exploits this: it stores

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

* :meth:`level_loads` — the bulk scan, O(number of submachines) NumPy
  work via :meth:`Hierarchy.ancestor_sums`; still useful when *all* loads
  of a level are needed (baselines, plots, brute-force checks).
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

The structure is built lazily on the first min-load query, so trackers
that never ask it (e.g. the simulator's authoritative tracker, which only
validates and meters) pay nothing.  Likewise :meth:`leaf_loads` is served
from an incrementally maintained per-PE cache fed by a bounded journal of
``(lo, hi, delta)`` span updates, falling back to one vectorized
recomputation when the journal overflows between queries.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

import numpy as np

from repro.errors import PlacementError
from repro.machines.hierarchy import Hierarchy
from repro.types import NodeId, ilog2, is_power_of_two

__all__ = ["LoadTracker"]

#: Test override for the leaf-journal capacity.  ``None`` (the default)
#: makes staleness a function of accumulated *replay width* (see
#: :meth:`LoadTracker._journal_span`); setting an ``int`` here pins a
#: plain entry cap instead, for deterministic journal-overflow tests.
_LEAF_JOURNAL_CAP: int | None = None


def _leaf_journal_cap(num_leaves: int) -> int:
    """Nominal journal entry budget for a machine of ``num_leaves`` PEs.

    Production staleness is decided by accumulated replay *width* (the
    total number of leaf-element additions a replay would perform), not by
    this entry count — a flat entry cap misjudges replay cost by up to a
    factor of N, since a span may touch one leaf or all of them, and a
    single large batch of narrow spans (the columnar engine journals one
    span per touched node) used to blow through ``N // 8`` entries and
    silently force a full O(N) rebuild per batch.  The entry cap remains
    meaningful in two places: the ``_LEAF_JOURNAL_CAP`` override pins it
    as the sole staleness criterion for deterministic overflow tests, and
    its scaled value is kept as the reported journal capacity.
    """
    if _LEAF_JOURNAL_CAP is not None:
        return _LEAF_JOURNAL_CAP
    return max(16, min(8192, num_leaves // 8))


class LoadTracker:
    """Mutable load state of one machine under aligned-subtree placements."""

    __slots__ = (
        "hierarchy",
        "_count",
        "_max_below",
        "_active",
        "_count_list",
        "_mb_list",
        "_minagg",
        "_minagg_base",
        "_leaf_cache",
        "_leaf_view",
        "_leaf_journal",
        "_leaf_journal_cap",
        "_leaf_journal_width",
        "_leaf_journal_budget",
        "_leaf_stale",
        "_path_shifts",
    )

    def __init__(self, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        size = 2 * hierarchy.num_leaves
        # Heap-indexed; slot 0 unused. int64 because adversarial sequences
        # can push counts well past int32 in stress tests.
        self._count = np.zeros(size, dtype=np.int64)
        self._max_below = np.zeros(size, dtype=np.int64)
        self._active = 0
        # Plain-int mirrors of count / max_below: the per-event path walk is
        # pure Python, and list indexing avoids the ~100ns-per-element cost
        # of reading NumPy scalars in that loop.
        self._count_list = [0] * size
        self._mb_list = [0] * size
        # Min-of-max descent structure (lazy; see module docstring).
        # _minagg is one flat list; node v at level l with index i within
        # its level owns the slot range
        # [_minagg_base[l] + i*(n-l+1), ... + (n-l+1)), entry j holding
        # D_{l+j}(v).
        self._minagg: list[int] | None = None
        n = hierarchy.height
        base = [0] * (n + 2)
        for level in range(n + 1):
            base[level + 1] = base[level] + (1 << level) * (n - level + 1)
        self._minagg_base = base
        # Incremental per-PE load cache fed by a bounded span journal, plus
        # a reusable read-only view for copy-free internal readers.
        self._leaf_cache = np.zeros(hierarchy.num_leaves, dtype=np.int64)
        self._leaf_view = self._leaf_cache.view()
        self._leaf_view.flags.writeable = False
        self._leaf_journal: list[tuple[int, int, int]] = []
        self._leaf_journal_cap = _leaf_journal_cap(hierarchy.num_leaves)
        # Accumulated replay width of the pending journal, against a budget
        # of ~one rebuild's worth of element additions.  ``None`` budget
        # means the _LEAF_JOURNAL_CAP override is active and staleness is
        # entry-counted instead (deterministic overflow tests).
        self._leaf_journal_width = 0
        self._leaf_journal_budget: int | None = (
            None if _LEAF_JOURNAL_CAP is not None else 2 * hierarchy.num_leaves
        )
        self._leaf_stale = False
        # Shift vector for the vectorized root-path gather (satellite:
        # ancestor_load / leaf_load without a Python generator).
        self._path_shifts = np.arange(hierarchy.height + 1, dtype=np.int64)

    # -- Mutation ----------------------------------------------------------

    def _validate_placement(self, node: NodeId, size: int) -> None:
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

    def _reaggregate_up(self, node: NodeId) -> None:
        """Recompute ``max_below`` (and the min-of-max vectors, if built)
        along the path from ``node`` to the root — O(log N) path nodes."""
        count = self._count_list
        mb = self._mb_list
        m_np = self._max_below
        minagg = self._minagg
        base = self._minagg_base
        n = self.hierarchy.height
        n_leaves = self.hierarchy.num_leaves
        v = node
        level = v.bit_length() - 1
        while v >= 1:
            c = count[v]
            if v >= n_leaves:  # leaf
                new = c
            else:
                a = mb[2 * v]
                b = mb[2 * v + 1]
                new = c + (a if a >= b else b)
            mb[v] = new
            m_np[v] = new
            if minagg is not None:
                i = v - (1 << level)
                width = n - level + 1  # own vector length
                a0 = base[level] + i * width
                minagg[a0] = new
                if width > 1:
                    c0 = base[level + 1] + 2 * i * (width - 1)
                    r0 = c0 + width - 1
                    minagg[a0 + 1 : a0 + width] = [
                        c + (x if x <= y else y)
                        for x, y in zip(
                            minagg[c0:r0], minagg[r0 : r0 + width - 1]
                        )
                    ]
            v >>= 1
            level -= 1

    def _journal_span(self, node: NodeId, delta: int) -> None:
        """Record a span update for the leaf-load cache (bounded journal).

        The journal goes stale — dropping to one vectorized O(N) rebuild
        on the next :meth:`leaf_loads` — when the accumulated replay
        *width* of the pending spans exceeds ~2N leaf additions, i.e. when
        replay stops being cheaper than the rebuild.  Width-based
        accounting (rather than a flat entry count) lets a large batch of
        narrow spans stay incremental: 2N width also bounds the journal to
        at most 2N entries, since every span is at least one leaf wide.
        With the ``_LEAF_JOURNAL_CAP`` override a plain entry cap applies
        instead (deterministic overflow tests).
        """
        if self._leaf_stale:
            return
        journal = self._leaf_journal
        budget = self._leaf_journal_budget
        if budget is None:
            if len(journal) >= self._leaf_journal_cap:
                self._leaf_stale = True
                journal.clear()
                return
            lo, hi = self.hierarchy.leaf_span(node)
        else:
            lo, hi = self.hierarchy.leaf_span(node)
            width = self._leaf_journal_width + (hi - lo)
            if width > budget:
                self._leaf_stale = True
                journal.clear()
                self._leaf_journal_width = 0
                return
            self._leaf_journal_width = width
        journal.append((lo, hi, delta))

    def place(self, node: NodeId, size: int) -> None:
        """Record one task of ``size`` PEs placed at hierarchy node ``node``."""
        self._validate_placement(node, size)
        self._count[node] += 1
        self._count_list[node] += 1
        self._active += 1
        self._reaggregate_up(node)
        self._journal_span(node, 1)

    def remove(self, node: NodeId, size: int) -> None:
        """Remove one previously placed task from ``node``."""
        self._validate_placement(node, size)
        if self._count_list[node] <= 0:
            raise PlacementError(f"no task placed at node {node} to remove")
        self._count[node] -= 1
        self._count_list[node] -= 1
        self._active -= 1
        self._reaggregate_up(node)
        self._journal_span(node, -1)

    def clear(self) -> None:
        """Drop all placements (used by reallocation: repack from scratch).

        All buffers stay allocated — repack-heavy runs (A_C repacks on
        every arrival) call this constantly, and reallocating the two
        2N-slot mirror lists each time dominated the repack path.
        """
        self._count[:] = 0
        self._max_below[:] = 0
        self._active = 0
        size = 2 * self.hierarchy.num_leaves
        self._count_list[:] = repeat(0, size)
        self._mb_list[:] = repeat(0, size)
        self._minagg = None  # rebuilt lazily on the next min-load query
        self._leaf_cache[:] = 0
        self._leaf_journal.clear()
        self._leaf_journal_width = 0
        self._leaf_stale = False

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
        self._count[:] = np.bincount(nodes, minlength=2 * n)
        self._active = len(pairs)
        self._recompute_aggregates()

    def resized(
        self, hierarchy: Hierarchy, placements: Iterable[tuple[NodeId, int]]
    ) -> "LoadTracker":
        """A fresh tracker on ``hierarchy`` seeded from ``placements``.

        The leaf arrays of a tracker are sized to its hierarchy, so an
        online machine resize cannot mutate in place; instead the kernel
        swaps in this replacement — new-size buffers, loads re-derived
        from the (already remapped) placements via the O(N + T) vectorized
        :meth:`rebuild_from`.
        """
        tracker = LoadTracker(hierarchy)
        tracker.rebuild_from(placements)
        return tracker

    def _recompute_aggregates(self) -> None:
        """Rebuild ``max_below`` (and its mirror) bottom-up from ``count``
        with one vectorized reduction per level: O(N) total.  The lazy
        min-of-max structure and the per-PE cache are invalidated and
        rebuilt on their next query."""
        h = self.hierarchy
        count = self._count
        mb = self._max_below
        n = h.height
        leaves = h.level_slice(n)
        mb[leaves] = count[leaves]
        for level in range(n - 1, -1, -1):
            sl = h.level_slice(level)
            below = mb[h.level_slice(level + 1)]
            np.maximum(below[0::2], below[1::2], out=mb[sl])
            mb[sl] += count[sl]
        self._count_list[:] = count.tolist()
        self._mb_list[:] = mb.tolist()
        self._minagg = None  # rebuilt lazily on the next min-load query
        # The per-PE cache is recomputed vectorized on the next query.
        self._leaf_journal.clear()
        self._leaf_journal_width = 0
        self._leaf_stale = True

    def apply_spans(self, updates: Iterable[tuple[NodeId, int, int]]) -> None:
        """Apply many placement-count deltas in one bulk mutation.

        ``updates`` is an iterable of ``(node, size, delta)`` triples:
        ``delta > 0`` records that many additional tasks placed exactly at
        ``node``, ``delta < 0`` removes that many.  The end state is
        identical to ``|delta|`` :meth:`place`/:meth:`remove` calls per
        triple, but the aggregation work is amortised: duplicate nodes
        coalesce, each distinct node costs one O(log N) path walk, and
        past the same crossover the kernel's repack commit uses (enough
        distinct nodes that the walks would exceed one rebuild) the whole
        tree is recomputed bottom-up vectorized instead.  This is the
        entry point the columnar batch engine uses to sync a whole batch
        of load deltas onto the kernel's tracker in one call.

        Validation matches the per-call methods: every ``(node, size)``
        pair is checked and a net-negative count at any node raises
        :class:`~repro.errors.PlacementError` before any state changes.
        """
        h = self.hierarchy
        num_nodes = 2 * h.num_leaves
        num_leaves = h.num_leaves
        acc: dict[int, int] = {}
        for node, size, delta in updates:
            # Inline the hot-path acceptance test (node in range and
            # rooting exactly a size-PE subtree — which also forces size
            # to a power of two); delegate to _validate_placement only to
            # produce its exact diagnostic on failure.
            if not 0 < node < num_nodes or num_leaves >> (node.bit_length() - 1) != size:
                self._validate_placement(node, size)
            if delta:
                acc[node] = acc.get(node, 0) + delta
        acc = {v: d for v, d in acc.items() if d}
        if not acc:
            return
        count = self._count_list
        for v, d in acc.items():
            if count[v] + d < 0:
                raise PlacementError(f"no task placed at node {v} to remove")
        total = 0
        count_np = self._count
        for v, d in acc.items():
            count_np[v] += d
            count[v] += d
            total += d
        self._active += total
        # Crossover measured, not counted: a Python path walk costs ~5µs
        # regardless of height at realistic N, while the vectorized
        # bottom-up recompute is ~200µs at N = 4096 — so walks win only
        # up to about one node per hundred leaves.
        if len(acc) * 100 < h.num_leaves:
            # Path walks recompute each node from its children's *current*
            # aggregates, so with all counts applied up front the walks
            # commute: the last walk through any shared path segment sees
            # every sibling branch already settled.
            for v, d in acc.items():
                self._reaggregate_up(v)
                self._journal_span(v, d)
        else:
            self._recompute_aggregates()

    # -- Queries -------------------------------------------------------------

    @property
    def num_active(self) -> int:
        """Number of placements currently recorded."""
        return self._active

    @property
    def max_load(self) -> int:
        """Machine-wide maximum PE load, ``max_u lambda(u)`` — O(1)."""
        return self._mb_list[1]

    def node_count(self, node: NodeId) -> int:
        """Tasks placed exactly at ``node``."""
        self.hierarchy._check(node)
        return self._count_list[node]

    def _path_gather(self, node: NodeId) -> np.ndarray:
        """``count`` over ``node`` and its ancestors, via one NumPy gather."""
        shifts = self._path_shifts[: node.bit_length()]
        return self._count[node >> shifts]

    def ancestor_load(self, node: NodeId) -> int:
        """Sum of ``count`` over proper ancestors of ``node`` — O(log N),
        vectorized as a shifted path-index gather."""
        self.hierarchy._check(node)
        if node == 1:
            return 0
        return int(self._path_gather(node)[1:].sum())

    def submachine_load(self, node: NodeId) -> int:
        """Max PE load within the submachine rooted at ``node`` — O(log N)."""
        self.hierarchy._check(node)
        return self._mb_list[node] + self.ancestor_load(node)

    def leaf_load(self, pe: int) -> int:
        """Load of one PE — O(log N), vectorized path gather."""
        leaf = self.hierarchy.leaf_node(pe)
        return int(self._path_gather(leaf).sum())

    def leaf_loads(self, *, copy: bool = True) -> np.ndarray:
        """Loads of all PEs — incrementally cached; O(journal) typical,
        one O(N) vectorized rebuild after journal overflow.

        With ``copy=False`` the returned array is a **read-only view** of
        the internal cache: O(1) after the journal replay, for internal
        callers (engine metrics, audits, consistency checks) that only
        read it before the tracker mutates again.  The view's contents are
        only guaranteed until the next ``place``/``remove``/``clear``;
        callers that hold onto the loads must copy (the default).
        """
        cache = self._leaf_cache
        if self._leaf_stale:
            h = self.hierarchy
            anc = h.ancestor_sums(self._count, h.height)
            np.add(anc, self._count[h.level_slice(h.height)], out=cache)
            self._leaf_stale = False
        elif self._leaf_journal:
            for lo, hi, delta in self._leaf_journal:
                cache[lo:hi] += delta
            self._leaf_journal.clear()
            self._leaf_journal_width = 0
        return cache.copy() if copy else self._leaf_view

    def level_loads(self, size: int) -> np.ndarray:
        """Loads of every ``size``-PE submachine, left to right — vectorized.

        ``result[j]`` is the max PE load within the ``j``-th aligned
        submachine of ``size`` PEs: O(number of submachines) NumPy work.
        Use :meth:`leftmost_min_submachine` when only the minimum is needed.
        """
        h = self.hierarchy
        level = h.level_for_size(size)
        anc = h.ancestor_sums(self._count, level)
        return anc + self._max_below[h.level_slice(level)]

    def leftmost_min_submachine_scan(self, size: int) -> tuple[NodeId, int]:
        """Reference implementation: full level scan plus ``argmin``.

        ``np.argmin`` returns the first minimum, which is precisely the
        paper's leftmost tie-break.  O(number of submachines); kept as the
        oracle the O(log N) descent is property-tested against, and as the
        baseline kernel in the perf benches.
        """
        loads = self.level_loads(size)
        j = int(np.argmin(loads))
        return self.hierarchy.node_for(size, j), int(loads[j])

    def _build_minagg(self) -> None:
        """Materialize the min-of-max vectors bottom-up, vectorized per
        (level, target-level) pair: O(N) total work, done once."""
        h = self.hierarchy
        n = h.height
        count = self._count
        # rows[l] is the (2^l, n-l+1) matrix of D vectors for level l.
        rows: list[np.ndarray] = [None] * (n + 1)  # type: ignore[list-item]
        leaves = count[h.level_slice(n)]
        rows[n] = leaves.reshape(-1, 1).copy()
        mb = self._max_below
        for level in range(n - 1, -1, -1):
            below = rows[level + 1]
            mat = np.empty((1 << level, n - level + 1), dtype=np.int64)
            mat[:, 0] = mb[h.level_slice(level)]
            np.minimum(below[0::2, :], below[1::2, :], out=mat[:, 1:])
            mat[:, 1:] += count[h.level_slice(level)][:, None]
            rows[level] = mat
        flat: list[int] = []
        for level in range(n + 1):
            flat.extend(rows[level].ravel().tolist())
        self._minagg = flat

    def leftmost_min_submachine(self, size: int) -> tuple[NodeId, int]:
        """Leftmost ``size``-PE submachine of minimum load, and that load.

        O(log N) descent over the lazily built min-of-max structure; ties
        resolve to the left child at every step, which is the paper's
        leftmost tie-break (verified against
        :meth:`leftmost_min_submachine_scan` by property tests).
        """
        target = self.hierarchy.level_for_size(size)
        if self._minagg is None:
            self._build_minagg()
        minagg = self._minagg
        base = self._minagg_base
        n = self.hierarchy.height
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

    def snapshot(self) -> np.ndarray:
        """Copy of the per-node placement counts (heap-indexed)."""
        return self._count.copy()

    def check_invariants(self) -> None:
        """Verify internal aggregation consistency (test helper, O(N log N))."""
        h = self.hierarchy
        m = np.zeros_like(self._max_below)
        leaves = h.level_slice(h.height)
        m[leaves] = self._count[leaves]
        for level in range(h.height - 1, -1, -1):
            for v in h.nodes_at_level(level):
                m[v] = self._count[v] + max(m[2 * v], m[2 * v + 1])
        if not np.array_equal(m, self._max_below):
            raise AssertionError("LoadTracker max aggregation out of sync")
        if self._count[1:].tolist() != self._count_list[1:]:
            raise AssertionError("LoadTracker count mirror out of sync")
        if self._max_below[1:].tolist() != self._mb_list[1:]:
            raise AssertionError("LoadTracker max-below mirror out of sync")
        if int(self._count[1:].sum()) != self._active:
            raise AssertionError("LoadTracker active-count out of sync")
        # Leaf cache: replaying the journal must reproduce the true loads.
        anc = h.ancestor_sums(self._count, h.height)
        true_leaves = anc + self._count[leaves]
        if not self._leaf_stale:
            replayed = self._leaf_cache.copy()
            for lo, hi, delta in self._leaf_journal:
                replayed[lo:hi] += delta
            if not np.array_equal(replayed, true_leaves):
                raise AssertionError("LoadTracker leaf cache out of sync")
        # Min-of-max structure (only when built): every D_L(v) must equal
        # the brute-force minimum over level-L descendant loads.
        if self._minagg is not None:
            base = self._minagg_base
            n = h.height
            for level in range(n + 1):
                width = n - level + 1
                for i, v in enumerate(h.nodes_at_level(level)):
                    vec = self._minagg[
                        base[level] + i * width : base[level] + (i + 1) * width
                    ]
                    anc_v = sum(self._count_list[a] for a in h.ancestors(v))
                    for j, target in enumerate(range(level, n + 1)):
                        lo, hi = h.leaf_span(v)
                        size = h.num_leaves >> target
                        block = true_leaves[lo:hi].reshape(-1, size)
                        expect = int(block.max(axis=1).min()) - anc_v
                        if vec[j] != expect:
                            raise AssertionError(
                                "LoadTracker min-of-max aggregation out of "
                                f"sync at node {v}, target level {target}"
                            )
