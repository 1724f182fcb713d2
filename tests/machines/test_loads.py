"""Unit and property tests for the LoadTracker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.machines.hierarchy import Hierarchy
from repro.machines.loads import LoadTracker


@pytest.fixture
def tracker():
    return LoadTracker(Hierarchy(8))


class TestPlacement:
    def test_place_updates_leaf_loads(self, tracker):
        tracker.place(1, 8)       # whole machine
        tracker.place(4, 2)       # PEs 0-1
        assert tracker.leaf_loads().tolist() == [2, 2, 1, 1, 1, 1, 1, 1]
        assert tracker.max_load == 2
        assert tracker.num_active == 2

    def test_remove_restores(self, tracker):
        tracker.place(4, 2)
        tracker.remove(4, 2)
        assert tracker.max_load == 0
        assert tracker.num_active == 0

    def test_place_rejects_wrong_size(self, tracker):
        with pytest.raises(PlacementError):
            tracker.place(8, 4)   # node 8 is a leaf (1 PE)
        with pytest.raises(PlacementError):
            tracker.place(1, 3)   # non power of two

    def test_place_rejects_invalid_node(self, tracker):
        with pytest.raises(PlacementError):
            tracker.place(0, 8)
        with pytest.raises(PlacementError):
            tracker.place(99, 1)

    def test_remove_requires_prior_place(self, tracker):
        with pytest.raises(PlacementError):
            tracker.remove(4, 2)

    def test_clear(self, tracker):
        tracker.place(1, 8)
        tracker.place(15, 1)
        tracker.clear()
        assert tracker.max_load == 0
        assert tracker.leaf_loads().sum() == 0


class TestQueries:
    def test_submachine_load_includes_ancestors(self, tracker):
        tracker.place(1, 8)   # root task loads every PE
        tracker.place(4, 2)   # PEs 0-1
        assert tracker.submachine_load(4) == 2
        assert tracker.submachine_load(5) == 1
        assert tracker.submachine_load(1) == 2
        assert tracker.ancestor_load(4) == 1
        assert tracker.node_count(4) == 1

    def test_leaf_load(self, tracker):
        tracker.place(1, 8)
        tracker.place(4, 2)
        assert tracker.leaf_load(0) == 2
        assert tracker.leaf_load(7) == 1

    def test_level_loads(self, tracker):
        tracker.place(4, 2)
        tracker.place(4, 2)
        tracker.place(7, 2)
        assert tracker.level_loads(2).tolist() == [2, 0, 0, 1]
        assert tracker.level_loads(4).tolist() == [2, 1]
        assert tracker.level_loads(8).tolist() == [2]

    def test_level_loads_of_single_pes_is_a_fresh_array(self, tracker):
        tracker.place(4, 2)
        ones = tracker.level_loads(1)
        assert ones.tolist() == [1, 1, 0, 0, 0, 0, 0, 0]
        assert not np.shares_memory(ones, tracker.leaf_loads(copy=False))
        ones += 7  # the caller's array, not the tracker's leaf loads
        assert tracker.leaf_loads().tolist() == [1, 1, 0, 0, 0, 0, 0, 0]
        tracker.check_invariants()

    def test_leftmost_min_is_first_argmin(self, tracker):
        tracker.place(4, 2)
        node, load = tracker.leftmost_min_submachine(2)
        assert (node, load) == (5, 0)  # first zero-load 2-PE submachine
        tracker.place(5, 2)
        tracker.place(6, 2)
        tracker.place(7, 2)
        node, load = tracker.leftmost_min_submachine(2)
        assert (node, load) == (4, 1)  # all tied at 1 -> leftmost


@st.composite
def placement_scripts(draw, num_leaves=8, max_ops=40):
    """Random interleavings of place/remove on an N-leaf tracker."""
    h = Hierarchy(num_leaves)
    ops = []
    live: list[int] = []
    for _ in range(draw(st.integers(1, max_ops))):
        if live and draw(st.booleans()):
            idx = draw(st.integers(0, len(live) - 1))
            ops.append(("remove", live.pop(idx)))
        else:
            node = draw(st.integers(1, 2 * num_leaves - 1))
            ops.append(("place", node))
            live.append(node)
    return ops


class TestPropertyConsistency:
    @given(placement_scripts())
    @settings(max_examples=80, deadline=None)
    def test_tracker_matches_naive_accounting(self, ops):
        h = Hierarchy(8)
        tracker = LoadTracker(h)
        naive = np.zeros(8, dtype=np.int64)
        for op, node in ops:
            size = h.subtree_size(node)
            lo, hi = h.leaf_span(node)
            if op == "place":
                tracker.place(node, size)
                naive[lo:hi] += 1
            else:
                tracker.remove(node, size)
                naive[lo:hi] -= 1
        assert tracker.leaf_loads().tolist() == naive.tolist()
        assert tracker.max_load == int(naive.max()) if len(ops) else True
        tracker.check_invariants()

    @given(placement_scripts(num_leaves=16))
    @settings(max_examples=40, deadline=None)
    def test_level_loads_match_leaf_maxima(self, ops):
        h = Hierarchy(16)
        tracker = LoadTracker(h)
        for op, node in ops:
            size = h.subtree_size(node)
            if op == "place":
                tracker.place(node, size)
            else:
                tracker.remove(node, size)
        leaves = tracker.leaf_loads()
        for size in (1, 2, 4, 8, 16):
            expected = leaves.reshape(16 // size, size).max(axis=1)
            assert tracker.level_loads(size).tolist() == expected.tolist()

    @given(placement_scripts(num_leaves=8, max_ops=25))
    @settings(max_examples=40, deadline=None)
    def test_submachine_load_definition(self, ops):
        h = Hierarchy(8)
        tracker = LoadTracker(h)
        for op, node in ops:
            size = h.subtree_size(node)
            getattr(tracker, "place" if op == "place" else "remove")(node, size)
        leaves = tracker.leaf_loads()
        for v in range(1, 16):
            lo, hi = h.leaf_span(v)
            assert tracker.submachine_load(v) == int(leaves[lo:hi].max())


class TestLeftmostMinDescent:
    """The O(log N) descent must be indistinguishable from the brute-force
    level scan + argmin — value *and* leftmost tie-break — at every point
    of a random placement churn, including queries interleaved with
    mutations (the descent structure is built lazily on the first query
    and maintained incrementally afterwards)."""

    @given(placement_scripts(num_leaves=16, max_ops=60))
    @settings(max_examples=60, deadline=None)
    def test_descent_matches_scan_under_churn(self, ops):
        h = Hierarchy(16)
        tracker = LoadTracker(h)
        sizes = (1, 2, 4, 8, 16)
        for step, (op, node) in enumerate(ops):
            size = h.subtree_size(node)
            getattr(tracker, "place" if op == "place" else "remove")(node, size)
            # Query mid-churn every few steps so the lazily built structure
            # sees further mutations after construction.
            if step % 3 == 0:
                for qsize in sizes:
                    assert (
                        tracker.leftmost_min_submachine(qsize)
                        == tracker.leftmost_min_submachine_scan(qsize)
                    )
        for qsize in sizes:
            assert (
                tracker.leftmost_min_submachine(qsize)
                == tracker.leftmost_min_submachine_scan(qsize)
            )
        tracker.check_invariants()

    @given(placement_scripts(num_leaves=8, max_ops=40))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_queries_keep_all_caches_consistent(self, ops):
        """leaf_loads journal + min-of-max structure stay in sync when
        queries and mutations interleave arbitrarily."""
        h = Hierarchy(8)
        tracker = LoadTracker(h)
        naive = np.zeros(8, dtype=np.int64)
        for step, (op, node) in enumerate(ops):
            size = h.subtree_size(node)
            lo, hi = h.leaf_span(node)
            if op == "place":
                tracker.place(node, size)
                naive[lo:hi] += 1
            else:
                tracker.remove(node, size)
                naive[lo:hi] -= 1
            if step % 2 == 0:
                assert tracker.leaf_loads().tolist() == naive.tolist()
                node_min, load = tracker.leftmost_min_submachine(2)
                assert tracker.leftmost_min_submachine_scan(2) == (node_min, load)
        tracker.check_invariants()

    def test_clear_resets_descent_structure(self):
        h = Hierarchy(8)
        tracker = LoadTracker(h)
        tracker.place(2, 4)
        assert tracker.leftmost_min_submachine(4) == (3, 0)
        tracker.clear()
        assert tracker.leftmost_min_submachine(4) == (2, 0)
        assert tracker.leaf_loads().tolist() == [0] * 8
        tracker.check_invariants()

    def test_journal_overflow_falls_back_to_rebuild(self):
        """300 mutations before the first leaf query: the leaf array built
        then is exact."""
        h = Hierarchy(16)
        tracker = LoadTracker(h)
        naive = np.zeros(16, dtype=np.int64)
        rng = np.random.default_rng(7)
        for _ in range(300):
            node = int(rng.integers(1, 32))
            tracker.place(node, h.subtree_size(node))
            lo, hi = h.leaf_span(node)
            naive[lo:hi] += 1
        assert tracker.leaf_loads().tolist() == naive.tolist()
        tracker.check_invariants()


class TestRebuildFrom:
    """rebuild_from(placements) must equal clear() + place() per task."""

    @given(
        st.lists(st.integers(min_value=1, max_value=31), max_size=40),
        st.lists(st.integers(min_value=1, max_value=31), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_incremental_rebuild(self, warmup, placements):
        h = Hierarchy(16)
        fast = LoadTracker(h)
        slow = LoadTracker(h)
        # Warm both trackers with prior state so rebuild_from really
        # replaces something (and must discard stale caches/journals).
        for node in warmup:
            fast.place(node, h.subtree_size(node))
            _ = fast.leaf_loads()  # populate cache + journal mid-stream
        pairs = [(node, h.subtree_size(node)) for node in placements]
        fast.rebuild_from(pairs)
        for node, size in pairs:
            slow.place(node, size)
        assert fast.leaf_loads().tolist() == slow.leaf_loads().tolist()
        assert fast.max_load == slow.max_load
        assert fast.num_active == slow.num_active
        for size in (1, 2, 4, 8, 16):
            assert fast.level_loads(size).tolist() == slow.level_loads(size).tolist()
            assert fast.leftmost_min_submachine(size) == slow.leftmost_min_submachine(size)
        fast.check_invariants()

    def test_rebuild_from_empty_clears(self):
        h = Hierarchy(8)
        tracker = LoadTracker(h)
        tracker.place(1, 8)
        tracker.place(4, 2)
        tracker.rebuild_from([])
        assert tracker.max_load == 0
        assert tracker.num_active == 0
        assert tracker.leaf_loads().tolist() == [0] * 8
        tracker.check_invariants()

    def test_rebuild_from_validates(self):
        tracker = LoadTracker(Hierarchy(8))
        with pytest.raises(PlacementError):
            tracker.rebuild_from([(8, 4)])  # node 8 is a leaf (1 PE)
        with pytest.raises(PlacementError):
            tracker.rebuild_from([(99, 1)])

    def test_clear_keeps_answering(self):
        tracker = LoadTracker(Hierarchy(8))
        tracker.place(1, 8)
        tracker.clear()
        assert tracker.leaf_loads().tolist() == [0] * 8
        tracker.place(4, 2)
        assert tracker.max_load == 1
        tracker.check_invariants()


class TestLeafLoadsView:
    def test_view_is_read_only_and_tracks_cache(self):
        tracker = LoadTracker(Hierarchy(8))
        tracker.place(4, 2)
        view = tracker.leaf_loads(copy=False)
        assert view.tolist() == [1, 1, 0, 0, 0, 0, 0, 0]
        with pytest.raises(ValueError):
            view[0] = 99
        # The view is live: after the next mutation + query it shows the
        # new loads without being re-fetched.
        tracker.place(5, 2)
        _ = tracker.leaf_loads(copy=False)
        assert view.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_copy_default_is_isolated(self):
        tracker = LoadTracker(Hierarchy(8))
        tracker.place(4, 2)
        snap = tracker.leaf_loads()
        tracker.place(4, 2)
        _ = tracker.leaf_loads()
        assert snap.tolist() == [1, 1, 0, 0, 0, 0, 0, 0]
        snap[0] = 42  # a real copy is writable

    def test_view_and_copy_agree_after_rebuild(self):
        h = Hierarchy(16)
        tracker = LoadTracker(h)
        tracker.rebuild_from([(1, 16), (2, 8), (8, 2)])
        assert tracker.leaf_loads(copy=False).tolist() == tracker.leaf_loads().tolist()
