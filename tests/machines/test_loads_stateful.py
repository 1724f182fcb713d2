"""Stateful (rule-based) Hypothesis test for :class:`LoadTracker`.

The unit suite checks place/remove/repack in hand-picked orders; this
machine lets Hypothesis interleave them arbitrarily and asserts after
*every* step that every query agrees with a naive difference-array
recomputation from the shadow placement list (via the verify package's
independent ``oracle_leaf_span``, which shares no code with the tracker):

* ``leaf_loads``, ``leaf_load`` for every PE and ``level_loads`` for
  every submachine size;
* ``submachine_load`` and ``ancestor_load`` for every node;
* the O(log N) ``leftmost_min_submachine`` descent against the
  ``leftmost_min_submachine_scan`` oracle, for every submachine size;
* ``max_load``, ``num_active`` and the tracker's own ``check_invariants``.

Beyond single places and removes, the rules cover the bulk paths — the
repack idiom (``clear()`` + re-placement) and ``rebuild_from`` — and a
fresh tracker whose derived structures (the per-PE leaf array and the
min-of-max vectors) are first built partway through its history and must
then be kept current by later mutations.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.machines.tree import TreeMachine
from repro.verify.oracle import oracle_leaf_span


class LoadTrackerMachine(RuleBasedStateMachine):
    N = 16

    def __init__(self):
        super().__init__()
        self.sizes = [1 << k for k in range(self.N.bit_length())]
        self.machine = TreeMachine(self.N)
        self.tracker = self.machine.new_load_tracker()
        #: Shadow model: flat list of (node, size) placements.
        self.placed: list[tuple[int, int]] = []

    def _draw_node(self, data, size):
        count = self.N // size
        return data.draw(st.integers(count, 2 * count - 1))

    # -- rules ------------------------------------------------------------

    @rule(data=st.data())
    def place_at_descent_choice(self, data):
        size = data.draw(st.sampled_from(self.sizes))
        node, load = self.tracker.leftmost_min_submachine(size)
        scan_node, scan_load = self.tracker.leftmost_min_submachine_scan(size)
        assert (node, load) == (scan_node, scan_load)
        self.tracker.place(node, size)
        self.placed.append((node, size))

    @rule(data=st.data())
    def place_anywhere(self, data):
        # Adversarial placements too — the tracker serves all algorithms,
        # not only load-seeking ones.
        size = data.draw(st.sampled_from(self.sizes))
        node = self._draw_node(data, size)
        self.tracker.place(node, size)
        self.placed.append((node, size))

    @precondition(lambda self: self.placed)
    @rule(data=st.data())
    def remove_one(self, data):
        idx = data.draw(st.integers(0, len(self.placed) - 1))
        node, size = self.placed.pop(idx)
        self.tracker.remove(node, size)

    @precondition(lambda self: self.placed)
    @rule()
    def repack(self):
        # The A_M idiom: wipe everything, re-place the survivors largest
        # first at the descent's choice.
        self.tracker.clear()
        survivors = sorted(self.placed, key=lambda ns: -ns[1])
        self.placed = []
        for _old_node, size in survivors:
            node, _ = self.tracker.leftmost_min_submachine(size)
            self.tracker.place(node, size)
            self.placed.append((node, size))

    @rule(data=st.data())
    def rebuild_from_shadow(self, data):
        # Adoption of a whole placement list, in a drawn order.
        self.placed = data.draw(st.permutations(self.placed))
        self.tracker.rebuild_from(self.placed)

    @rule(data=st.data())
    def fresh_tracker_built_mid_history(self, data):
        # Replay the shadow placements into a new tracker, building the
        # derived structures after a drawn prefix (one of them, or both),
        # so the rest of the replay must keep them current.
        tracker = self.machine.new_load_tracker()
        split = data.draw(st.integers(0, len(self.placed)))
        for node, size in self.placed[:split]:
            tracker.place(node, size)
        built = data.draw(st.sampled_from(["leaf", "minagg", "both"]))
        if built in ("leaf", "both"):
            tracker.leaf_loads(copy=False)
        if built in ("minagg", "both"):
            tracker.leftmost_min_submachine(1)
        for node, size in self.placed[split:]:
            tracker.place(node, size)
        tracker.check_invariants()
        self.tracker = tracker

    # -- invariants -------------------------------------------------------

    @invariant()
    def every_query_matches_the_naive_loads(self):
        self.tracker.check_invariants()
        n = self.N
        expected = np.zeros(n, dtype=np.int64)
        for node, _size in self.placed:
            lo, hi = oracle_leaf_span(node, n)
            expected[lo:hi] += 1
        tracker = self.tracker
        assert np.array_equal(tracker.leaf_loads(), expected)
        assert [tracker.leaf_load(pe) for pe in range(n)] == expected.tolist()
        for size in self.sizes:
            blocks = expected.reshape(-1, size)
            assert tracker.level_loads(size).tolist() == blocks.max(axis=1).tolist()
        for node in range(1, 2 * n):
            lo, hi = oracle_leaf_span(node, n)
            assert tracker.submachine_load(node) == int(expected[lo:hi].max())
            above = sum(1 for v, _ in self.placed if _covers(v, node))
            assert tracker.ancestor_load(node) == above
        assert tracker.max_load == int(expected.max())
        assert tracker.num_active == len(self.placed)

    @invariant()
    def descent_matches_scan_for_every_size(self):
        for size in self.sizes:
            assert self.tracker.leftmost_min_submachine(
                size
            ) == self.tracker.leftmost_min_submachine_scan(size)


def _covers(anc, node):
    """Is ``anc`` a proper ancestor of heap node ``node``?"""
    shift = node.bit_length() - anc.bit_length()
    return shift > 0 and node >> shift == anc


class LargeLoadTrackerMachine(LoadTrackerMachine):
    N = 256


TestLoadTrackerStateful = LoadTrackerMachine.TestCase
TestLoadTrackerStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestLargeLoadTrackerStateful = LargeLoadTrackerMachine.TestCase
TestLargeLoadTrackerStateful.settings = settings(
    max_examples=8, stateful_step_count=20, deadline=None
)
