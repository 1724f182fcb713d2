"""Unit and property tests for the reallocation procedure A_R (Lemma 1)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.repack import repack, repack_reference
from repro.errors import ReproError
from repro.machines.hierarchy import Hierarchy
from repro.machines.loads import LoadTracker
from repro.tasks.task import Task
from repro.types import TaskId, ceil_div


def _tasks(sizes):
    return [Task(TaskId(i), s, float(i)) for i, s in enumerate(sizes)]


class TestRepackBasics:
    def test_empty_set(self):
        result = repack(Hierarchy(8), [])
        assert result.num_copies == 0
        assert result.mapping == {}

    def test_single_task(self):
        result = repack(Hierarchy(8), _tasks([4]))
        assert result.num_copies == 1
        assert result.mapping[TaskId(0)] == 2  # leftmost 4-PE submachine

    def test_perfect_packing_one_copy(self):
        # 4 + 2 + 1 + 1 = 8 fits one copy of an 8-PE machine exactly.
        result = repack(Hierarchy(8), _tasks([1, 2, 4, 1]))
        assert result.num_copies == 1

    def test_decreasing_size_order_determines_layout(self):
        result = repack(Hierarchy(8), _tasks([1, 4, 2]))
        h = Hierarchy(8)
        # Largest first: size 4 at node 2 (PEs 0-3), size 2 at node 6
        # (PEs 4-5), size 1 at leaf PE 6.
        assert result.mapping[TaskId(1)] == 2
        assert result.mapping[TaskId(2)] == 6
        assert h.leaf_span(result.mapping[TaskId(0)]) == (6, 7)

    def test_overflow_creates_second_copy(self):
        result = repack(Hierarchy(4), _tasks([4, 1]))
        assert result.num_copies == 2
        assert result.copy_of[TaskId(0)] == 0
        assert result.copy_of[TaskId(1)] == 1

    def test_deterministic_tie_break_by_id(self):
        a = repack(Hierarchy(8), _tasks([2, 2, 2]))
        b = repack(Hierarchy(8), list(reversed(_tasks([2, 2, 2]))))
        assert a.mapping == b.mapping


class TestLemma1:
    @given(st.lists(st.integers(0, 3).map(lambda x: 1 << x), min_size=0, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_copy_count_is_exactly_ceil_s_over_n(self, sizes):
        """Lemma 1: A_R uses exactly ceil(S/N) copies."""
        n = 8
        result = repack(Hierarchy(n), _tasks(sizes))
        assert result.num_copies == ceil_div(sum(sizes), n)

    @given(st.lists(st.integers(0, 4).map(lambda x: 1 << x), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_no_overlap_within_copy(self, sizes):
        n = 16
        h = Hierarchy(n)
        result = repack(h, _tasks(sizes))
        per_copy: dict[int, list[tuple[int, int]]] = {}
        for tid, node in result.mapping.items():
            assert h.subtree_size(node) == dict(
                (t.task_id, t.size) for t in _tasks(sizes)
            )[tid]
            per_copy.setdefault(result.copy_of[tid], []).append(h.leaf_span(node))
        for spans in per_copy.values():
            spans.sort()
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b <= c

    @given(st.lists(st.integers(0, 3).map(lambda x: 1 << x), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_all_tasks_mapped(self, sizes):
        result = repack(Hierarchy(8), _tasks(sizes))
        assert set(result.mapping) == {TaskId(i) for i in range(len(sizes))}
        assert set(result.copy_of) == set(result.mapping)

    @given(st.lists(st.integers(0, 3).map(lambda x: 1 << x), min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_claim1_no_holes_except_last_copy(self, sizes):
        """Lemma 1 Claim 1: only the last copy may contain vacant space."""
        n = 8
        h = Hierarchy(n)
        result = repack(h, _tasks(sizes))
        occupancy = [0] * result.num_copies
        for tid, node in result.mapping.items():
            lo, hi = h.leaf_span(node)
            occupancy[result.copy_of[tid]] += hi - lo
        for filled in occupancy[:-1]:
            assert filled == n


def _heights():
    return st.sampled_from([1, 2, 64, 4096])


@st.composite
def _repack_case(draw):
    """A machine size, a task set and a follow-up first_fit/free script."""
    n = draw(_heights())
    h = Hierarchy(n)
    max_exp = h.height
    # Few tasks at large N keep the per-copy invariant sweeps cheap; the
    # size mix still spans every level and several copies.
    count = draw(st.integers(0, 40 if n == 4096 else 120))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=count, max_size=count,
                        unique=True))
    sizes = draw(st.lists(st.integers(0, max_exp).map(lambda x: 1 << x),
                          min_size=count, max_size=count))
    script = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, max_exp), st.integers(0, 10_000)),
        max_size=40,
    ))
    return h, [Task(TaskId(i), s, 0.0) for i, s in zip(ids, sizes)], script


class TestClosedFormMatchesReference:
    """``repack`` (offset arithmetic) against ``repack_reference`` (first-fit)."""

    @given(_repack_case())
    @settings(max_examples=120, deadline=None)
    def test_same_result_and_same_follow_up_answers(self, case):
        h, tasks, script = case
        fast = repack(h, tasks)
        ref = repack_reference(h, tasks)
        assert list(fast.mapping.items()) == list(ref.mapping.items())
        assert list(fast.copy_of.items()) == list(ref.copy_of.items())
        assert fast.num_copies == ref.num_copies == len(fast.copies)
        for cid in range(ref.num_copies):
            a, b = fast.copies[cid], ref.copies[cid]
            assert np.array_equal(a._assigned, b._assigned)
            assert a.num_tasks == b.num_tasks
            a.check_invariants()
        # Both copy sets must keep answering identically as A_B continues.
        placed = [(ref.copy_of[tid], node) for tid, node in ref.mapping.items()]
        for allocate, exp, pick in script:
            if allocate or not placed:
                got = fast.copies.first_fit(1 << exp)
                assert got == ref.copies.first_fit(1 << exp)
                placed.append(got)
            else:
                slot = placed.pop(pick % len(placed))
                fast.copies.free(*slot)
                ref.copies.free(*slot)
        fast.copies.check_invariants()

    @pytest.mark.parametrize("sizes", [[16], [4, 16, 1]])
    def test_oversize_task_raises_as_the_reference(self, sizes):
        h, tasks = Hierarchy(8), _tasks(sizes)
        with pytest.raises(ReproError) as ref_err:
            repack_reference(h, tasks)
        with pytest.raises(type(ref_err.value), match=re.escape(str(ref_err.value))):
            repack(h, tasks)

    @given(_repack_case())
    @settings(max_examples=60, deadline=None)
    def test_lemma1_per_pe_load(self, case):
        """After a repack PE ``p`` carries ``S // N`` tasks, plus one if
        ``p < S % N``: the copies stack as one contiguous prefix."""
        h, tasks, _ = case
        n = h.num_leaves
        result = repack(h, tasks)
        tracker = LoadTracker(h)
        size_of = {t.task_id: t.size for t in tasks}
        tracker.rebuild_from((node, size_of[tid]) for tid, node in result.mapping.items())
        total = sum(size_of.values())
        expected = np.full(n, total // n)
        expected[: total % n] += 1
        assert np.array_equal(tracker.leaf_loads(), expected)
