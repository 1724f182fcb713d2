"""Behavioural unit tests for the individual allocation algorithms.

(Theorem-level bound compliance over random sequences lives in
``tests/test_theorems.py``; these tests pin down the concrete mechanics of
each algorithm on hand-constructed inputs.)
"""

import math

import numpy as np
import pytest

from repro.core.base import Placement
from repro.core.basic import BasicAlgorithm
from repro.core.greedy import GreedyAlgorithm
from repro.core.optimal import OptimalReallocatingAlgorithm
from repro.core.periodic import PeriodicReallocationAlgorithm
from repro.core.randomized import ObliviousRandomAlgorithm
from repro.core.twochoice import TwoChoiceAlgorithm
from repro.errors import AllocationError, SimulationError
from repro.kernel import AllocationKernel
from repro.machines.tree import TreeMachine
from repro.sim.runner import run
from repro.tasks.builder import SequenceBuilder, figure1_sequence
from repro.tasks.events import Arrival, Departure
from repro.tasks.task import Task
from repro.types import TaskId


def _task(tid, size, arrival=0.0):
    return Task(TaskId(tid), size, arrival)


def _kernel(algo):
    """A kernel driving ``algo``: algorithms that decide from loads read
    the kernel's tracker, so they are only ever driven through one."""
    return AllocationKernel(algo.machine, algo)


def _arrive(kernel, tid, size):
    """Node the kernel placed a fresh size-``size`` task ``tid`` at."""
    return kernel.apply(Arrival(0.0, _task(tid, size))).node


class TestGreedy:
    def test_name(self):
        assert GreedyAlgorithm(TreeMachine(4)).name == "A_G"

    def test_leftmost_tie_break(self):
        m = TreeMachine(4)
        kernel = _kernel(GreedyAlgorithm(m))
        assert m.hierarchy.leaf_span(_arrive(kernel, 0, 1)) == (0, 1)
        assert m.hierarchy.leaf_span(_arrive(kernel, 1, 1)) == (1, 2)

    def test_picks_least_loaded_submachine(self):
        m = TreeMachine(4)
        kernel = _kernel(GreedyAlgorithm(m))
        _arrive(kernel, 0, 2)  # left 2-PE submachine now at load 1
        node = _arrive(kernel, 1, 2)
        assert m.hierarchy.leaf_span(node) == (2, 4)  # strictly less loaded

    def test_submachine_load_is_max_not_sum(self):
        m = TreeMachine(4)
        kernel = _kernel(GreedyAlgorithm(m))
        for i in range(3):
            _arrive(kernel, i, 1)
        # Leaves 0,1,2 at load 1; both 2-PE halves have max load 1 -> tie,
        # and the paper's tie-break picks the leftmost.
        node = _arrive(kernel, 3, 2)
        assert m.hierarchy.leaf_span(node) == (0, 2)

    def test_departure_frees_load(self):
        m = TreeMachine(4)
        kernel = _kernel(GreedyAlgorithm(m))
        _arrive(kernel, 0, 4)
        assert kernel.current_max_load == 1
        kernel.apply(Departure(1.0, TaskId(0)))
        assert kernel.current_max_load == 0

    def test_figure1_load_two(self):
        m = TreeMachine(4)
        assert run(m, GreedyAlgorithm(m), figure1_sequence()).max_load == 2

    def test_duplicate_arrival_rejected(self):
        """The kernel refuses a duplicate before the algorithm sees it."""
        m = TreeMachine(4)
        kernel = _kernel(GreedyAlgorithm(m))
        _arrive(kernel, 0, 1)
        with pytest.raises(SimulationError, match="duplicate arrival"):
            _arrive(kernel, 0, 1)

    def test_departure_of_unknown_rejected(self):
        m = TreeMachine(4)
        kernel = _kernel(GreedyAlgorithm(m))
        with pytest.raises(SimulationError, match="unknown task"):
            kernel.apply(Departure(0.0, TaskId(0)))

    def test_unbound_algorithm_says_so(self):
        with pytest.raises(AllocationError, match="AllocationKernel"):
            GreedyAlgorithm(TreeMachine(4)).on_arrival(_task(0, 1))

    def test_reset(self):
        """A_G keeps no state: a new kernel rebinds it to empty loads."""
        m = TreeMachine(4)
        algo = GreedyAlgorithm(m)
        _arrive(_kernel(algo), 0, 1)
        algo.reset()
        kernel = _kernel(algo)
        assert kernel.current_max_load == 0
        assert m.hierarchy.leaf_span(_arrive(kernel, 0, 1)) == (0, 1)

    def test_never_reallocates(self):
        m = TreeMachine(4)
        algo = GreedyAlgorithm(m)
        assert math.isinf(algo.reallocation_parameter)
        assert algo.maybe_reallocate(10**9) is None


class TestBasic:
    def test_first_fit_packs_tightly(self):
        m = TreeMachine(4)
        algo = BasicAlgorithm(m)
        nodes = [algo.on_arrival(_task(i, 1)).node for i in range(4)]
        spans = [m.hierarchy.leaf_span(n) for n in nodes]
        assert spans == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert algo.num_copies == 1

    def test_second_copy_when_full(self):
        m = TreeMachine(4)
        algo = BasicAlgorithm(m)
        algo.on_arrival(_task(0, 4))
        algo.on_arrival(_task(1, 1))
        assert algo.num_copies == 2

    def test_departure_reopens_slot(self):
        m = TreeMachine(4)
        algo = BasicAlgorithm(m)
        t0 = _task(0, 2)
        algo.on_arrival(t0)
        algo.on_departure(t0)
        p = algo.on_arrival(_task(1, 2))
        assert m.hierarchy.leaf_span(p.node) == (0, 2)
        assert algo.num_copies == 1

    def test_fragmentation_weakness(self):
        """The behaviour Figure 1 criticises: holes don't coalesce."""
        m = TreeMachine(4)
        algo = BasicAlgorithm(m)
        tasks = [_task(i, 1) for i in range(4)]
        for t in tasks:
            algo.on_arrival(t)
        algo.on_departure(tasks[1])
        algo.on_departure(tasks[3])
        # Two scattered unit holes cannot host a size-2 task in copy 0.
        algo.on_arrival(_task(9, 2))
        assert algo.num_copies == 2

    def test_placement_lookup(self):
        m = TreeMachine(4)
        algo = BasicAlgorithm(m)
        p = algo.on_arrival(_task(0, 2))
        assert algo.placement_of(TaskId(0)) == p.node

    def test_nonempty_copy_count(self):
        m = TreeMachine(4)
        algo = BasicAlgorithm(m)
        t = _task(0, 4)
        algo.on_arrival(t)
        algo.on_arrival(_task(1, 4))
        algo.on_departure(t)
        assert algo.num_copies == 2
        assert algo.num_nonempty_copies == 1


class TestOptimal:
    def test_d_is_zero(self):
        assert OptimalReallocatingAlgorithm(TreeMachine(4)).reallocation_parameter == 0

    def test_always_optimal_on_figure1(self):
        m = TreeMachine(4)
        assert run(m, OptimalReallocatingAlgorithm(m), figure1_sequence()).max_load == 1

    def test_repack_consumes_pending(self):
        m = TreeMachine(4)
        algo = OptimalReallocatingAlgorithm(m)
        algo.on_arrival(_task(0, 1))
        assert algo.maybe_reallocate(1) is not None
        assert algo.maybe_reallocate(1) is None  # consumed

    def test_departure_without_arrival_rejected(self):
        m = TreeMachine(4)
        with pytest.raises(AllocationError):
            OptimalReallocatingAlgorithm(m).on_departure(_task(3, 1))


class TestPeriodic:
    def test_branch_selection(self):
        m = TreeMachine(16)  # g = ceil((4+1)/2) = 3
        assert not PeriodicReallocationAlgorithm(m, 2).uses_greedy_branch
        assert PeriodicReallocationAlgorithm(m, 3).uses_greedy_branch
        assert PeriodicReallocationAlgorithm(m, float("inf")).uses_greedy_branch

    def test_name_formats(self):
        m = TreeMachine(16)
        assert PeriodicReallocationAlgorithm(m, 2).name == "A_M(d=2)"
        assert PeriodicReallocationAlgorithm(m, 2, lazy=True).name == "A_M(d=2,lazy)"
        assert "inf" in PeriodicReallocationAlgorithm(m, float("inf")).name

    def test_rejects_negative_d(self):
        with pytest.raises(ValueError):
            PeriodicReallocationAlgorithm(TreeMachine(4), -1)

    def test_greedy_branch_never_reallocates(self):
        m = TreeMachine(16)
        algo = PeriodicReallocationAlgorithm(m, 99)
        assert not _kernel(algo).apply(Arrival(0.0, _task(0, 16))).reallocated
        assert algo.maybe_reallocate(10**9) is None

    def test_basic_branch_reallocates_at_budget(self):
        m = TreeMachine(4)
        algo = PeriodicReallocationAlgorithm(m, 1)
        for i in range(4):
            algo.on_arrival(_task(i, 1))
        assert algo.maybe_reallocate(3) is None      # below budget d*N = 4
        remap = algo.maybe_reallocate(4)
        assert remap is not None
        assert set(remap.mapping) == {TaskId(i) for i in range(4)}

    def test_lazy_skips_pointless_repack(self):
        m = TreeMachine(4)
        algo = PeriodicReallocationAlgorithm(m, 1, lazy=True)
        kernel = _kernel(algo)
        decisions = [kernel.apply(Arrival(0.0, _task(i, 1))) for i in range(4)]
        # Load is already optimal (1 = ceil(4/4)); lazy declines at the
        # budget (the fourth arrival) and after it.
        assert not any(d.reallocated for d in decisions)
        assert algo.maybe_reallocate(4) is None

    def test_lazy_reproduces_figure1(self):
        m = TreeMachine(4)
        algo = PeriodicReallocationAlgorithm(m, 1, lazy=True)
        assert run(m, algo, figure1_sequence()).max_load == 1

    def test_d_zero_equals_optimal(self):
        seq = figure1_sequence()
        m1, m2 = TreeMachine(4), TreeMachine(4)
        load_d0 = run(m1, PeriodicReallocationAlgorithm(m1, 0), seq).max_load
        load_ac = run(m2, OptimalReallocatingAlgorithm(m2), seq).max_load
        assert load_d0 == load_ac == 1


class TestRandomized:
    def test_is_randomized_flag(self):
        m = TreeMachine(8)
        assert ObliviousRandomAlgorithm(m, np.random.default_rng(0)).is_randomized
        assert not GreedyAlgorithm(m).is_randomized

    def test_placement_is_valid_submachine(self):
        m = TreeMachine(8)
        algo = ObliviousRandomAlgorithm(m, np.random.default_rng(0))
        for i in range(50):
            p = algo.on_arrival(_task(i, 2))
            assert m.hierarchy.subtree_size(p.node) == 2

    def test_seeded_reproducibility(self):
        m = TreeMachine(8)
        def play(seed):
            algo = ObliviousRandomAlgorithm(m, np.random.default_rng(seed))
            return [algo.on_arrival(_task(i, 2)).node for i in range(20)]
        assert play(7) == play(7)
        assert play(7) != play(8)  # overwhelmingly likely

    def test_distribution_uniform(self):
        m = TreeMachine(4)
        algo = ObliviousRandomAlgorithm(m, np.random.default_rng(3))
        counts = {4: 0, 5: 0, 6: 0, 7: 0}
        for i in range(4000):
            counts[algo.on_arrival(_task(i, 1)).node] += 1
        for c in counts.values():
            assert 800 < c < 1200  # ~1000 each

    def test_departure_bookkeeping(self):
        m = TreeMachine(4)
        algo = ObliviousRandomAlgorithm(m, np.random.default_rng(0))
        t = _task(0, 1)
        algo.on_arrival(t)
        algo.on_departure(t)
        with pytest.raises(AllocationError):
            algo.on_departure(t)


class TestTwoChoice:
    def test_prefers_less_loaded(self):
        m = TreeMachine(4)
        kernel = _kernel(TwoChoiceAlgorithm(m, np.random.default_rng(0)))
        seen = set()
        for i in range(4):
            seen.add(_arrive(kernel, i, 2))
        # With 2 submachines and 2 choices it must alternate perfectly.
        assert seen == {2, 3}

    def test_num_choices_validated(self):
        with pytest.raises(ValueError):
            TwoChoiceAlgorithm(TreeMachine(4), np.random.default_rng(0), num_choices=0)

    def test_single_submachine_size(self):
        m = TreeMachine(4)
        kernel = _kernel(TwoChoiceAlgorithm(m, np.random.default_rng(0)))
        assert _arrive(kernel, 0, 4) == 1

    def test_beats_oblivious_on_average(self):
        n = 64
        loads = {}
        for label, cls in (("one", ObliviousRandomAlgorithm), ("two", TwoChoiceAlgorithm)):
            peaks = []
            for seed in range(15):
                m = TreeMachine(n)
                algo = cls(m, np.random.default_rng(seed))
                seq = SequenceBuilder()
                for i in range(n):
                    seq.arrive(f"t{i}", size=1)
                peaks.append(run(m, algo, seq.build()).max_load)
            loads[label] = float(np.mean(peaks))
        assert loads["two"] < loads["one"]
