"""Unit tests for the baseline allocation strategies."""

import pytest

from repro.core.baselines import (
    FirstFitLevelAlgorithm,
    RoundRobinAlgorithm,
    WorstFitAlgorithm,
)
from repro.errors import SimulationError
from repro.kernel import AllocationKernel
from repro.machines.tree import TreeMachine
from repro.tasks.events import Arrival, Departure
from repro.tasks.task import Task
from repro.types import TaskId


def _task(tid, size):
    return Task(TaskId(tid), size, 0.0)


def _kernel(algo):
    """The baselines read the loads of the kernel that drives them."""
    return AllocationKernel(algo.machine, algo)


def _arrive(kernel, tid, size):
    return kernel.apply(Arrival(0.0, _task(tid, size))).node


class TestRoundRobin:
    def test_cycles_submachines(self):
        m = TreeMachine(4)
        algo = RoundRobinAlgorithm(m)
        nodes = [algo.on_arrival(_task(i, 1)).node for i in range(6)]
        assert nodes == [4, 5, 6, 7, 4, 5]

    def test_separate_cursor_per_size(self):
        m = TreeMachine(4)
        algo = RoundRobinAlgorithm(m)
        assert algo.on_arrival(_task(0, 1)).node == 4
        assert algo.on_arrival(_task(1, 2)).node == 2
        assert algo.on_arrival(_task(2, 1)).node == 5

    def test_reset_restarts_cycle(self):
        m = TreeMachine(4)
        algo = RoundRobinAlgorithm(m)
        algo.on_arrival(_task(0, 1))
        algo.reset()
        assert algo.on_arrival(_task(1, 1)).node == 4

    def test_departure(self):
        m = TreeMachine(4)
        kernel = _kernel(RoundRobinAlgorithm(m))
        _arrive(kernel, 0, 2)
        kernel.apply(Departure(1.0, TaskId(0)))
        assert kernel.current_max_load == 0
        with pytest.raises(SimulationError, match="unknown task"):
            kernel.apply(Departure(2.0, TaskId(0)))


class TestWorstFit:
    def test_picks_smallest_total_load(self):
        m = TreeMachine(4)
        kernel = _kernel(WorstFitAlgorithm(m))
        _arrive(kernel, 0, 2)                # left half total 2
        assert _arrive(kernel, 1, 2) == 3    # right half total 0

    def test_average_criterion_can_stack(self):
        # Three unit tasks on the left leaf make its *average* still small
        # relative to a half-filled right side — worst-fit by sum can pick
        # the side with a taller stack, unlike the max-based greedy.
        m = TreeMachine(4)
        kernel = _kernel(WorstFitAlgorithm(m))
        for i in range(2):
            _arrive(kernel, i, 1)            # PEs 0 and 1 (sum 2 left)
        _arrive(kernel, 2, 2)                # right half (sum 2 right)
        node = _arrive(kernel, 3, 1)         # sums tie; argmin -> leftmost PE
        assert m.hierarchy.leaf_span(node) == (0, 1)


class TestFirstFitLevel:
    def test_takes_first_below_threshold(self):
        m = TreeMachine(4)
        kernel = _kernel(FirstFitLevelAlgorithm(m, threshold=1))
        assert _arrive(kernel, 0, 1) == 4
        assert _arrive(kernel, 1, 1) == 5

    def test_falls_back_to_minimum(self):
        m = TreeMachine(4)
        kernel = _kernel(FirstFitLevelAlgorithm(m, threshold=1))
        for i in range(4):
            _arrive(kernel, i, 1)
        # Everything at load 1 >= threshold; falls back to global min (leftmost).
        assert _arrive(kernel, 9, 1) == 4

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            FirstFitLevelAlgorithm(TreeMachine(4), threshold=0)

    def test_name_contains_threshold(self):
        assert "2" in FirstFitLevelAlgorithm(TreeMachine(4), threshold=2).name
