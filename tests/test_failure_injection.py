"""Failure injection: every defensive check must actually fire.

The simulator's claim to be "the source of truth" rests on its rejection
paths.  Each test here builds a deliberately misbehaving component —
algorithms that lie, leak, or overstep — and asserts the harness refuses
loudly rather than producing flattering numbers.
"""

import pytest

from repro.core.base import AllocationAlgorithm, Placement, Reallocation
from repro.core.greedy import GreedyAlgorithm
from repro.errors import (
    PlacementError,
    ReallocationError,
    SimulationError,
)
from repro.machines.tree import TreeMachine
from repro.sim.engine import Simulator
from repro.tasks.builder import SequenceBuilder
from repro.tasks.events import Arrival, Departure
from repro.tasks.task import Task
from repro.types import TaskId


class _Misbehaving(AllocationAlgorithm):
    """Configurable bad actor."""

    def __init__(self, machine, mode):
        super().__init__(machine)
        self.mode = mode
        self._count = 0

    @property
    def name(self):
        return f"evil:{self.mode}"

    @property
    def reallocation_parameter(self):
        return 0.0 if self.mode.startswith("realloc") else float("inf")

    def on_arrival(self, task):
        self._count += 1
        h = self.machine.hierarchy
        if self.mode == "oversize":
            return Placement(task.task_id, 1)  # root regardless of size
        if self.mode == "offmachine":
            return Placement(task.task_id, 2 * self.machine.num_pes + 5)
        if self.mode == "wrong-id":
            return Placement(TaskId(10_000 + self._count), h.leaf_node(0))
        # Honest placement for the realloc modes.
        return Placement(task.task_id, h.enclosing_node(0, task.size))

    def on_departure(self, task):
        pass

    def maybe_reallocate(self, arrived_since_last):
        if self.mode == "realloc-drop":
            return Reallocation({})  # forgets every active task
        if self.mode == "realloc-phantom":
            return Reallocation(
                {TaskId(99_999): 1}
            )  # remaps a task that doesn't exist
        if self.mode == "realloc-resize":
            # Remap the (single, size-1) active task to the root.
            return Reallocation({TaskId(0): 1})
        return None


def _one_unit_arrival():
    return SequenceBuilder().arrive("a", size=1).build()


class TestPlacementRejections:
    @pytest.mark.parametrize("mode", ["oversize", "offmachine", "wrong-id"])
    def test_bad_placements_rejected(self, mode):
        m = TreeMachine(8)
        sim = Simulator(m, _Misbehaving(m, mode))
        with pytest.raises(PlacementError):
            sim.run(_one_unit_arrival())


class TestReallocationRejections:
    @pytest.mark.parametrize(
        "mode,exc",
        [
            ("realloc-drop", ReallocationError),
            ("realloc-phantom", ReallocationError),
            ("realloc-resize", PlacementError),
        ],
    )
    def test_bad_reallocations_rejected(self, mode, exc):
        m = TreeMachine(8)
        sim = Simulator(m, _Misbehaving(m, mode))
        with pytest.raises(exc):
            sim.run(_one_unit_arrival())

    def test_budget_overstep_rejected(self):
        class Impatient(GreedyAlgorithm):
            @property
            def reallocation_parameter(self):
                return 5.0  # claims d = 5 ...

            def on_arrival(self, task):
                self.placed = super().on_arrival(task)
                return self.placed

            def maybe_reallocate(self, arrived_since_last):
                # ... but tries to repack on the very first arrival.
                return Reallocation({self.placed.task_id: self.placed.node})

        m = TreeMachine(8)
        sim = Simulator(m, Impatient(m))
        with pytest.raises(ReallocationError, match="budget"):
            sim.run(_one_unit_arrival())


class TestSequenceLevelRejections:
    def test_duplicate_arrival(self):
        m = TreeMachine(8)
        sim = Simulator(m, GreedyAlgorithm(m))
        t = Task(TaskId(0), 1, 0.0)
        sim.step(Arrival(0.0, t))
        with pytest.raises(SimulationError, match="duplicate"):
            sim.step(Arrival(0.0, t))

    def test_phantom_departure(self):
        m = TreeMachine(8)
        sim = Simulator(m, GreedyAlgorithm(m))
        with pytest.raises(SimulationError, match="unknown"):
            sim.step(Departure(1.0, TaskId(3)))


class TestStateCorruptionDetection:
    def test_loadtracker_detects_tampering(self):
        from repro.machines.hierarchy import Hierarchy
        from repro.machines.loads import LoadTracker

        tracker = LoadTracker(Hierarchy(8))
        tracker.place(2, 4)
        tracker._max_below[1] += 1  # corrupt the stored aggregate
        with pytest.raises(AssertionError, match="max aggregation"):
            tracker.check_invariants()
        tracker._max_below[1] -= 1
        tracker.leaf_loads()  # build the derived per-PE array
        tracker.check_invariants()
        tracker._leaf[5] += 1  # corrupt it
        with pytest.raises(AssertionError, match="leaf array"):
            tracker.check_invariants()

    def test_buddycopy_detects_tampering(self):
        from repro.machines.copies import BuddyCopy
        from repro.machines.hierarchy import Hierarchy

        copy = BuddyCopy(Hierarchy(8))
        copy.allocate(2)
        copy._max_vacant[1] = 8  # pretend the copy is empty
        with pytest.raises(AssertionError):
            copy.check_invariants()

    def test_simulator_consistency_check_detects_drift(self):
        m = TreeMachine(8)
        sim = Simulator(m, GreedyAlgorithm(m))
        sim.step(Arrival(0.0, Task(TaskId(0), 2, 0.0)))
        sim._placements[TaskId(0)] = 3  # divert the record, not the tracker
        with pytest.raises(SimulationError):
            sim.check_consistency()
