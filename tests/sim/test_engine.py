"""Unit tests for the Simulator: validation, budget enforcement, accounting."""

import math

import pytest

from repro.core.base import AllocationAlgorithm, Placement, Reallocation
from repro.core.greedy import GreedyAlgorithm
from repro.core.optimal import OptimalReallocatingAlgorithm
from repro.errors import PlacementError, ReallocationError, SimulationError
from repro.machines.tree import TreeMachine
from repro.sim.engine import Simulator
from repro.tasks.builder import SequenceBuilder, figure1_sequence
from repro.tasks.events import Arrival, Departure
from repro.tasks.task import Task
from repro.types import TaskId


class _RiggedAlgorithm(AllocationAlgorithm):
    """Test double returning scripted placements/reallocations."""

    def __init__(self, machine, placements=None, realloc=None, d=float("inf")):
        super().__init__(machine)
        self._placements = dict(placements or {})
        self._realloc = realloc
        self._d = d

    @property
    def name(self):
        return "rigged"

    @property
    def reallocation_parameter(self):
        return self._d

    def on_arrival(self, task):
        return Placement(task.task_id, self._placements[task.task_id])

    def on_departure(self, task):
        pass

    def maybe_reallocate(self, arrived_since_last):
        realloc, self._realloc = self._realloc, None
        return realloc


def _two_event_sequence(size=2):
    return SequenceBuilder().arrive("a", size=size).build()


class TestValidation:
    def test_wrong_machine_instance_rejected(self):
        m1, m2 = TreeMachine(4), TreeMachine(4)
        with pytest.raises(SimulationError):
            Simulator(m1, GreedyAlgorithm(m2))

    def test_wrong_size_placement_rejected(self):
        m = TreeMachine(4)
        algo = _RiggedAlgorithm(m, placements={TaskId(0): 1})  # 4-PE node for size 2
        sim = Simulator(m, algo)
        with pytest.raises(PlacementError):
            sim.run(_two_event_sequence(size=2))

    def test_invalid_node_rejected(self):
        m = TreeMachine(4)
        algo = _RiggedAlgorithm(m, placements={TaskId(0): 99})
        with pytest.raises(PlacementError):
            Simulator(m, algo).run(_two_event_sequence())

    def test_wrong_task_id_in_placement_rejected(self):
        m = TreeMachine(4)

        class Liar(_RiggedAlgorithm):
            def on_arrival(self, task):
                return Placement(TaskId(999), 2)

        with pytest.raises(PlacementError):
            Simulator(m, Liar(m)).run(_two_event_sequence())


class TestReallocationEnforcement:
    def test_budget_violation_rejected(self):
        m = TreeMachine(4)
        algo = _RiggedAlgorithm(
            m,
            placements={TaskId(0): 2},
            realloc=Reallocation({TaskId(0): 3}),
            d=10.0,  # budget 40 PE-arrivals; only 2 arrive
        )
        with pytest.raises(ReallocationError):
            Simulator(m, algo).run(_two_event_sequence())

    def test_realloc_must_cover_exactly_active_tasks(self):
        m = TreeMachine(4)
        algo = _RiggedAlgorithm(
            m,
            placements={TaskId(0): 2},
            realloc=Reallocation({TaskId(0): 3, TaskId(7): 2}),
            d=0.0,
        )
        with pytest.raises(ReallocationError):
            Simulator(m, algo).run(_two_event_sequence())

    def test_realloc_missing_task_rejected(self):
        m = TreeMachine(4)
        algo = _RiggedAlgorithm(
            m, placements={TaskId(0): 2}, realloc=Reallocation({}), d=0.0
        )
        with pytest.raises(ReallocationError):
            Simulator(m, algo).run(_two_event_sequence())

    def test_migration_accounting(self):
        m = TreeMachine(4)
        algo = _RiggedAlgorithm(
            m,
            placements={TaskId(0): 2},
            realloc=Reallocation({TaskId(0): 3}),
            d=0.0,
        )
        sim = Simulator(m, algo)
        sim.run(_two_event_sequence())
        stats = sim.metrics.realloc
        assert stats.num_reallocations == 1
        assert stats.num_migrations == 1
        assert stats.num_stationary == 0
        assert stats.migrated_pe_volume == 2
        assert stats.traffic_pe_hops > 0

    def test_stationary_remap_costs_nothing(self):
        m = TreeMachine(4)
        algo = _RiggedAlgorithm(
            m,
            placements={TaskId(0): 2},
            realloc=Reallocation({TaskId(0): 2}),
            d=0.0,
        )
        sim = Simulator(m, algo)
        sim.run(_two_event_sequence())
        assert sim.metrics.realloc.num_stationary == 1
        assert sim.metrics.realloc.num_migrations == 0


class TestAccounting:
    def test_metrics_peak_and_events(self):
        m = TreeMachine(4)
        sim = Simulator(m, GreedyAlgorithm(m))
        result = sim.run(figure1_sequence())
        assert result.max_load == 2
        assert result.metrics.events_processed == 7
        assert result.optimal_load == 1
        assert result.competitive_ratio == 2.0

    def test_peak_captured_between_events(self):
        """The peak is measured after every event, so an interior spike
        that later drains is still recorded."""
        m = TreeMachine(4)
        seq = (
            SequenceBuilder()
            .arrive("a", size=4)
            .arrive("b", size=4)
            .depart("a")
            .depart("b")
            .build()
        )
        sim = Simulator(m, GreedyAlgorithm(m))
        result = sim.run(seq)
        assert result.max_load == 2
        assert sim.current_max_load == 0

    def test_final_placements_exposed(self):
        m = TreeMachine(4)
        sim = Simulator(m, GreedyAlgorithm(m))
        result = sim.run(figure1_sequence())
        assert len(result.final_placements) == 3  # t1, t3, t5 still active

    def test_competitive_ratio_empty_sequence(self):
        from repro.tasks.sequence import TaskSequence

        m = TreeMachine(4)
        result = Simulator(m, GreedyAlgorithm(m)).run(TaskSequence([]))
        assert result.max_load == 0
        assert result.competitive_ratio == 0.0

    def test_duplicate_arrival_caught(self):
        m = TreeMachine(4)
        sim = Simulator(m, GreedyAlgorithm(m))
        t = Task(TaskId(0), 1, 0.0)
        sim.step(Arrival(0.0, t))
        with pytest.raises(SimulationError):
            sim.step(Arrival(0.0, t))

    def test_departure_of_unknown_caught(self):
        m = TreeMachine(4)
        sim = Simulator(m, GreedyAlgorithm(m))
        with pytest.raises(SimulationError):
            sim.step(Departure(1.0, TaskId(5)))

    def test_consistency_checker(self):
        m = TreeMachine(8)
        sim = Simulator(m, GreedyAlgorithm(m))
        seq = (
            SequenceBuilder()
            .arrive("a", size=2)
            .arrive("b", size=4)
            .arrive("c", size=1)
            .depart("b")
            .build()
        )
        for ev in seq:
            sim.step(ev)
            sim.check_consistency()
        assert sim.active_size() == 3

    def test_optimal_run_via_simulator_reallocates(self):
        m = TreeMachine(4)
        sim = Simulator(m, OptimalReallocatingAlgorithm(m))
        result = sim.run(figure1_sequence())
        assert result.max_load == 1
        assert result.metrics.realloc.num_reallocations == 5  # one per arrival
