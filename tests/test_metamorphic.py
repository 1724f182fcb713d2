"""Metamorphic and cross-model property tests.

These don't test one function against an oracle; they test that *pairs* of
independently implemented models agree where theory says they must:

* the discrete scheduler converges to the fluid slowdown model when its
  overhead knobs are zero;
* doubling a workload (two copies of every task) doubles L* and exactly
  doubles A_C's load;
* replaying a run through the simulator twice gives identical traces
  (no hidden global state);
* the lazy A_M never reallocates more often than the eager A_M on the same
  sequence;
* running any algorithm on a sequence and on its restriction to a prefix
  horizon gives identical prefixes of the load series.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import GreedyAlgorithm
from repro.core.optimal import OptimalReallocatingAlgorithm
from repro.core.periodic import PeriodicReallocationAlgorithm
from repro.machines.tree import TreeMachine
from repro.sim.runner import run
from repro.tasks.events import Arrival, Departure
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import TaskId
from tests.conftest import task_sequences


class TestSchedulerVsFluid:
    @given(st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_zero_overhead_scheduler_matches_fluid_slowdown(
        self, num_tasks, work_quanta
    ):
        """Same batch, same placements: discrete completion times approach
        the fluid model's prediction within one quantum per task."""
        from repro.sched.roundrobin import SchedulerConfig, simulate_round_robin
        from repro.sim.slowdown import measure_slowdowns_dynamic

        m = TreeMachine(4)
        work = float(work_quanta)
        tasks = [Task(TaskId(i), 1, 0.0, work=work) for i in range(num_tasks)]
        leaf = m.hierarchy.leaf_node(0)
        placements = {t.task_id: leaf for t in tasks}
        config = SchedulerConfig(quantum=0.25)
        discrete = simulate_round_robin(m, tasks, placements, config)

        # Fluid: all share leaf 0; the batch drains together at rate 1/k
        # with k shrinking as tasks complete.  For identical works the
        # fluid completion time of every task is num_tasks * work.
        fluid_completion = num_tasks * work
        for tid in placements:
            measured = discrete.per_task[tid].completion_time
            assert measured == pytest.approx(fluid_completion, abs=num_tasks * 0.25)


class TestWorkloadScaling:
    @given(task_sequences(num_pes=8, max_events=30))
    @settings(max_examples=40, deadline=None)
    def test_doubling_tasks_doubles_optimal(self, seq):
        doubled = _doubled(seq)
        assert doubled.peak_active_size == 2 * seq.peak_active_size
        n = 8
        m1, m2 = TreeMachine(n), TreeMachine(n)
        base = run(m1, OptimalReallocatingAlgorithm(m1), seq)
        double = run(m2, OptimalReallocatingAlgorithm(m2), doubled)
        # A_C is exactly optimal on both, and ceil(2s/N) <= 2 ceil(s/N).
        assert double.max_load <= 2 * max(base.max_load, 1)
        assert double.max_load == doubled.optimal_load(n)


def _doubled(seq: TaskSequence) -> TaskSequence:
    """Two copies of every task, co-located in time."""
    events = []
    offset = max((int(t) for t in seq.tasks), default=-1) + 1
    for ev in seq:
        if isinstance(ev, Arrival):
            t = ev.task
            clone = Task(TaskId(int(t.task_id) + offset), t.size, t.arrival,
                         t.departure, t.work)
            events.append(ev)
            events.append(Arrival(ev.time, clone))
        else:
            events.append(ev)
            events.append(Departure(ev.time, TaskId(int(ev.task_id) + offset)))
    return TaskSequence(events)


class TestDeterminism:
    @given(task_sequences(num_pes=16, max_events=40))
    @settings(max_examples=30, deadline=None)
    def test_identical_reruns(self, seq):
        loads = []
        for _ in range(2):
            m = TreeMachine(16)
            result = run(m, PeriodicReallocationAlgorithm(m, 1), seq)
            loads.append(result.series.max_loads)
        assert loads[0] == loads[1]


class TestLazyVsEager:
    @given(task_sequences(num_pes=16, max_events=50), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_lazy_repacks_at_most_as_often(self, seq, d):
        m1, m2 = TreeMachine(16), TreeMachine(16)
        eager = run(m1, PeriodicReallocationAlgorithm(m1, d), seq)
        lazy = run(m2, PeriodicReallocationAlgorithm(m2, d, lazy=True), seq)
        assert (
            lazy.metrics.realloc.num_reallocations
            <= eager.metrics.realloc.num_reallocations
        )

    @given(task_sequences(num_pes=8, max_events=40), st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_both_meet_the_thm42_bound(self, seq, d):
        from repro.core.bounds import deterministic_upper_factor

        factor = deterministic_upper_factor(8, d)
        for lazy in (False, True):
            m = TreeMachine(8)
            result = run(m, PeriodicReallocationAlgorithm(m, d, lazy=lazy), seq)
            assert result.max_load <= factor * max(1, result.optimal_load)


class TestPrefixConsistency:
    @given(task_sequences(num_pes=8, max_events=40), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_prefix_run_matches_full_run_prefix(self, seq, frac):
        if len(seq) == 0:
            return
        horizon = seq[max(0, int(frac * (len(seq) - 1)))].time
        prefix = seq.restricted_to_horizon(horizon)
        m1, m2 = TreeMachine(8), TreeMachine(8)
        full = run(m1, GreedyAlgorithm(m1), seq)
        part = run(m2, GreedyAlgorithm(m2), prefix)
        k = len(prefix)
        assert full.series.max_loads[:k] == part.series.max_loads
