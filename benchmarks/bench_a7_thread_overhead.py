"""A7 — thread-management overhead under the discrete round-robin scheduler.

The paper's opening motivation, measured: placements with higher max
thread load burn more context-switch time and management tax and finish
the same batch later.  Timed kernel: one scheduler run of the greedy
placement.
"""

import numpy as np

from benchmarks.conftest import record_report
from repro.analysis.experiments import experiment_thread_overhead
from repro.core.greedy import GreedyAlgorithm
from repro.kernel import AllocationKernel
from repro.machines.tree import TreeMachine
from repro.sched.roundrobin import SchedulerConfig, simulate_round_robin
from repro.tasks.events import Arrival
from repro.tasks.task import Task
from repro.types import TaskId


def test_a7_thread_overhead(benchmark):
    rng = np.random.default_rng(61)
    tasks = [
        Task(TaskId(i), int(1 << rng.integers(0, 4)), 0.0, work=float(rng.uniform(2, 6)))
        for i in range(64)
    ]
    machine = TreeMachine(64)
    kernel = AllocationKernel(machine, GreedyAlgorithm(machine))
    for t in tasks:
        kernel.apply(Arrival(t.arrival, t))
    placements = kernel.placements
    config = SchedulerConfig(quantum=0.5, context_switch=0.05, management_tax=0.04)

    report_obj = benchmark(lambda: simulate_round_robin(machine, tasks, placements, config))
    assert report_obj.makespan > 0

    report = experiment_thread_overhead()
    record_report(report)
    by_placement = {row[0]: row for row in report.rows}
    load_rand = by_placement["A_rand"][1]
    load_greedy = by_placement["A_G greedy"][1]
    assert load_rand >= load_greedy
    # Higher load -> longer makespan and more tax time.
    assert float(by_placement["A_rand"][2]) >= float(by_placement["A_G greedy"][2])
    assert float(by_placement["A_rand"][6]) >= float(by_placement["A_G greedy"][6])
