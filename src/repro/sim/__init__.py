"""Discrete-event simulation: engine, metrics, costs, and the slowdown model.

* :class:`~repro.sim.engine.Simulator` — validated event-by-event driver.
* :class:`~repro.sim.engine.RunResult` — per-run outcome bundle.
* :class:`~repro.sim.metrics.MetricsCollector` — running peak, fairness,
  reallocation accounting.
* :class:`~repro.sim.history.RunHistory` — history folded from decisions.
* :class:`~repro.sim.realloc_cost.MigrationCostModel` — checkpoint-and-move
  pricing of reallocations.
* :func:`~repro.sim.slowdown.measure_slowdowns` — round-robin time-sharing
  slowdown measurement (the paper's thread-management motivation).
* :func:`~repro.sim.runner.run` / :func:`~repro.sim.runner.run_many` /
  :func:`~repro.sim.runner.expected_max_load` — one-call helpers.
"""

from repro.sim.archive import load_run, machine_from_descriptor, save_run
from repro.sim.audit import AuditReport, audit_run
from repro.sim.closedloop import (
    ClosedLoopResult,
    TaskOutcome,
    simulate_shared_closed_loop,
)
from repro.sim.engine import RunResult, Simulator
from repro.sim.history import RunHistory
from repro.sim.queueing import simulate_exclusive_queueing
from repro.sim.metrics import (
    LoadTimeSeries,
    MetricsCollector,
    ReallocationStats,
    jain_fairness,
)
from repro.sim.realloc_cost import MigrationCharge, MigrationCostModel
from repro.sim.runner import (
    AlgorithmFactory,
    SweepPoint,
    expected_max_load,
    run,
    run_many,
    run_traced,
)
from repro.sim.slowdown import (
    SlowdownReport,
    TaskSlowdown,
    measure_slowdowns,
    measure_slowdowns_dynamic,
)

__all__ = [
    "Simulator",
    "ClosedLoopResult",
    "TaskOutcome",
    "simulate_shared_closed_loop",
    "simulate_exclusive_queueing",
    "AuditReport",
    "audit_run",
    "save_run",
    "load_run",
    "machine_from_descriptor",
    "RunResult",
    "RunHistory",
    "MetricsCollector",
    "LoadTimeSeries",
    "ReallocationStats",
    "jain_fairness",
    "MigrationCostModel",
    "MigrationCharge",
    "run",
    "run_many",
    "run_traced",
    "expected_max_load",
    "AlgorithmFactory",
    "SweepPoint",
    "SlowdownReport",
    "TaskSlowdown",
    "measure_slowdowns",
    "measure_slowdowns_dynamic",
]
