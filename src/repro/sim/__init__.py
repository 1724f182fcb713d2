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

The names load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "archive": ["load_run", "machine_from_descriptor", "save_run"],
    "audit": ["AuditReport", "audit_run"],
    "closedloop": ["ClosedLoopResult", "TaskOutcome", "simulate_shared_closed_loop"],
    "engine": ["RunResult", "Simulator"],
    "history": ["RunHistory"],
    "queueing": ["simulate_exclusive_queueing"],
    "metrics": [
        "LoadTimeSeries",
        "MetricsCollector",
        "ReallocationStats",
        "jain_fairness",
    ],
    "realloc_cost": ["MigrationCharge", "MigrationCostModel"],
    "runner": [
        "AlgorithmFactory",
        "SweepPoint",
        "expected_max_load",
        "run",
        "run_many",
        "run_traced",
    ],
    "slowdown": [
        "SlowdownReport",
        "TaskSlowdown",
        "measure_slowdowns",
        "measure_slowdowns_dynamic",
    ],
})

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
