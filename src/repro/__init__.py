"""repro — reproduction of Gao, Rosenberg & Sitaraman (SPAA 1996),
"On Trading Task Reallocation for Thread Management in Partitionable
Multiprocessors".

The library simulates online processor allocation on hierarchically
decomposable (partitionable) multiprocessors and reproduces every bound in
the paper.  Quick tour::

    import numpy as np
    from repro import (TreeMachine, GreedyAlgorithm,
                       PeriodicReallocationAlgorithm, run)
    from repro.workloads import poisson_sequence

    machine = TreeMachine(64)
    sigma = poisson_sequence(64, 500, np.random.default_rng(0))
    result = run(machine, GreedyAlgorithm(machine), sigma)
    print(result.max_load, result.optimal_load, result.competitive_ratio)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.  The names below load on first use
(:mod:`repro._lazy`): ``import repro`` alone loads none of their modules.
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "adversary": ["AdversaryResult", "DeterministicAdversary", "sigma_r_sequence"],
    "core": [
        "AllocationAlgorithm",
        "BasicAlgorithm",
        "GreedyAlgorithm",
        "IncrementalReallocationAlgorithm",
        "ObliviousRandomAlgorithm",
        "RandomizedPeriodicAlgorithm",
        "OptimalReallocatingAlgorithm",
        "PeriodicReallocationAlgorithm",
        "Placement",
        "Reallocation",
        "RepackResult",
        "TwoChoiceAlgorithm",
        "basic_copy_bound",
        "deterministic_lower_factor",
        "deterministic_upper_factor",
        "greedy_upper_bound_factor",
        "optimal_load",
        "randomized_lower_factor",
        "randomized_upper_factor",
        "repack",
    ],
    "errors": ["ReproError"],
    "machines": [
        "Butterfly",
        "FatTree",
        "Hierarchy",
        "Hypercube",
        "LoadTracker",
        "Mesh2D",
        "PartitionableMachine",
        "TreeMachine",
    ],
    "sim": [
        "MigrationCostModel",
        "RunResult",
        "Simulator",
        "expected_max_load",
        "measure_slowdowns",
        "run",
        "run_many",
    ],
    "tasks": [
        "Arrival",
        "Departure",
        "SequenceBuilder",
        "Task",
        "TaskSequence",
        "figure1_sequence",
    ],
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    # machines
    "PartitionableMachine",
    "Hierarchy",
    "TreeMachine",
    "Hypercube",
    "FatTree",
    "Mesh2D",
    "Butterfly",
    "LoadTracker",
    # tasks
    "Task",
    "Arrival",
    "Departure",
    "TaskSequence",
    "SequenceBuilder",
    "figure1_sequence",
    # algorithms
    "AllocationAlgorithm",
    "Placement",
    "Reallocation",
    "GreedyAlgorithm",
    "BasicAlgorithm",
    "OptimalReallocatingAlgorithm",
    "PeriodicReallocationAlgorithm",
    "ObliviousRandomAlgorithm",
    "RandomizedPeriodicAlgorithm",
    "IncrementalReallocationAlgorithm",
    "TwoChoiceAlgorithm",
    "repack",
    "RepackResult",
    # bounds
    "optimal_load",
    "greedy_upper_bound_factor",
    "basic_copy_bound",
    "deterministic_upper_factor",
    "deterministic_lower_factor",
    "randomized_upper_factor",
    "randomized_lower_factor",
    # adversaries
    "DeterministicAdversary",
    "AdversaryResult",
    "sigma_r_sequence",
    # simulation
    "Simulator",
    "RunResult",
    "MigrationCostModel",
    "run",
    "run_many",
    "expected_max_load",
    "measure_slowdowns",
]
