"""The paper's allocation algorithms and bounds (Sections 3-5).

* :class:`~repro.core.optimal.OptimalReallocatingAlgorithm` — A_C (Thm 3.1).
* :func:`~repro.core.repack.repack` — procedure A_R (Lemma 1).
* :class:`~repro.core.greedy.GreedyAlgorithm` — A_G (Thm 4.1).
* :class:`~repro.core.basic.BasicAlgorithm` — A_B (Lemma 2).
* :class:`~repro.core.periodic.PeriodicReallocationAlgorithm` — A_M (Thm 4.2).
* :class:`~repro.core.randomized.ObliviousRandomAlgorithm` — Section 5.1.
* :class:`~repro.core.twochoice.TwoChoiceAlgorithm` — balanced-allocations
  extension (cited as [2]).
* :mod:`~repro.core.bounds` — every closed-form bound in the paper.
* :mod:`~repro.core.baselines` — comparison strawmen.

The names load on first use (:mod:`repro._lazy`), so building one
algorithm through :mod:`~repro.core.registry` imports only its module.
Only :func:`~repro.core.repack.repack` is bound at import: it shares its
module's name, and loading that module would otherwise replace the
lazily bound function with the module.
"""

from repro._lazy import attach
from repro.core.repack import RepackResult, repack

__getattr__, __dir__ = attach(__name__, {
    "base": ["AllocationAlgorithm", "Placement", "Reallocation"],
    "baselines": [
        "FirstFitLevelAlgorithm",
        "RoundRobinAlgorithm",
        "WorstFitAlgorithm",
    ],
    "basic": ["BasicAlgorithm"],
    "bounds": [
        "basic_copy_bound",
        "deterministic_lower_factor",
        "deterministic_upper_factor",
        "greedy_upper_bound_factor",
        "optimal_load",
        "randomized_lower_factor",
        "randomized_upper_factor",
        "sigma_r_lower_ell",
        "sigma_r_num_phases",
        "tightness_gap",
    ],
    "greedy": ["GreedyAlgorithm"],
    "hybrid": ["RandomizedPeriodicAlgorithm"],
    "incremental": ["IncrementalReallocationAlgorithm"],
    "optimal": ["OptimalReallocatingAlgorithm"],
    "periodic": ["PeriodicReallocationAlgorithm"],
    "randomized": ["ObliviousRandomAlgorithm"],
    "registry": [
        "ALGORITHM_SPECS",
        "AlgorithmSpec",
        "algorithm_names",
        "make_algorithm",
    ],
    "twochoice": ["TwoChoiceAlgorithm"],
})

__all__ = [
    "AllocationAlgorithm",
    "Placement",
    "Reallocation",
    "BasicAlgorithm",
    "GreedyAlgorithm",
    "OptimalReallocatingAlgorithm",
    "PeriodicReallocationAlgorithm",
    "ObliviousRandomAlgorithm",
    "RandomizedPeriodicAlgorithm",
    "IncrementalReallocationAlgorithm",
    "TwoChoiceAlgorithm",
    "RoundRobinAlgorithm",
    "WorstFitAlgorithm",
    "FirstFitLevelAlgorithm",
    "RepackResult",
    "ALGORITHM_SPECS",
    "AlgorithmSpec",
    "algorithm_names",
    "make_algorithm",
    "repack",
    "optimal_load",
    "greedy_upper_bound_factor",
    "basic_copy_bound",
    "deterministic_upper_factor",
    "deterministic_lower_factor",
    "randomized_upper_factor",
    "randomized_lower_factor",
    "sigma_r_lower_ell",
    "sigma_r_num_phases",
    "tightness_gap",
]
