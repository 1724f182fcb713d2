"""Algorithm registry: construct any allocator by name, with metadata.

One table mapping algorithm names to factories plus the facts experiments
keep re-stating: paper section, guarantee formula, whether randomized,
whether it reallocates.  The CLI, docs, and sweep utilities all read this
so the set of algorithms is defined in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.core.base import AllocationAlgorithm
from repro.core.bounds import (
    basic_copy_bound,
    deterministic_upper_factor,
    greedy_upper_bound_factor,
)
from repro.errors import UnknownAlgorithmError
from repro.core.basic import BasicAlgorithm
from repro.core.baselines import (
    FirstFitLevelAlgorithm,
    RoundRobinAlgorithm,
    WorstFitAlgorithm,
)
from repro.core.greedy import GreedyAlgorithm
from repro.core.hybrid import RandomizedPeriodicAlgorithm
from repro.core.incremental import IncrementalReallocationAlgorithm
from repro.core.optimal import OptimalReallocatingAlgorithm
from repro.core.periodic import PeriodicReallocationAlgorithm
from repro.core.randomized import ObliviousRandomAlgorithm
from repro.core.twochoice import TwoChoiceAlgorithm
from repro.machines.base import PartitionableMachine

__all__ = [
    "AlgorithmSpec",
    "ALGORITHM_SPECS",
    "make_algorithm",
    "algorithm_names",
    "bounded_algorithm_names",
]


def _bound_optimal(num_pes: int, d: float, lstar: int, total_arrival: int) -> float:
    """Theorem 3.1: A_C achieves exactly L* (checked as an upper bound; the
    harness separately asserts ``max_load >= L*`` for every algorithm, so
    together the check is equality)."""
    return float(lstar)


def _bound_greedy(num_pes: int, d: float, lstar: int, total_arrival: int) -> float:
    """Theorem 4.1: ``L <= ceil((log N + 1)/2) * L*``."""
    return greedy_upper_bound_factor(num_pes) * float(max(lstar, 1))


def _bound_basic(num_pes: int, d: float, lstar: int, total_arrival: int) -> float:
    """Lemma 2: A_B's load never exceeds ``ceil(S/N)`` copies."""
    return float(basic_copy_bound(total_arrival, num_pes))


def _bound_periodic(num_pes: int, d: float, lstar: int, total_arrival: int) -> float:
    """Theorem 4.2: ``L <= min{d + 1, ceil((log N + 1)/2)} * L*``."""
    return deterministic_upper_factor(num_pes, d) * float(max(lstar, 1))


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata + factory for one allocation algorithm."""

    name: str
    paper_name: str
    section: str
    guarantee: str
    randomized: bool
    reallocates: bool
    factory: Callable[..., AllocationAlgorithm]
    #: Keyword arguments the factory understands beyond (machine,).
    options: tuple[str, ...] = ()
    #: Machine-checkable per-sequence load bound, or ``None`` when the
    #: paper's guarantee is expectation-only (randomized algorithms) or
    #: absent (baselines).  Called as ``load_bound(num_pes, d, optimal_load,
    #: total_arrival_size)`` and returns the largest ``max_load`` a single
    #: run may legally report — the differential harness asserts
    #: ``result.max_load <= load_bound(...)`` on every fuzzed sequence.
    load_bound: Optional[Callable[[int, float, int, int], float]] = None
    #: True when the guarantee is an equality (Theorem 3.1): the harness
    #: then additionally asserts ``max_load == load_bound(...)``.
    bound_exact: bool = False

    def build(
        self,
        machine: PartitionableMachine,
        *,
        d: float = 2.0,
        lazy: bool = False,
        moves: int = 4,
        threshold: int = 1,
        num_choices: int = 2,
        load_target: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> AllocationAlgorithm:
        """Construct the algorithm, supplying only the options it takes.
        The generator is made only for an algorithm that draws from one,
        so a deterministic algorithm's process never loads numpy.random."""
        kwargs: dict[str, Any] = {}
        if "d" in self.options:
            kwargs["d"] = d
        if "lazy" in self.options:
            kwargs["lazy"] = lazy
        if "moves" in self.options:
            kwargs["moves_per_realloc"] = moves
        if "threshold" in self.options:
            kwargs["threshold"] = threshold
        if "num_choices" in self.options:
            kwargs["num_choices"] = num_choices
        if "load_target" in self.options and load_target is not None:
            kwargs["load_target"] = load_target
        if "rng" in self.options:
            kwargs["rng"] = rng if rng is not None else np.random.default_rng(seed)
        return self.factory(machine, **kwargs)


ALGORITHM_SPECS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in [
        AlgorithmSpec(
            name="optimal",
            paper_name="A_C",
            section="3",
            guarantee="load = L* exactly",
            randomized=False,
            reallocates=True,
            factory=OptimalReallocatingAlgorithm,
            load_bound=_bound_optimal,
            bound_exact=True,
        ),
        AlgorithmSpec(
            name="greedy",
            paper_name="A_G",
            section="4.1",
            guarantee="<= ceil((log N + 1)/2) * L*",
            randomized=False,
            reallocates=False,
            factory=GreedyAlgorithm,
            load_bound=_bound_greedy,
        ),
        AlgorithmSpec(
            name="basic",
            paper_name="A_B",
            section="4.1",
            guarantee="<= ceil(S/N) copies",
            randomized=False,
            reallocates=False,
            factory=BasicAlgorithm,
            load_bound=_bound_basic,
        ),
        AlgorithmSpec(
            name="periodic",
            paper_name="A_M",
            section="4.1",
            guarantee="<= min{d+1, ceil((log N + 1)/2)} * L*",
            randomized=False,
            reallocates=True,
            factory=PeriodicReallocationAlgorithm,
            options=("d", "lazy"),
            load_bound=_bound_periodic,
        ),
        AlgorithmSpec(
            name="random",
            paper_name="oblivious randomized",
            section="5.1",
            guarantee="E <= (3 log N / log log N + 1) * L*",
            randomized=True,
            reallocates=False,
            factory=ObliviousRandomAlgorithm,
            options=("rng",),
        ),
        AlgorithmSpec(
            name="twochoice",
            paper_name="two-choice A_2C (ref [2])",
            section="extension",
            guarantee="-",
            randomized=True,
            reallocates=False,
            factory=TwoChoiceAlgorithm,
            options=("rng", "num_choices", "load_target"),
        ),
        AlgorithmSpec(
            name="hybrid",
            paper_name="randomized + periodic (open problem)",
            section="5 (future work)",
            guarantee="-",
            randomized=True,
            reallocates=True,
            factory=RandomizedPeriodicAlgorithm,
            options=("d", "rng"),
        ),
        AlgorithmSpec(
            name="incremental",
            paper_name="budget-limited reallocation",
            section="extension",
            guarantee="<= k migrations per repack",
            randomized=False,
            reallocates=True,
            factory=IncrementalReallocationAlgorithm,
            options=("d", "moves"),
        ),
        AlgorithmSpec(
            name="roundrobin",
            paper_name="round-robin baseline",
            section="baseline",
            guarantee="-",
            randomized=False,
            reallocates=False,
            factory=RoundRobinAlgorithm,
        ),
        AlgorithmSpec(
            name="worstfit",
            paper_name="worst-fit-by-average baseline",
            section="baseline",
            guarantee="-",
            randomized=False,
            reallocates=False,
            factory=WorstFitAlgorithm,
        ),
        AlgorithmSpec(
            name="firstfit",
            paper_name="threshold first-fit baseline",
            section="baseline",
            guarantee="-",
            randomized=False,
            reallocates=False,
            factory=FirstFitLevelAlgorithm,
            options=("threshold",),
        ),
    ]
}


def algorithm_names() -> list[str]:
    """All registered names, sorted."""
    return sorted(ALGORITHM_SPECS)


def bounded_algorithm_names() -> list[str]:
    """Names of algorithms carrying a machine-checkable per-run load bound."""
    return sorted(n for n, s in ALGORITHM_SPECS.items() if s.load_bound is not None)


def make_algorithm(
    name: str, machine: PartitionableMachine, **options: Any
) -> AllocationAlgorithm:
    """Build an algorithm by registry name.

    ``options`` may include ``d``, ``lazy``, ``moves``, ``threshold``,
    ``num_choices``, ``load_target``, ``rng`` or ``seed``; options the
    algorithm doesn't take are ignored (so one option namespace can drive
    every algorithm, as the CLI does).
    """
    if name not in ALGORITHM_SPECS:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; known: {', '.join(algorithm_names())}"
        )
    return ALGORITHM_SPECS[name].build(machine, **options)
