"""Experiment drivers — one per paper artifact (see DESIGN.md section 4).

Each ``experiment_*`` function builds its workloads, runs the relevant
algorithms, and returns an :class:`ExperimentReport` with the same rows the
corresponding bench prints.  Benches, examples, the CLI, and EXPERIMENTS.md
all feed from these drivers so the numbers can never drift apart.

The registry :data:`EXPERIMENTS` maps experiment ids (``"e1"`` ... ``"a3"``)
to drivers for the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.adversary.deterministic import DeterministicAdversary
from repro.adversary.randomized import sigma_r_max_phases, sigma_r_sequence
from repro.core.baselines import RoundRobinAlgorithm
from repro.core.basic import BasicAlgorithm
from repro.core.bounds import (
    deterministic_lower_factor,
    deterministic_upper_factor,
    greedy_upper_bound_factor,
    randomized_lower_factor,
    randomized_upper_factor,
    sigma_r_lower_ell,
)
from repro.core.greedy import GreedyAlgorithm
from repro.core.hybrid import RandomizedPeriodicAlgorithm
from repro.core.incremental import IncrementalReallocationAlgorithm
from repro.core.optimal import OptimalReallocatingAlgorithm
from repro.core.periodic import PeriodicReallocationAlgorithm
from repro.core.randomized import ObliviousRandomAlgorithm
from repro.core.twochoice import TwoChoiceAlgorithm
from repro.machines.butterfly import Butterfly
from repro.machines.fattree import FatTree
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import Mesh2D
from repro.machines.tree import TreeMachine
from repro.analysis.stats import summarize
from repro.analysis.tables import format_kv, format_table
from repro.sim.realloc_cost import MigrationCostModel
from repro.sim.runner import expected_max_load, run
from repro.tasks.builder import figure1_sequence
from repro.workloads.generators import (
    burst_sequence,
    churn_sequence,
    poisson_sequence,
)
from repro.workloads.distributions import GeometricSizes, UniformLogSizes

__all__ = [
    "ExperimentReport",
    "run_experiments",
    "experiment_figure1",
    "experiment_optimal",
    "experiment_greedy_scaling",
    "experiment_tradeoff",
    "experiment_adversary",
    "experiment_randomized",
    "experiment_sigma_r",
    "experiment_slowdown",
    "experiment_churn_tradeoff",
    "experiment_copies_ablation",
    "experiment_twochoice",
    "experiment_topology",
    "experiment_hybrid",
    "experiment_incremental",
    "experiment_operating_models",
    "experiment_thread_overhead",
    "experiment_subcube_recognition",
    "experiment_workload_sensitivity",
    "EXPERIMENTS",
]


@dataclass
class ExperimentReport:
    """Tabular outcome of one experiment, ready to print or assert on."""

    experiment_id: str
    title: str
    params: dict[str, Any]
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [
            format_table(self.headers, self.rows, title=f"[{self.experiment_id.upper()}] {self.title}"),
        ]
        if self.params:
            parts.append(format_kv(self.params, title="parameters"))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

    def column(self, header: str) -> list[Any]:
        """Extract one column by header name (for assertions in benches)."""
        idx = list(self.headers).index(header)
        return [row[idx] for row in self.rows]


# ---------------------------------------------------------------------------
# E1 — Figure 1 worked example
# ---------------------------------------------------------------------------


def experiment_figure1() -> ExperimentReport:
    """Reproduce the Section 2 / Figure 1 example exactly.

    Expected: greedy A_G reaches load 2; a 1-reallocation algorithm (lazy
    trigger, as in the paper's narrative) reaches load 1; the optimal L* is 1.
    """
    from repro.machines.visualize import render_allocation
    from repro.sim.engine import Simulator
    from repro.types import TaskId

    sequence = figure1_sequence()
    n = 4
    rows: list[Sequence[Any]] = []
    machine = TreeMachine(n)
    algorithms = [
        GreedyAlgorithm(machine),
        PeriodicReallocationAlgorithm(machine, 1, lazy=True),
        PeriodicReallocationAlgorithm(machine, 1, lazy=False),
        OptimalReallocatingAlgorithm(machine),
    ]
    for algo in algorithms:
        result = run(machine, algo, sequence)
        rows.append(
            [
                algo.name,
                result.max_load,
                result.optimal_load,
                result.competitive_ratio,
                result.metrics.realloc.num_reallocations,
            ]
        )
    # Draw the greedy end state the way the paper's figure does.
    draw_machine = TreeMachine(n)
    sim = Simulator(draw_machine, GreedyAlgorithm(draw_machine))
    for event in sequence:
        sim.step(event)
    labels = {TaskId(i): f"t{i + 1}" for i in range(5)}
    drawing = render_allocation(draw_machine.hierarchy, sim.placements, labels=labels)
    return ExperimentReport(
        experiment_id="e1",
        title="Figure 1: sigma* on a 4-PE tree (paper: A_G -> 2, 1-realloc -> 1)",
        params={"N": n, "sequence": "t1..t4 size 1 arrive; t2,t4 depart; t5 size 2"},
        headers=["algorithm", "max_load", "L*", "ratio", "reallocs"],
        rows=rows,
        notes=[
            "The paper's 1-reallocation narrative corresponds to the lazy "
            "trigger; the eager literal A_M reaches 2, still within its "
            "Theorem 4.2 bound of 2.",
            "greedy end state (the figure's final panel):\n" + drawing,
        ],
    )


# ---------------------------------------------------------------------------
# E2 — Theorem 3.1: A_C is exactly optimal
# ---------------------------------------------------------------------------


def experiment_optimal(
    machine_sizes: Sequence[int] = (4, 16, 64, 256),
    *,
    num_tasks: int = 300,
    seeds: Sequence[int] = (0, 1, 2),
) -> ExperimentReport:
    """Check ``L_{A_C}(sigma) == L*`` on stochastic sequences (Theorem 3.1)."""
    rows: list[Sequence[Any]] = []
    for n in machine_sizes:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            sigma = poisson_sequence(n, num_tasks, rng, utilization=1.2)
            machine = TreeMachine(n)
            result = run(machine, OptimalReallocatingAlgorithm(machine), sigma)
            rows.append(
                [
                    n,
                    seed,
                    result.optimal_load,
                    result.max_load,
                    "yes" if result.max_load == result.optimal_load else "NO",
                ]
            )
    return ExperimentReport(
        experiment_id="e2",
        title="Theorem 3.1: constantly reallocating A_C achieves exactly L*",
        params={"num_tasks": num_tasks, "workload": "poisson, utilization 1.2"},
        headers=["N", "seed", "L*", "A_C load", "optimal?"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# E3 — Theorem 4.1: greedy upper bound scaling
# ---------------------------------------------------------------------------


def experiment_greedy_scaling(
    machine_sizes: Sequence[int] = (4, 16, 64, 256, 1024),
    *,
    seed: int = 7,
    num_tasks: int = 400,
) -> ExperimentReport:
    """Measure A_G's ratio on stochastic and adversarial inputs vs Thm 4.1."""
    rows: list[Sequence[Any]] = []
    for n in machine_sizes:
        bound = greedy_upper_bound_factor(n)
        machine = TreeMachine(n)
        # Stochastic: churn at volume N so L* stays small while the machine
        # fragments; this is where greedy's ratio is visible.
        sigma = churn_sequence(n, num_tasks, np.random.default_rng(seed))
        stochastic = run(machine, GreedyAlgorithm(machine), sigma)
        # Adversarial: the Theorem 4.3 construction with d = inf, which also
        # lower-bounds what any no-reallocation algorithm can do.
        adversary = DeterministicAdversary(TreeMachine(n), float("inf"))
        adv_result = adversary.run(GreedyAlgorithm(adversary.machine))
        rows.append(
            [
                n,
                stochastic.competitive_ratio,
                adv_result.ratio,
                bound,
                "yes" if adv_result.ratio <= bound and stochastic.competitive_ratio <= bound else "NO",
            ]
        )
    return ExperimentReport(
        experiment_id="e3",
        title="Theorem 4.1: greedy A_G ratio vs ceil((log N + 1)/2)",
        params={"seed": seed, "num_tasks": num_tasks},
        headers=["N", "churn ratio", "adversarial ratio", "bound", "within?"],
        rows=rows,
        notes=[
            "The adversarial column should track the bound closely (the "
            "construction is tight within a factor 2); the churn column "
            "shows typical-case slack."
        ],
    )


# ---------------------------------------------------------------------------
# E4 — Theorem 4.2: the headline trade-off (load vs d, plus migration cost)
# ---------------------------------------------------------------------------


def experiment_tradeoff(
    num_pes: int = 256,
    *,
    d_values: Sequence[float] | None = None,
    num_events: int = 4000,
    seed: int = 11,
    lazy: bool = False,
) -> ExperimentReport:
    """Sweep d on a churn workload: measured load ratio and migration cost.

    The paper's central message: the load bound rises linearly with d until
    it crosses the greedy plateau; the reallocation cost falls roughly as
    1/d.  Both sides are measured here.
    """
    g = greedy_upper_bound_factor(num_pes)
    if d_values is None:
        d_values = [0, 1, 2, 3, 4, g - 1, g, g + 2, float("inf")]
        d_values = sorted(set(v for v in d_values if (isinstance(v, float) and math.isinf(v)) or v >= 0))
    cost_model = MigrationCostModel()
    sigma = churn_sequence(num_pes, num_events, np.random.default_rng(seed))
    rows: list[Sequence[Any]] = []
    for d in d_values:
        machine = TreeMachine(num_pes)
        algo = PeriodicReallocationAlgorithm(machine, d, lazy=lazy)
        result = run(machine, algo, sigma, cost_model)
        realloc = result.metrics.realloc
        # Worst case at this d: the Theorem 4.3 adversary against A_M(d).
        adv_machine = TreeMachine(num_pes)
        adversary = DeterministicAdversary(adv_machine, d)
        worst = adversary.run(
            PeriodicReallocationAlgorithm(adv_machine, d, lazy=lazy)
        )
        rows.append(
            [
                "inf" if math.isinf(d) else d,
                result.max_load,
                result.optimal_load,
                result.competitive_ratio,
                worst.ratio,
                deterministic_lower_factor(
                    num_pes, d if not math.isinf(d) else float(machine.log_num_pes)
                ),
                deterministic_upper_factor(num_pes, d),
                realloc.num_reallocations,
                realloc.num_migrations,
                realloc.traffic_pe_hops,
            ]
        )
    return ExperimentReport(
        experiment_id="e4",
        title="Theorem 4.2 trade-off: load vs reallocation parameter d",
        params={
            "N": num_pes,
            "num_events": num_events,
            "seed": seed,
            "workload": "churn at volume ~N (typical) + Thm 4.3 adversary (worst)",
            "greedy plateau g": g,
            "trigger": "lazy" if lazy else "eager",
        },
        headers=[
            "d",
            "max_load",
            "L*",
            "churn ratio",
            "worst ratio",
            "lower",
            "bound",
            "reallocs",
            "migrations",
            "traffic(pe-hops)",
        ],
        rows=rows,
        notes=[
            "Both ratios must stay under `bound`; the worst ratio rises "
            "~d/2 until the greedy plateau g, while reallocation traffic "
            "falls with d — the paper's trade-off in one table."
        ],
    )


# ---------------------------------------------------------------------------
# E5 — Theorem 4.3: deterministic lower bound via the adaptive adversary
# ---------------------------------------------------------------------------


def experiment_adversary(
    num_pes: int = 256,
    *,
    d_values: Sequence[float] | None = None,
) -> ExperimentReport:
    """Run the Theorem 4.3 adversary against A_M for a sweep of d."""
    logn = TreeMachine(num_pes).log_num_pes
    if d_values is None:
        d_values = sorted({1.0, 2.0, 3.0, 4.0, 6.0, 8.0, float(logn), float("inf")})
    rows: list[Sequence[Any]] = []
    for d in d_values:
        machine = TreeMachine(num_pes)
        adversary = DeterministicAdversary(machine, d)
        algo = PeriodicReallocationAlgorithm(machine, d)
        outcome = adversary.run(algo)
        lower = deterministic_lower_factor(
            num_pes, d if not math.isinf(d) else float(logn)
        )
        upper = deterministic_upper_factor(num_pes, d)
        rows.append(
            [
                "inf" if math.isinf(d) else d,
                outcome.max_load,
                outcome.optimal_load,
                lower,
                upper,
                "yes" if lower <= outcome.max_load <= upper * max(1, outcome.optimal_load) else "NO",
            ]
        )
    return ExperimentReport(
        experiment_id="e5",
        title="Theorem 4.3: adversary-forced load vs lower/upper factors",
        params={"N": num_pes, "log N": logn},
        headers=["d", "forced load", "L*", "lower bound", "upper bound", "sandwiched?"],
        rows=rows,
        notes=[
            "L* stays 1 by construction; the forced load must sit between "
            "ceil((min{d,log N}+1)/2) and min{d+1, ceil((log N+1)/2)}."
        ],
    )


# ---------------------------------------------------------------------------
# E6 — Theorem 5.1: randomized upper bound
# ---------------------------------------------------------------------------


def experiment_randomized(
    machine_sizes: Sequence[int] = (16, 64, 256, 1024),
    *,
    repetitions: int = 30,
    seed: int = 23,
) -> ExperimentReport:
    """E[max load] of oblivious random placement vs (3 log N / log log N + 1).

    Workload: N unit tasks, no departures — the balls-into-bins core of the
    Hoeffding analysis, with L* = 1 so the ratio equals the expected load.
    """
    rows: list[Sequence[Any]] = []
    seed_root = np.random.SeedSequence(seed)
    for n, child in zip(machine_sizes, seed_root.spawn(len(machine_sizes))):
        machine = TreeMachine(n)
        sigma = burst_sequence(
            n, n, np.random.default_rng(child.spawn(1)[0]), sizes=UniformLogSizes(1)
        )
        streams = child.spawn(repetitions)
        it = iter(streams)
        mean, peaks = expected_max_load(
            machine,
            lambda m: ObliviousRandomAlgorithm(m, np.random.default_rng(next(it))),
            sigma,
            repetitions,
        )
        stats = summarize(peaks, np.random.default_rng(child.spawn(2)[-1]))
        bound = randomized_upper_factor(n)
        rows.append(
            [
                n,
                stats.mean,
                stats.ci_low,
                stats.ci_high,
                bound,
                "yes" if stats.mean <= bound else "NO",
            ]
        )
    return ExperimentReport(
        experiment_id="e6",
        title="Theorem 5.1: E[max load] of oblivious random placement (L*=1)",
        params={"repetitions": repetitions, "seed": seed, "workload": "N unit tasks"},
        headers=["N", "E[max load]", "ci95 low", "ci95 high", "bound", "within?"],
        rows=rows,
        notes=[
            "Expected load grows ~ log N / log log N (balls into bins), "
            "well under the 3 log N / log log N + 1 bound."
        ],
    )


# ---------------------------------------------------------------------------
# E7 — Theorem 5.2: randomized lower bound on sigma_r
# ---------------------------------------------------------------------------


def experiment_sigma_r(
    machine_sizes: Sequence[int] = (16, 64, 256, 1024),
    *,
    repetitions: int = 20,
    seed: int = 29,
) -> ExperimentReport:
    """E[max load] of no-reallocation algorithms on sigma_r vs Theorem 5.2."""
    rows: list[Sequence[Any]] = []
    seed_root = np.random.SeedSequence(seed)
    for n, child in zip(machine_sizes, seed_root.spawn(len(machine_sizes))):
        streams = child.spawn(2 * repetitions + 1)
        greedy_peaks = []
        random_peaks = []
        lstars = []
        phases = sigma_r_max_phases(n)
        for r in range(repetitions):
            sigma = sigma_r_sequence(
                n, np.random.default_rng(streams[2 * r]), num_phases=phases
            )
            lstars.append(max(1, sigma.optimal_load(n)))
            machine = TreeMachine(n)
            greedy_peaks.append(run(machine, GreedyAlgorithm(machine), sigma).max_load)
            machine = TreeMachine(n)
            rand_algo = ObliviousRandomAlgorithm(
                machine, np.random.default_rng(streams[2 * r + 1])
            )
            random_peaks.append(run(machine, rand_algo, sigma).max_load)
        ratio_greedy = float(np.mean([p / l for p, l in zip(greedy_peaks, lstars)]))
        ratio_random = float(np.mean([p / l for p, l in zip(random_peaks, lstars)]))
        rows.append(
            [
                n,
                ratio_greedy,
                ratio_random,
                randomized_lower_factor(n),
                sigma_r_lower_ell(n),
            ]
        )
    return ExperimentReport(
        experiment_id="e7",
        title="Theorem 5.2: E[load]/L* on the random sequence sigma_r",
        params={"repetitions": repetitions, "seed": seed},
        headers=[
            "N",
            "A_G E[ratio]",
            "A_rand E[ratio]",
            "thm bound (1/7)(...)^(1/3)",
            "lemma7 ell",
        ],
        rows=rows,
        notes=[
            "The theorem's constants are tiny (the bound is < 1 at these N); "
            "the reproduced shape is that measured ratios exceed the bound "
            "and grow with N, as the asymptotics predict.",
            "sigma_r runs with the maximum feasible phase count (every phase "
            "still has >= 1 arrival) rather than the asymptotic "
            "log N/(2 log log N), which degenerates to 1 at these N.",
        ],
    )


# ---------------------------------------------------------------------------
# E8 — thread-management motivation: slowdown vs max load
# ---------------------------------------------------------------------------


def experiment_slowdown(
    num_pes: int = 64,
    *,
    num_tasks: int = 200,
    seed: int = 31,
) -> ExperimentReport:
    """Measure round-robin slowdown vs max submachine load (Section 2 claim)."""
    machine = TreeMachine(num_pes)
    rng = np.random.default_rng(seed)
    sigma = poisson_sequence(
        num_pes, num_tasks, rng, utilization=1.5, sizes=GeometricSizes(num_pes // 2)
    )
    rows: list[Sequence[Any]] = []
    from repro.sim.engine import Simulator
    from repro.sim.slowdown import measure_slowdowns_dynamic

    for make in (GreedyAlgorithm, RoundRobinAlgorithm):
        machine = TreeMachine(num_pes)
        sim = Simulator(machine, make(machine))
        for event in sigma:
            sim.step(event)
        report = measure_slowdowns_dynamic(machine, sigma, sim.placement_intervals())
        rows.append(
            [
                sim.algorithm.name,
                sim.metrics.max_load,
                report.worst_max_load(),
                report.worst_slowdown,
                report.mean_slowdown,
            ]
        )
    return ExperimentReport(
        experiment_id="e8",
        title="Section 2: worst slowdown tracks max PE load under round-robin",
        params={"N": num_pes, "num_tasks": num_tasks, "seed": seed},
        headers=[
            "algorithm",
            "max_load",
            "worst task's max load",
            "worst slowdown",
            "mean slowdown",
        ],
        rows=rows,
        notes=[
            "Worst slowdown equals (up to interval effects) the worst max "
            "load a task ever shares — the paper's proportionality claim."
        ],
    )


# ---------------------------------------------------------------------------
# A1 — ablation: lazy vs eager reallocation trigger
# ---------------------------------------------------------------------------


def experiment_copies_ablation(
    num_pes: int = 256,
    *,
    num_events: int = 4000,
    seed: int = 37,
    d_values: Sequence[float] = (1, 2, 3, 4),
) -> ExperimentReport:
    """Lazy vs eager A_M: same bound, fewer repacks for lazy."""
    sigma = churn_sequence(num_pes, num_events, np.random.default_rng(seed))
    cost_model = MigrationCostModel()
    rows: list[Sequence[Any]] = []
    for d in d_values:
        per_mode = {}
        for lazy in (False, True):
            machine = TreeMachine(num_pes)
            algo = PeriodicReallocationAlgorithm(machine, d, lazy=lazy)
            result = run(machine, algo, sigma, cost_model)
            per_mode[lazy] = result
        eager, lazy_r = per_mode[False], per_mode[True]
        rows.append(
            [
                d,
                eager.max_load,
                lazy_r.max_load,
                eager.metrics.realloc.num_reallocations,
                lazy_r.metrics.realloc.num_reallocations,
                eager.metrics.realloc.traffic_pe_hops,
                lazy_r.metrics.realloc.traffic_pe_hops,
            ]
        )
    return ExperimentReport(
        experiment_id="a1",
        title="Ablation: eager vs lazy reallocation trigger in A_M",
        params={"N": num_pes, "num_events": num_events, "seed": seed},
        headers=[
            "d",
            "load eager",
            "load lazy",
            "reallocs eager",
            "reallocs lazy",
            "traffic eager",
            "traffic lazy",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# A2 — ablation: two-choice vs oblivious randomized
# ---------------------------------------------------------------------------


def experiment_twochoice(
    machine_sizes: Sequence[int] = (64, 256, 1024),
    *,
    repetitions: int = 20,
    seed: int = 41,
) -> ExperimentReport:
    """Balanced-allocations effect in the submachine setting (paper ref [2])."""
    rows: list[Sequence[Any]] = []
    seed_root = np.random.SeedSequence(seed)
    for n, child in zip(machine_sizes, seed_root.spawn(len(machine_sizes))):
        sigma = burst_sequence(
            n, n, np.random.default_rng(child.spawn(1)[0]), sizes=UniformLogSizes(1)
        )
        means = {}
        stream_sets = {
            "oblivious": iter(child.spawn(2 * repetitions)[:repetitions]),
            "twochoice": iter(child.spawn(2 * repetitions)[repetitions:]),
        }
        for label, streams in stream_sets.items():
            def factory(m, label=label, streams=streams):
                rng = np.random.default_rng(next(streams))
                if label == "oblivious":
                    return ObliviousRandomAlgorithm(m, rng)
                return TwoChoiceAlgorithm(m, rng)
            mean, _peaks = expected_max_load(TreeMachine(n), factory, sigma, repetitions)
            means[label] = mean
        rows.append(
            [
                n,
                means["oblivious"],
                means["twochoice"],
                means["oblivious"] / means["twochoice"],
                float(np.log2(n)),
            ]
        )
    return ExperimentReport(
        experiment_id="a2",
        title="Ablation: two random choices vs one (N unit tasks, L*=1)",
        params={"repetitions": repetitions, "seed": seed},
        headers=["N", "E[load] 1-choice", "E[load] 2-choice", "gain", "log2 N"],
        rows=rows,
        notes=["The 2-choice gain should widen with N (Azar et al. [2])."],
    )


# ---------------------------------------------------------------------------
# A3 — ablation: reallocation traffic across topologies
# ---------------------------------------------------------------------------


def experiment_topology(
    num_pes: int = 256,
    *,
    d: float = 2,
    num_events: int = 3000,
    seed: int = 43,
) -> ExperimentReport:
    """Same algorithm and workload, different physical topologies."""
    sigma = churn_sequence(num_pes, num_events, np.random.default_rng(seed))
    cost_model = MigrationCostModel()
    machines = [
        TreeMachine(num_pes),
        FatTree(num_pes, fatness=2.0),
        Hypercube(num_pes, layout="binary"),
        Hypercube(num_pes, layout="gray"),
        Butterfly(num_pes),
        Mesh2D(num_pes),
    ]
    rows: list[Sequence[Any]] = []
    for machine in machines:
        algo = PeriodicReallocationAlgorithm(machine, d)
        result = run(machine, algo, sigma, cost_model)
        realloc = result.metrics.realloc
        avg_dist = (
            realloc.traffic_pe_hops / realloc.migrated_pe_volume
            if realloc.migrated_pe_volume
            else 0.0
        )
        rows.append(
            [
                machine.topology_name,
                result.max_load,
                realloc.num_migrations,
                realloc.traffic_pe_hops,
                avg_dist,
            ]
        )
    return ExperimentReport(
        experiment_id="a3",
        title="Ablation: migration traffic by topology (A_M, same workload)",
        params={"N": num_pes, "d": d, "num_events": num_events, "seed": seed},
        headers=[
            "topology",
            "max_load",
            "migrations",
            "traffic(pe-hops)",
            "avg hop distance",
        ],
        rows=rows,
        notes=[
            "Loads are identical by construction (allocation logic is "
            "topology-independent); only the migration cost differs."
        ],
    )



# ---------------------------------------------------------------------------
# A4 — the paper's open problem: randomization + reallocation
# ---------------------------------------------------------------------------


def experiment_hybrid(
    num_pes: int = 256,
    *,
    d_values: Sequence[float] = (0.25, 0.5, 1, 2, 4),
    num_events: int = 3000,
    repetitions: int = 10,
    seed: int = 47,
) -> ExperimentReport:
    """Randomized placement + periodic repacking vs its two parents.

    Section 5 leaves "utilizing reallocation together with randomization"
    as future study; this measures the natural candidate A_randM against
    deterministic A_M (same d) and never-reallocating random placement.
    """
    root = np.random.SeedSequence(seed)
    sigma = churn_sequence(num_pes, num_events, np.random.default_rng(root.spawn(1)[0]))
    rows: list[Sequence[Any]] = []
    for d in d_values:
        machine = TreeMachine(num_pes)
        det = run(machine, PeriodicReallocationAlgorithm(machine, d), sigma)
        hybrid_peaks = []
        oblivious_peaks = []
        streams = root.spawn(2 * repetitions + 1)[1:]
        for r in range(repetitions):
            m1 = TreeMachine(num_pes)
            hybrid_peaks.append(
                run(
                    m1,
                    RandomizedPeriodicAlgorithm(
                        m1, d, np.random.default_rng(streams[2 * r])
                    ),
                    sigma,
                ).max_load
            )
            m2 = TreeMachine(num_pes)
            oblivious_peaks.append(
                run(
                    m2,
                    ObliviousRandomAlgorithm(
                        m2, np.random.default_rng(streams[2 * r + 1])
                    ),
                    sigma,
                ).max_load
            )
        rows.append(
            [
                d,
                det.max_load,
                float(np.mean(hybrid_peaks)),
                float(np.mean(oblivious_peaks)),
                det.optimal_load,
            ]
        )
    return ExperimentReport(
        experiment_id="a4",
        title="Open problem: randomized placement + periodic repacking",
        params={
            "N": num_pes,
            "num_events": num_events,
            "repetitions": repetitions,
            "seed": seed,
        },
        headers=["d", "A_M load", "E[A_randM load]", "E[A_rand load]", "L*"],
        rows=rows,
        notes=[
            "Periodic repacking tames the randomized algorithm: its "
            "expected load drops from the no-realloc level toward the "
            "deterministic A_M level as d shrinks."
        ],
    )


# ---------------------------------------------------------------------------
# A5 — ablation: budget-limited incremental reallocation
# ---------------------------------------------------------------------------


def experiment_incremental(
    num_pes: int = 256,
    *,
    d: float = 1,
    budgets: Sequence[int] = (0, 1, 2, 4, 8, 16, 64),
    seed: int = 53,
) -> ExperimentReport:
    """How much of a full repack do the first k migrations buy?

    Drives the Theorem 4.3 fragmentation storm (run at full strength,
    d_adv = inf) against :class:`IncrementalReallocationAlgorithm` with a
    per-repack migration budget k.  k = 0 degenerates to greedy and is
    forced to ceil((log N + 1)/2); a growing k buys the load down toward
    the packing optimum at a measured migration price.  Full A_R repacking
    (A_M at the same d) is the reference row.
    """
    rows: list[Sequence[Any]] = []
    for k in budgets:
        machine = TreeMachine(num_pes)
        adversary = DeterministicAdversary(machine, float("inf"))
        outcome = adversary.run(IncrementalReallocationAlgorithm(machine, d, k))
        # Replay the recorded storm to meter migrations with the cost model.
        replay_machine = TreeMachine(num_pes)
        replay = run(
            replay_machine,
            IncrementalReallocationAlgorithm(replay_machine, d, k),
            outcome.sequence,
            MigrationCostModel(),
        )
        rows.append(
            [
                k,
                outcome.max_load,
                outcome.optimal_load,
                replay.metrics.realloc.num_migrations,
                replay.metrics.realloc.traffic_pe_hops,
            ]
        )
    ref_machine = TreeMachine(num_pes)
    ref_adversary = DeterministicAdversary(ref_machine, float("inf"))
    # A_M with the same d reallocates fully; the d_adv = inf storm is run
    # against it for the same comparison (its Theorem 4.2 bound still caps
    # the result because the storm keeps L* = 1).
    ref_outcome = ref_adversary.run(PeriodicReallocationAlgorithm(ref_machine, d))
    rows.append(["full A_M", ref_outcome.max_load, ref_outcome.optimal_load, "-", "-"])
    return ExperimentReport(
        experiment_id="a5",
        title="Ablation: migration budget per reallocation under the Thm 4.3 storm",
        params={"N": num_pes, "d": d, "adversary": "d_adv = inf (full storm)", "seed": seed},
        headers=["budget k", "forced load", "L*", "migrations", "traffic(pe-hops)"],
        rows=rows,
        notes=[
            "k = 0 is greedy and suffers the full ceil((log N + 1)/2) "
            "factor; a few targeted moves per repack recover most of the "
            "full-repack benefit at a fraction of the traffic."
        ],
    )



# ---------------------------------------------------------------------------
# A6 — operating-model comparison: shared service vs exclusive queueing
# ---------------------------------------------------------------------------


def experiment_operating_models(
    num_pes: int = 64,
    *,
    num_tasks: int = 400,
    seed: int = 59,
) -> ExperimentReport:
    """The paper's model vs the related work's, on the same workload.

    The scheduling literature the paper contrasts itself with ([13, 14,
    18]) delays tasks in a queue and grants exclusive PEs; the paper's
    model starts everyone immediately and time-shares.  Work-driven
    simulation of both on one Poisson/exponential workload: shared service
    caps worst slowdown at the max thread load, queueing caps the load at
    1 but lets short jobs starve behind long ones.
    """
    from repro.sim.closedloop import simulate_shared_closed_loop
    from repro.sim.queueing import simulate_exclusive_queueing
    from repro.tasks.task import Task
    from repro.types import TaskId

    rng = np.random.default_rng(seed)
    tasks = []
    clock = 0.0
    for i in range(num_tasks):
        clock += float(rng.exponential(0.25))
        size = int(1 << rng.integers(0, TreeMachine(num_pes).log_num_pes))
        tasks.append(Task(TaskId(i), size, clock, work=float(rng.exponential(1.5))))

    rows: list[Sequence[Any]] = []
    machine = TreeMachine(num_pes)
    shared = simulate_shared_closed_loop(machine, GreedyAlgorithm(machine), tasks)
    rows.append(
        [
            "shared (paper, A_G)",
            f"{shared.mean_response:.2f}",
            f"{shared.percentile_response(95):.2f}",
            f"{shared.worst_slowdown:.1f}",
            shared.max_load,
            f"{shared.utilization:.3f}",
        ]
    )
    for policy in ("fcfs", "backfill"):
        result = simulate_exclusive_queueing(
            TreeMachine(num_pes), tasks, policy=policy
        )
        rows.append(
            [
                f"exclusive queue ({policy})",
                f"{result.mean_response:.2f}",
                f"{result.percentile_response(95):.2f}",
                f"{result.worst_slowdown:.1f}",
                result.max_load,
                f"{result.utilization:.3f}",
            ]
        )
    return ExperimentReport(
        experiment_id="a6",
        title="Operating models: time-shared service vs exclusive queueing",
        params={"N": num_pes, "num_tasks": num_tasks, "seed": seed},
        headers=[
            "model",
            "mean response",
            "p95 response",
            "worst slowdown",
            "max load",
            "utilization",
        ],
        rows=rows,
        notes=[
            "Shared service bounds every user's slowdown by the max thread "
            "load (the quantity the paper's algorithms control); exclusive "
            "queueing keeps the load at 1 but a short job stuck behind a "
            "long one can see slowdowns orders of magnitude larger — the "
            "paper's case for real-time service via sharing."
        ],
    )



# ---------------------------------------------------------------------------
# A7 — thread-management overhead: allocation quality -> scheduler cost
# ---------------------------------------------------------------------------


def experiment_thread_overhead(
    num_pes: int = 64,
    *,
    num_tasks: int = 96,
    context_switch: float = 0.05,
    management_tax: float = 0.04,
    seed: int = 61,
) -> ExperimentReport:
    """Run the same batch under the discrete round-robin scheduler after
    placement by different allocators.

    The paper's motivation ([4, 5]): PEs managing many threads burn cycles
    nonproductively.  With a per-thread management tax and context-switch
    cost, the allocator that stacks fewer tasks per PE finishes the batch
    sooner and wastes less — load is not just a fairness number.
    """
    from repro.core.repack import repack
    from repro.kernel.core import AllocationKernel
    from repro.sched.roundrobin import SchedulerConfig, simulate_round_robin
    from repro.tasks.events import Arrival
    from repro.tasks.task import Task
    from repro.types import TaskId

    rng = np.random.default_rng(seed)
    tasks = [
        Task(
            TaskId(i),
            int(1 << rng.integers(0, 4)),
            0.0,
            work=float(rng.uniform(2.0, 6.0)),
        )
        for i in range(num_tasks)
    ]
    config = SchedulerConfig(
        quantum=0.5, context_switch=context_switch, management_tax=management_tax
    )

    def place_with(machine: TreeMachine, label: str) -> AllocationKernel:
        """A kernel holding the whole batch as ``label`` places it."""
        if label == "A_R packed":
            kernel = AllocationKernel(machine)
            mapping = repack(machine.hierarchy, tasks).mapping
            for t in tasks:
                kernel.apply_placed(t.arrival, t, mapping[t.task_id])
            return kernel
        if label == "A_G greedy":
            algo = GreedyAlgorithm(machine)
        else:
            algo = ObliviousRandomAlgorithm(machine, np.random.default_rng(seed + 1))
        kernel = AllocationKernel(machine, algo)
        for t in tasks:
            kernel.apply(Arrival(t.arrival, t))
        return kernel

    rows: list[Sequence[Any]] = []
    for label in ("A_R packed", "A_G greedy", "A_rand"):
        machine = TreeMachine(num_pes)
        kernel = place_with(machine, label)
        report = simulate_round_robin(machine, tasks, kernel.placements, config)
        rows.append(
            [
                label,
                kernel.current_max_load,
                f"{report.makespan:.1f}",
                f"{report.worst_slowdown:.2f}",
                f"{report.overhead_fraction:.3f}",
                f"{report.switch_overhead:.0f}",
                f"{report.tax_overhead:.0f}",
            ]
        )
    # Gang rotation over the A_R copies: one context switch per copy per
    # rotation instead of one per quantum per PE — the CM-5's regime.
    from repro.sched.gang import simulate_gang_rotation

    gang_machine = TreeMachine(num_pes)
    gang_result = repack(gang_machine.hierarchy, tasks)
    gang = simulate_gang_rotation(
        gang_machine,
        tasks,
        dict(gang_result.mapping),
        dict(gang_result.copy_of),
        quantum=config.quantum,
        slot_overhead=context_switch,
    )
    rows.append(
        [
            "A_R copies, gang",
            gang_result.num_copies,
            f"{gang.makespan:.1f}",
            f"{gang.worst_slowdown:.2f}",
            f"{gang.overhead_time / max(gang.makespan, 1e-9):.3f}",
            f"{gang.overhead_time:.0f}",
            "0",
        ]
    )
    return ExperimentReport(
        experiment_id="a7",
        title="Thread-management overhead vs allocation quality (discrete scheduler)",
        params={
            "N": num_pes,
            "num_tasks": num_tasks,
            "context_switch": context_switch,
            "management_tax": management_tax,
            "seed": seed,
        },
        headers=[
            "placement",
            "max load",
            "makespan",
            "worst slowdown",
            "overhead frac",
            "switch time",
            "tax time",
        ],
        rows=rows,
        notes=[
            "Lower max load means fewer resident threads per PE, hence a "
            "smaller management tax and fewer context switches — the "
            "motivation the paper cites from Blumofe & Leiserson, measured."
        ],
    )



# ---------------------------------------------------------------------------
# A8 — related work: subcube recognition strategies (Chen & Shin [9])
# ---------------------------------------------------------------------------


def experiment_subcube_recognition(
    num_pes: int = 64,
    *,
    num_tasks: int = 300,
    seed: int = 67,
) -> ExperimentReport:
    """Buddy vs single-Gray-code subcube allocation in the exclusive regime.

    Reproduces the cited related work's headline (the GC strategy
    recognizes exactly twice the subcubes of every dimension — verified
    per size in the table) and then measures whether the extra
    recognition moves end-to-end queueing performance on a power-of-two
    workload (the literature's answer: barely — which is part of the
    paper's case that the interesting action is in the *shared* regime).
    """
    from repro.machines.hypercube import Hypercube
    from repro.machines.subcube import SubcubeAllocator, recognized_subcubes
    from repro.sim.queueing import simulate_exclusive_queueing
    from repro.tasks.task import Task
    from repro.types import TaskId, ilog2

    # Recognition counts per size (the Chen & Shin theorem).
    rows: list[Sequence[Any]] = []
    for k in range(1, ilog2(num_pes) + 1):
        size = 1 << k
        buddy = len(recognized_subcubes(num_pes, size, "buddy"))
        gray = len(recognized_subcubes(num_pes, size, "gray"))
        rows.append([f"recognition, size {size}", buddy, gray, f"{gray / buddy:.0f}x"])

    # End-to-end queueing comparison.
    rng = np.random.default_rng(seed)
    tasks = []
    clock = 0.0
    for i in range(num_tasks):
        clock += float(rng.exponential(0.25))
        tasks.append(
            Task(
                TaskId(i),
                int(1 << rng.integers(0, ilog2(num_pes))),
                clock,
                work=float(rng.exponential(1.5)),
            )
        )
    measured = {}
    for strategy in ("buddy", "gray"):
        cube = Hypercube(num_pes)
        measured[strategy] = simulate_exclusive_queueing(
            cube, tasks, policy="backfill",
            allocator=SubcubeAllocator(num_pes, strategy),
        )
    rows.append(
        [
            "mean response (backfill)",
            f"{measured['buddy'].mean_response:.2f}",
            f"{measured['gray'].mean_response:.2f}",
            "-",
        ]
    )
    rows.append(
        [
            "utilization (backfill)",
            f"{measured['buddy'].utilization:.3f}",
            f"{measured['gray'].utilization:.3f}",
            "-",
        ]
    )
    return ExperimentReport(
        experiment_id="a8",
        title="Related work [9]: buddy vs Gray-code subcube strategies",
        params={"N": num_pes, "num_tasks": num_tasks, "seed": seed},
        headers=["metric", "buddy", "gray", "gray/buddy"],
        rows=rows,
        notes=[
            "Recognition doubles at every size (the Chen & Shin theorem, "
            "verified computationally), yet end-to-end queueing metrics "
            "barely move on power-of-two workloads — the exclusive regime "
            "leaves little for smarter recognition to win, part of the "
            "paper's motivation for shared allocation."
        ],
    )



# ---------------------------------------------------------------------------
# A9 — sensitivity: how much repacking does each workload shape need?
# ---------------------------------------------------------------------------


def experiment_workload_sensitivity(
    num_pes: int = 128,
    *,
    d_values: Sequence[float] = (0, 1, 2, 4, float("inf")),
    seed: int = 71,
    scale: float = 0.5,
) -> ExperimentReport:
    """Sweep d across every named scenario: who actually needs repacking?

    The theorems are worst-case; operators face specific workload shapes.
    For each scenario in the registry we run A_M over the d sweep and
    report the measured max load, plus the smallest d whose load already
    matches the d = 0 optimum — the point past which further repacking
    frequency buys nothing *for that shape*.
    """
    from repro.workloads.scenarios import SCENARIOS

    rows: list[Sequence[Any]] = []
    root = np.random.SeedSequence(seed)
    for (name, make), stream in zip(
        sorted(SCENARIOS.items()), root.spawn(len(SCENARIOS))
    ):
        sigma = make(num_pes, np.random.default_rng(stream), scale=scale)
        loads: list[int] = []
        for d in d_values:
            machine = TreeMachine(num_pes)
            result = run(machine, PeriodicReallocationAlgorithm(machine, d), sigma)
            loads.append(result.max_load)
        # The interpretable summary: how much worse is never reallocating
        # than constant reallocation, on this shape?  (d = 0 is exactly
        # optimal, so this is the shape's intrinsic fragmentation penalty.)
        penalty = loads[-1] - loads[0]
        rows.append([name, sigma.optimal_load(num_pes)] + loads + [penalty])
    headers = (
        ["scenario", "L*"]
        + [
            "load@d=" + ("inf" if isinstance(d, float) and math.isinf(d) else f"{d:g}")
            for d in d_values
        ]
        + ["never-realloc penalty"]
    )
    return ExperimentReport(
        experiment_id="a9",
        title="Sensitivity: measured load vs d across workload shapes",
        params={"N": num_pes, "seed": seed, "scale": scale},
        headers=headers,
        rows=rows,
        notes=[
            "The penalty column is load(d=inf) - load(d=0): the intrinsic "
            "fragmentation cost of never reallocating on that shape.  "
            "Stochastic shapes rarely manufacture the paper's worst case "
            "(penalties 0-1 here); the adversarial constructions (E5) show "
            "the other extreme, ceil((log N+1)/2) - 1."
        ],
    )


def experiment_churn_tradeoff(
    num_pes: int = 64,
    *,
    algorithm: str = "periodic",
    d: float = 2.0,
    horizon: float = 150.0,
    seed: int = 97,
) -> ExperimentReport:
    """Steady-state load under churn, elasticity, and flash crowds.

    The paper prices reallocation against load on a fixed healthy machine;
    this experiment extends the same trade to external perturbations.  One
    algorithm (A_M, d = 2 by default) runs over five churn regimes — from
    calm to a worst-mix of PE faults, task kills, and flash-crowd storms —
    each with one online grow and one shrink mid-run.  Reported per regime:
    time-averaged max load against the analytic degraded benchmark
    ``L*_deg(t) = ceil(volume(t) / N_surviving(t))``, and the salvage
    traffic each unit of churn forces (PE-hops per churn event).
    """
    from repro.scenarios import ChurnProcess, churn_sweep

    resizes = ((horizon * 0.35, "grow", 2), (horizon * 0.7, "shrink", 2))
    levels: list[tuple[str, dict[str, Any]]] = [
        ("calm", {}),
        ("faulty", {"pe_mttf": 20.0, "mttr": 4.0}),
        ("hostile", {"pe_mttf": 8.0, "mttr": 4.0, "kill_rate": 0.08}),
        ("flash-crowd",
         {"storm_rate": 0.12, "storm_depth": 10, "mean_duration": 4.0}),
        ("worst-mix",
         {"pe_mttf": 8.0, "mttr": 4.0, "kill_rate": 0.08,
          "storm_rate": 0.12, "storm_depth": 10}),
    ]
    processes = [
        ChurnProcess(
            num_pes=num_pes, seed=seed + i, horizon=horizon,
            task_rate=1.5, resizes=resizes, **params,
        )
        for i, (_label, params) in enumerate(levels)
    ]
    rows: list[Sequence[Any]] = []
    for (label, _), row in zip(
        levels, churn_sweep(processes, algorithm, d=d, seed=seed)
    ):
        st = row["steady"]
        f = row["faults"]
        rows.append([
            label,
            f["failures"],
            f["kills"],
            row["num_resizes"],
            row["max_load"],
            f"{st['time_avg_max_load']:.2f}",
            f"{st['time_avg_lstar']:.2f}",
            f"{st['load_ratio']:.2f}",
            f"{st['salvage_traffic_per_churn']:.0f}",
        ])
    return ExperimentReport(
        experiment_id="e9",
        title="Steady-state load under churn, elasticity, and flash crowds",
        params={
            "N": num_pes, "algorithm": algorithm, "d": d,
            "horizon": horizon, "seed": seed,
        },
        headers=[
            "regime", "failures", "kills", "resizes", "max load",
            "avg load", "avg L*_deg", "ratio", "salvage/churn",
        ],
        rows=rows,
        notes=[
            "Every regime absorbs one online grow and one shrink; the "
            "ratio column is time-averaged max load over the analytic "
            "degraded benchmark ceil(volume/N_surviving) — near 1 means "
            "the allocator tracks the moving optimum through churn.  "
            "salvage/churn is PE-hops of forced repack traffic per churn "
            "event, the elasticity analogue of the paper's "
            "reallocation-vs-load trade.",
        ],
    )


def run_experiments(
    experiment_ids: Sequence[str] | None = None,
    *,
    jobs: int | None = None,
) -> list[ExperimentReport]:
    """Run experiment drivers by id, optionally across worker processes.

    Every driver is a self-seeded module-level function, so the registry
    is an embarrassingly parallel bag: ``jobs=4`` runs four experiments
    concurrently (``-1`` = all cores) and still returns reports in the
    requested order with exactly the values a serial run produces.
    Unknown ids raise ``KeyError`` before anything runs.
    """
    from repro.sim.parallel import parallel_map

    ids = list(experiment_ids) if experiment_ids is not None else list(EXPERIMENTS)
    missing = [i for i in ids if i not in EXPERIMENTS]
    if missing:
        raise KeyError(f"unknown experiment ids: {missing}")
    return parallel_map(_run_experiment_by_id, [(i,) for i in ids], jobs=jobs)


def _run_experiment_by_id(experiment_id: str) -> ExperimentReport:
    """Picklable worker: look the driver up in the registry and run it."""
    return EXPERIMENTS[experiment_id]()


#: CLI registry: experiment id -> zero-argument driver with defaults.
EXPERIMENTS: dict[str, Callable[[], ExperimentReport]] = {
    "e1": experiment_figure1,
    "e2": experiment_optimal,
    "e3": experiment_greedy_scaling,
    "e4": experiment_tradeoff,
    "e5": experiment_adversary,
    "e6": experiment_randomized,
    "e7": experiment_sigma_r,
    "e8": experiment_slowdown,
    "e9": experiment_churn_tradeoff,
    "a1": experiment_copies_ablation,
    "a2": experiment_twochoice,
    "a3": experiment_topology,
    "a4": experiment_hybrid,
    "a5": experiment_incremental,
    "a6": experiment_operating_models,
    "a7": experiment_thread_overhead,
    "a8": experiment_subcube_recognition,
    "a9": experiment_workload_sensitivity,
}
