"""E7b — sigma_r at the paper's *exact* machine size, N = 2^16.

For ``N = 2^(2^k)`` the construction's task sizes ``log^i N`` are exact
powers of two — no rounding substitution at all.  N = 65536 is the first
such machine big enough for 4 phases (sizes 1, 16, 256, 4096), so this is
the purest available instantiation of Theorem 5.2's sequence.  Only the
max load is read; the kernel takes its per-PE peak snapshot only when
the max load rises, once per unit of it (at most five times a run here).

Expected: L* = 1 with margin (Lemma 5), oblivious placement pushed to a
multiple of it, load-aware greedy still comfortable — the asymptotics of
the lower bound remain out of simulable reach, as EXPERIMENTS.md records.
"""

import numpy as np

from benchmarks.conftest import record_report
from repro.adversary.randomized import (
    is_exact_sigma_r_machine,
    sigma_r_max_phases,
    sigma_r_phase_sizes,
    sigma_r_sequence,
)
from repro.analysis.experiments import ExperimentReport
from repro.core.greedy import GreedyAlgorithm
from repro.core.randomized import ObliviousRandomAlgorithm
from repro.machines.tree import TreeMachine
from repro.sim.engine import Simulator

N_EXACT = 1 << 16


def _run_light(machine, algorithm, sequence):
    sim = Simulator(machine, algorithm)
    for event in sequence:
        sim.step(event)
    return sim.metrics.max_load


def test_e7b_exact_machine(benchmark):
    assert is_exact_sigma_r_machine(N_EXACT)
    phases = sigma_r_max_phases(N_EXACT)
    sizes = sigma_r_phase_sizes(N_EXACT, phases)
    assert sizes == [1, 16, 256, 4096]  # log^i N exactly, no rounding

    sigma = sigma_r_sequence(N_EXACT, np.random.default_rng(0), num_phases=phases)

    def kernel():
        machine = TreeMachine(N_EXACT)
        algo = ObliviousRandomAlgorithm(machine, np.random.default_rng(1))
        return _run_light(machine, algo, sigma)

    rand_load = benchmark.pedantic(kernel, rounds=2, iterations=1)

    rows = []
    lstar = max(1, sigma.optimal_load(N_EXACT))
    seeds = range(3)
    rand_loads = []
    for seed in seeds:
        machine = TreeMachine(N_EXACT)
        algo = ObliviousRandomAlgorithm(machine, np.random.default_rng(100 + seed))
        rand_loads.append(_run_light(machine, algo, sigma))
    greedy_machine = TreeMachine(N_EXACT)
    greedy_load = _run_light(greedy_machine, GreedyAlgorithm(greedy_machine), sigma)
    rows.append(
        [
            N_EXACT,
            phases,
            "1,16,256,4096",
            lstar,
            f"{np.mean(rand_loads):.1f}",
            greedy_load,
        ]
    )
    report = ExperimentReport(
        experiment_id="e7b",
        title="sigma_r at the exact machine N = 2^16 (no size rounding)",
        params={"seeds": len(list(seeds)), "events": len(sigma)},
        headers=["N", "phases", "sizes", "L*", "E[A_rand load]", "A_G load"],
        rows=rows,
        notes=[
            "The purest Theorem 5.2 instantiation reachable by simulation: "
            "exact log^i N sizes, 4 phases.  Oblivious placement is pushed "
            "well above L*; adaptive greedy is not — the bound's force "
            "against adaptive algorithms is asymptotic (see EXPERIMENTS.md)."
        ],
    )
    record_report(report)
    assert lstar == 1
    assert float(np.mean(rand_loads)) >= 3.0
    assert rand_load >= 2
