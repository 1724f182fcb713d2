#!/usr/bin/env python
"""Capacity planning with the sweep framework: choosing N and d together.

An operator question the paper's bounds answer: *given a workload, how big
a machine do I need, and how often must I repack, to keep every user's
slowdown under a target?*  Worst-case slowdown is bounded by the max
thread load, and Theorem 4.2 prices the load as min{d+1, ceil((log N+1)/2)}
times L* — so the (N, d) plane is a cost surface.

This example sweeps that plane with `repro.analysis.sweeps.Sweep`, measures
actual loads on the fragmentation-storm scenario, and renders the result as
ASCII tables and plots — exercising the sweep + plotting layer end to end.

Run:  python examples/capacity_planning.py
"""

import numpy as np

from repro import DeterministicAdversary, PeriodicReallocationAlgorithm, TreeMachine, run
from repro.analysis.plots import histogram, line_plot, sparkline
from repro.analysis.sweeps import Sweep
from repro.analysis.tables import format_table
from repro.core.bounds import deterministic_upper_factor
from repro.workloads.scenarios import fragmentation_storm

TARGET_SLOWDOWN = 2  # "no user may run more than 2x slower than alone"


def cell(n, d, rng):
    """Measured storm load + the adversary-forced worst case at (n, d)."""
    machine = TreeMachine(n)
    sigma = fragmentation_storm(n, rng, scale=0.5)
    typical = run(machine, PeriodicReallocationAlgorithm(machine, d), sigma)
    adv_machine = TreeMachine(n)
    adversary = DeterministicAdversary(adv_machine, d if d > 0 else 1)
    worst = adversary.run(PeriodicReallocationAlgorithm(adv_machine, d))
    return {"typical": typical, "worst": worst}


def main() -> None:
    sweep = Sweep(grid={"n": [64, 128, 256], "d": [0, 1, 2, 4, 8]}, seed=17)
    results = sweep.run(cell)

    rows = []
    for c in results:
        typical = c.value["typical"]
        worst = c.value["worst"]
        factor = deterministic_upper_factor(c["n"], c["d"])
        # The guarantee that matters for planning is the worst case.
        meets = worst.max_load <= TARGET_SLOWDOWN * max(1, worst.optimal_load)
        rows.append(
            [
                c["n"],
                c["d"],
                typical.max_load,
                worst.max_load,
                typical.optimal_load,
                factor,
                typical.metrics.realloc.num_reallocations,
                "yes" if meets else "no",
            ]
        )
    print(
        format_table(
            [
                "N", "d", "storm load", "worst load", "L*",
                "bound factor", "repacks", f"worst<= {TARGET_SLOWDOWN}xL*?",
            ],
            rows,
            title="Capacity plan over the (N, d) plane "
            "(storm = measured; worst = Thm 4.3 adversary)",
        )
    )

    # The d-axis cross-section at N = 256, as a plot (worst case, which
    # is the axis that actually moves with d).
    xs, ys = results.where(n=256).series("d", extract=lambda r: r["worst"].max_load)
    print()
    print(
        line_plot(
            [float(x) for x in xs],
            [float(y) for y in ys],
            width=40,
            height=8,
            title="N = 256: adversary-forced max load vs d",
            y_label="load",
            x_label="reallocation parameter d",
        )
    )

    # Load time series of the cheapest configuration that meets the target.
    eligible = [
        c for c in results
        if c.value["worst"].max_load
        <= TARGET_SLOWDOWN * max(1, c.value["worst"].optimal_load)
    ]
    if eligible:
        # Cheapest = smallest machine, then rarest repacking.
        best = max(eligible, key=lambda c: (-c["n"], c["d"]))
        print(
            f"\ncheapest qualifying configuration: N = {best['n']}, "
            f"d = {best['d']} "
            f"({best.value['typical'].metrics.realloc.num_reallocations} repacks)"
        )
        _times, loads = best.value["typical"].series.as_arrays()
        print("its max-load profile over events:")
        print(sparkline(loads.tolist()[:120]))
        if best.value["typical"].metrics.peak_snapshot is not None:
            snap = best.value["typical"].metrics.peak_snapshot
            values, counts = np.unique(snap, return_counts=True)
            print()
            print(
                histogram(
                    {int(v): int(c) for v, c in zip(values, counts)},
                    width=30,
                    title="PE loads at its worst moment (load: #PEs)",
                )
            )
    print(
        "\nReading: moving left along d buys load headroom with repacks;\n"
        "moving up in N buys it with hardware.  The theorem bound column\n"
        "is the guarantee; the measured column shows the typical-case slack."
    )


if __name__ == "__main__":
    main()
