"""Piecewise-N referees for churn scenarios (faults + kills + resizes).

A churn run has no single machine size: resizes split the timeline into
epochs of constant ``N_e`` (:meth:`repro.scenarios.elastic.Scenario.epochs`).
The referee strategy is *piecewise*: because the kernel logs a placement
for every active task at each resize instant, no residence segment ever
straddles an epoch boundary, so each epoch is a self-contained run on a
fixed ``N_e``-PE machine that the existing referees can audit verbatim.

:func:`check_algorithm_under_churn` drives one registry algorithm through
the production kernel over the full event alphabet, then per epoch:

1. clamps every task's lifetime to the epoch window and selects its
   in-window residence segments;
2. re-referees the epoch with :func:`repro.sim.audit.audit_run` (NumPy
   intervals) *and* :func:`repro.verify.oracle.oracle_audit` (from-scratch
   brute force), fault slice included;
3. demands the two interval referees agree exactly on the epoch max load;
4. enforces the **piecewise salvage bound**: for finite ``d``, the epoch's
   interval max load stays within
   ``(d + 1) * max(ceil(s_peak_e / N_surviving_e), 1)``
   where ``s_peak_e`` is the epoch's peak active volume and
   ``N_surviving_e`` the fewest PEs the epoch's fault slice ever left
   alive.  The bound applies from the first degradation on — any epoch
   with failures, and every epoch after the first resize (a resize forces
   a full repack and permanently switches the fault-tolerant wrapper to
   its copy-based first-fit, whose degraded guarantee this is).

Globally the engine's metered max load must dominate every epoch's
interval max (the engine also sees same-instant transients the interval
referees cannot), the machine-size trajectory must match the scenario,
and the whole scenario must replay bit-identically through chunked
``apply_batch`` and per-event ``apply`` (:func:`check_churn_backend_parity`
holds the batch loop's amortised metering to the per-event path on
fault/resize batches).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.core.registry import ALGORITHM_SPECS, make_algorithm
from repro.machines.tree import TreeMachine
from repro.scenarios.elastic import Scenario
from repro.scenarios.runner import run_scenario
from repro.sim.audit import audit_run, effective_end_times
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import NodeId, TaskId, ceil_div
from repro.verify.harness import CheckOutcome

__all__ = ["check_algorithm_under_churn"]

#: One placement segment, as produced by ``placement_intervals``.
_Segment = Tuple[float, float, NodeId]


def _clamped_epoch_run(
    scenario: Scenario,
    intervals: Dict[TaskId, List[_Segment]],
    ends: Dict[TaskId, float],
) -> List[Tuple[int, TaskSequence, Dict[TaskId, List[_Segment]]]]:
    """Split one traced run into per-epoch (sequence, intervals) slices.

    The epoch's *residence window* is ``[start, end)`` in resize
    timestamps: a task arriving exactly at a resize instant is placed on
    the old machine but immediately remapped (its old-machine segment is
    empty), so its residence belongs to the new epoch.  ``ends`` are the
    kill-effective end times; a task enters an epoch's slice iff its
    effective lifetime intersects the window.
    """
    out: List[Tuple[int, TaskSequence, Dict[TaskId, List[_Segment]]]] = []
    for epoch in scenario.epochs():
        w_lo, w_hi = epoch.start, epoch.end
        tasks: List[Task] = []
        segs_e: Dict[TaskId, List[_Segment]] = {}
        for tid, task in scenario.sequence.tasks.items():
            lo = max(float(task.arrival), w_lo)
            hi = min(ends[tid], w_hi)
            if lo >= hi:
                continue
            tasks.append(
                Task(tid, task.size, lo, min(float(task.departure), w_hi))
            )
            segs_e[tid] = [
                seg for seg in intervals.get(tid, []) if w_lo <= seg[0] < w_hi
            ]
        out.append((epoch.index, TaskSequence.from_tasks(tasks), segs_e))
    return out


def check_algorithm_under_churn(
    name: str,
    d: float,
    seed: int,
    scenario: Scenario,
) -> CheckOutcome:
    """Run one algorithm over a churn scenario and referee it piecewise.

    Module-level and picklable end to end, like the healthy and fault-mode
    checks, so campaigns fan out over worker processes.
    """
    from repro.verify.backends import check_churn_backend_parity
    from repro.verify.oracle import faults_table, oracle_audit, tasks_table

    num_pes = scenario.num_pes
    epochs = scenario.epochs()
    num_events = len(scenario.merged_events())
    violations: list[str] = []

    try:
        d_eff = make_algorithm(
            name, TreeMachine(num_pes), d=d, seed=seed
        ).reallocation_parameter
        result = run_scenario(scenario, name, d=d, seed=seed)
    except Exception as exc:  # a crash IS a finding — record, don't propagate
        violations.append(f"engine: {type(exc).__name__}: {exc}")
        return CheckOutcome(
            algorithm=name,
            num_pes=num_pes,
            d=d,
            seed=seed,
            num_events=num_events,
            ok=False,
            violations=tuple(violations),
            faulted=True,
            churned=True,
            num_epochs=len(epochs),
            num_resizes=len(scenario.resizes),
        )

    intervals = result.intervals
    plan = scenario.plan
    ends = effective_end_times(scenario.sequence.tasks, plan.kills())
    slices = scenario.plan_slices()

    # -- Machine-size trajectory ---------------------------------------------
    if result.final_num_pes != scenario.final_num_pes():
        violations.append(
            f"engine final machine size {result.final_num_pes} != scenario "
            f"final size {scenario.final_num_pes()}"
        )
    if result.num_resizes != len(scenario.resizes):
        violations.append(
            f"engine absorbed {result.num_resizes} resizes, scenario "
            f"schedules {len(scenario.resizes)}"
        )

    # -- Per-epoch referees ---------------------------------------------------
    max_epoch_load = 0
    bound: float | None = None
    bound_load = 0  # the governed epoch's load paired with ``bound``
    for (index, seq_e, segs_e), epoch, piece in zip(
        _clamped_epoch_run(scenario, intervals, ends), epochs, slices
    ):
        n_e = epoch.num_pes
        tag = f"epoch {index} (N={n_e})"
        # Residence segments must never straddle a resize boundary: the
        # kernel logs a placement for every active task at the resize
        # instant, which is what makes the piecewise audit sound at all.
        if math.isfinite(epoch.end):
            for tid, segs in segs_e.items():
                for start, end, _node in segs:
                    if end > epoch.end:
                        violations.append(
                            f"{tag}: task {tid} segment [{start},{end}) "
                            f"straddles the resize at t={epoch.end:g}"
                        )
        machine_e = TreeMachine(n_e)
        audit = audit_run(
            machine_e,
            seq_e,
            segs_e,
            fault_plan=piece if not piece.is_empty else None,
        )
        if not audit.ok:
            violations.extend(f"{tag}: audit: {v}" for v in audit.violations)
        oracle = oracle_audit(
            n_e,
            tasks_table(seq_e),
            segs_e,
            faults=faults_table(piece) if not piece.is_empty else None,
        )
        if not oracle.ok:
            violations.extend(f"{tag}: oracle: {v}" for v in oracle.violations)
        if audit.max_load != oracle.max_load:
            violations.append(
                f"{tag}: audit max_load {audit.max_load} != oracle "
                f"max_load {oracle.max_load} — interval referees disagree"
            )
        max_epoch_load = max(max_epoch_load, audit.max_load)

        # Piecewise salvage bound (min surviving N *per epoch*).  Epoch 0
        # without failures runs the inner algorithm healthy — its own
        # theorem bound applies there and is exercised by the healthy
        # fuzzing mode, not re-checked here.  Randomized algorithms carry
        # w.h.p. guarantees only, so the deterministic bound is skipped for
        # them (same policy as ``load_bound is None`` in the registry).
        if (
            math.isfinite(d_eff)
            and not ALGORITHM_SPECS[name].randomized
            and (piece.num_failures > 0 or index > 0)
        ):
            min_surviving = piece.min_surviving_pes(n_e)
            s_peak = oracle.peak_active_size
            bound_e = (d_eff + 1) * max(ceil_div(s_peak, min_surviving), 1)
            if bound is None or bound_e - audit.max_load < bound - bound_load:
                bound, bound_load = bound_e, audit.max_load
            if audit.max_load > bound_e + 1e-9:
                violations.append(
                    f"{tag}: piecewise salvage bound violated: max_load "
                    f"{audit.max_load} > {bound_e:g} "
                    f"((d+1)*ceil(s_peak/N_surv) with d={d_eff:g}, "
                    f"s_peak={s_peak}, N_surv={min_surviving})"
                )

    # -- Engine vs piecewise referees ----------------------------------------
    max_load = result.max_load
    if max_load < max_epoch_load:
        violations.append(
            f"engine max_load {max_load} < piecewise referee max "
            f"{max_epoch_load} — engine under-reports"
        )
    transient_sources = (
        result.metrics.realloc.num_reallocations
        + result.metrics.faults.num_salvage_repacks
        + result.metrics.faults.num_resizes
    )
    if transient_sources == 0 and max_load != max_epoch_load:
        violations.append(
            f"engine max_load {max_load} != piecewise referee max "
            f"{max_epoch_load} with no reallocation, salvage, or resize "
            "to explain a transient"
        )

    # -- Batch parity over the full event alphabet ---------------------------
    violations.extend(
        f"backend: {v}"
        for v in check_churn_backend_parity(name, d, seed, scenario)
    )

    return CheckOutcome(
        algorithm=name,
        num_pes=num_pes,
        d=d,
        seed=seed,
        num_events=num_events,
        ok=not violations,
        violations=tuple(violations),
        # Report a genuinely governed (load, bound) pair — the tightest
        # epoch the piecewise bound actually checked.  Neither the engine
        # max (same-instant repack transients) nor the all-epoch referee
        # max (healthy epoch 0 is bound-exempt) pairs with the bound:
        # both would show spurious negative slack in the margins.
        max_load=bound_load if bound is not None else max_epoch_load,
        optimal_load=scenario.sequence.optimal_load(num_pes),
        bound=bound,
        faulted=True,
        degradation=result.metrics.faults.to_dict(),
        churned=True,
        num_epochs=len(epochs),
        num_resizes=len(scenario.resizes),
    )
