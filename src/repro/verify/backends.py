"""Batch-parity referee: chunked ``apply_batch`` vs per-event ``apply``.

:meth:`AllocationKernel.apply_batch <repro.kernel.core.AllocationKernel.apply_batch>`
promises strict bit-identity with calling
:meth:`~repro.kernel.core.AllocationKernel.apply` once per event.  This
module is the referee that holds it to that promise:
:func:`check_churn_backend_parity` replays one churn scenario through two
fresh kernels — one fed chunked ``apply_batch`` calls, the reference fed
one ``apply`` per event — and demands that every observable agree
exactly:

* the full :class:`~repro.kernel.decision.Decision` stream (placements,
  per-event max loads, active sizes, L*);
* the kernel state snapshot digest (placements, tracker, metrics);
* the max-load time series folded from each decision stream;
* the peak leaf snapshot (array and capture time);
* error behaviour — if one run raises, both must raise the same error
  text after the same number of applied events.

:func:`repro.verify.churn.check_algorithm_under_churn` calls it for every
fuzzed scenario, so any divergence surfaces as an ordinary fuzzing
violation with a replayable counterexample.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.registry import make_algorithm
from repro.errors import BatchError, ReproError
from repro.kernel.core import AllocationKernel
from repro.machines.tree import TreeMachine
from repro.sim.history import RunHistory

__all__ = ["check_churn_backend_parity"]


def _state_digest(kernel: AllocationKernel) -> str:
    return hashlib.sha256(
        json.dumps(kernel.snapshot(), sort_keys=True, default=repr).encode()
    ).hexdigest()


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class _Run:
    label: str
    decisions: tuple
    digest: str
    series: tuple
    peak_snapshot: Optional[np.ndarray]
    peak_time: Optional[float]
    error: Optional[str]


def _run(
    name: str,
    d: float,
    seed: int,
    num_pes: int,
    events: list,
    chunk: Optional[int],
) -> _Run:
    """One fresh kernel over ``events``: chunked batches, or per event.

    ``chunk=None`` is the reference: one :meth:`AllocationKernel.apply`
    per event.  A batch failure is reported as its cause, so both runs
    describe the same error the same way.  The event stream is the full
    churn alphabet (faults, kills, resizes), so the algorithm runs under
    the fault-tolerant wrapper and the kernel with a degraded view.
    """
    from repro.faults.salvage import FaultTolerantAlgorithm

    machine = TreeMachine(num_pes)
    algorithm = make_algorithm(name, machine, d=d, seed=seed)
    view = machine.degraded_view()
    wrapped = FaultTolerantAlgorithm(machine, algorithm, view)
    kernel = AllocationKernel(machine, wrapped, view=view)
    decisions: list = []
    error: Optional[str] = None
    try:
        if chunk is None:
            for event in events:
                decisions.append(kernel.apply(event))
        else:
            for start in range(0, len(events), chunk):
                batch = kernel.apply_batch(events[start : start + chunk])
                decisions.extend(batch.decisions)
    except BatchError as exc:
        decisions.extend(exc.decisions)
        error = _error_text(exc.__cause__ or exc)
    except ReproError as exc:
        error = _error_text(exc)
    m = kernel.metrics
    history = RunHistory()
    history.extend(decisions)
    return _Run(
        label="apply" if chunk is None else f"apply_batch({chunk})",
        decisions=tuple(decisions),
        digest=_state_digest(kernel),
        series=(history.series.times, history.series.max_loads),
        peak_snapshot=m.peak_snapshot,
        peak_time=m.peak_snapshot_time,
        error=error,
    )


def check_churn_backend_parity(
    name: str,
    d: float,
    seed: int,
    scenario,
    *,
    chunk: int = 64,
) -> list[str]:
    """Replay a full churn scenario batched and per event, and diff.

    Returns a list of violation strings (empty = the runs agree).  The
    event stream is the scenario's merged alphabet — arrivals,
    departures, failures, repairs, kills, and resizes — fed through
    ``apply_batch`` in ``chunk``-event batches that deliberately straddle
    fault and resize boundaries.  The batch path's metering (running
    peak, peak snapshots, degraded gauges) must match per-event metering
    bit for bit.
    """
    events = list(scenario.merged_events())
    return _diff(
        _run(name, d, seed, scenario.num_pes, events, chunk),
        _run(name, d, seed, scenario.num_pes, events, None),
    )


def _diff(run: _Run, ref: _Run) -> list[str]:
    """Diff a batched run against the per-event reference."""
    tag = f"{run.label} vs {ref.label}"
    violations: list[str] = []
    if run.error != ref.error:
        violations.append(
            f"{tag}: error mismatch ({run.error!r} != {ref.error!r})"
        )
    if run.decisions != ref.decisions:
        idx = next(
            (
                i
                for i, (a, b) in enumerate(zip(run.decisions, ref.decisions))
                if a != b
            ),
            min(len(run.decisions), len(ref.decisions)),
        )
        violations.append(
            f"{tag}: decision streams diverge at event {idx} "
            f"({len(run.decisions)} vs {len(ref.decisions)} decisions)"
        )
    if run.digest != ref.digest:
        violations.append(f"{tag}: kernel snapshot digests differ")
    if run.series != ref.series:
        violations.append(f"{tag}: max-load series differ")
    same_snap = (
        run.peak_snapshot is None
        and ref.peak_snapshot is None
        or run.peak_snapshot is not None
        and ref.peak_snapshot is not None
        and np.array_equal(run.peak_snapshot, ref.peak_snapshot)
        and run.peak_time == ref.peak_time
    )
    if not same_snap:
        violations.append(f"{tag}: peak leaf snapshots differ")
    return violations
