"""Backend-parity referee: per-event loop vs the columnar batch engine.

The columnar engine (:mod:`repro.kernel.columnar`) promises strict
bit-identity with the per-event kernel path.  This module is the referee
that holds it to that promise: :func:`check_backend_parity` replays one task
sequence through a fresh kernel per batch backend — identical chunked
``apply_batch`` calls — and demands that every observable agree exactly:

* the full :class:`~repro.kernel.decision.Decision` stream (placements,
  per-event max loads, active sizes, L*);
* the kernel state snapshot digest (placements, tracker, history);
* the metered max-load time series;
* the peak leaf snapshot (array and capture time);
* error behaviour — if one backend raises, all must raise the same error
  text at the same prefix length.

:func:`repro.verify.harness.check_algorithm` calls this for every fuzzed
sequence whenever the algorithm under test is columnar-capable, so any
divergence between backends surfaces as an ordinary fuzzing violation
with a replayable counterexample.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence as TypingSequence

import numpy as np

from repro.core.registry import make_algorithm
from repro.errors import BatchError, ReproError
from repro.kernel.columnar import BACKENDS
from repro.kernel.core import AllocationKernel
from repro.machines.tree import TreeMachine
from repro.tasks.sequence import TaskSequence

__all__ = ["check_backend_parity", "check_churn_backend_parity"]


def _state_digest(kernel: AllocationKernel) -> str:
    return hashlib.sha256(
        json.dumps(kernel.snapshot(), sort_keys=True, default=repr).encode()
    ).hexdigest()


@dataclass
class _BackendRun:
    backend: str
    decisions: tuple
    digest: str
    series: dict
    peak_snapshot: Optional[np.ndarray]
    peak_time: Optional[float]
    error: Optional[str]


def _run_backend(
    backend: str,
    name: str,
    num_pes: int,
    d: float,
    seed: int,
    events: list,
    chunk: int,
    *,
    churn: bool = False,
) -> _BackendRun:
    machine = TreeMachine(num_pes)
    algorithm = make_algorithm(name, machine, d=d, seed=seed)
    if churn:
        # Full event alphabet (faults, kills, resizes): the algorithm needs
        # the fault-tolerant wrapper and the kernel a degraded view.  The
        # columnar engine declines such batches and fall back to the exact
        # per-event path — which is precisely the behaviour under test:
        # the decline must be deterministic and identical across backends.
        from repro.faults.salvage import FaultTolerantAlgorithm

        view = machine.degraded_view()
        wrapped = FaultTolerantAlgorithm(machine, algorithm, view)
        kernel = AllocationKernel(
            machine, wrapped, view=view, batch_backend=backend
        )
    else:
        kernel = AllocationKernel(machine, algorithm, batch_backend=backend)
    decisions: list = []
    error: Optional[str] = None
    try:
        for start in range(0, len(events), chunk):
            batch = kernel.apply_batch(events[start : start + chunk])
            decisions.extend(batch.decisions)
    except BatchError as exc:
        decisions.extend(exc.decisions)
        error = f"{type(exc).__name__}: {exc}"
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    m = kernel.metrics
    return _BackendRun(
        backend=backend,
        decisions=tuple(decisions),
        digest=_state_digest(kernel),
        series=m.series.to_state(),
        peak_snapshot=m.peak_snapshot,
        peak_time=m.peak_snapshot_time,
        error=error,
    )


def check_backend_parity(
    name: str,
    num_pes: int,
    d: float,
    seed: int,
    sequence: TaskSequence,
    *,
    backends: Optional[TypingSequence[str]] = None,
    chunk: int = 64,
) -> list[str]:
    """Replay ``sequence`` under every batch backend and diff the runs.

    Returns a list of violation strings (empty = all backends agree).
    ``backends`` defaults to every backend (``python``, ``numpy``);
    the first entry (normally ``python``, the per-event oracle) is the
    reference the others are diffed against.  ``chunk`` is the
    ``apply_batch`` size — small enough that batches straddle arrival
    runs, large enough to engage the columnar run path.
    """
    names = tuple(backends) if backends is not None else BACKENDS
    if len(names) < 2:
        return []
    events = list(sequence)
    runs = [
        _run_backend(b, name, num_pes, d, seed, events, chunk) for b in names
    ]
    return _diff_runs(runs)


def check_churn_backend_parity(
    name: str,
    d: float,
    seed: int,
    scenario,
    *,
    backends: Optional[TypingSequence[str]] = None,
    chunk: int = 64,
) -> list[str]:
    """Replay a full churn scenario under every batch backend and diff.

    Same contract as :func:`check_backend_parity`, but the event stream is
    the scenario's merged alphabet — arrivals, departures, failures,
    repairs, kills, and resizes — fed through ``apply_batch`` in chunks
    that deliberately straddle fault and resize boundaries.  The columnar
    engine must decline such batches onto the per-event path identically,
    so every observable (decision stream, snapshot digest, metered series,
    peak snapshots, error behaviour) stays bit-identical across backends.
    """
    names = tuple(backends) if backends is not None else BACKENDS
    if len(names) < 2:
        return []
    events = list(scenario.merged_events())
    runs = [
        _run_backend(
            b, name, scenario.num_pes, d, seed, events, chunk, churn=True
        )
        for b in names
    ]
    return _diff_runs(runs)


def _diff_runs(runs: list[_BackendRun]) -> list[str]:
    """Diff every run against the first (the per-event reference)."""
    ref = runs[0]
    violations: list[str] = []
    for run in runs[1:]:
        tag = f"{run.backend} vs {ref.backend}"
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
