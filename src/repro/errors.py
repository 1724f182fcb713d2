"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine programming errors (``TypeError``
from misuse of the stdlib, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidTaskError",
    "InvalidSequenceError",
    "InvalidMachineError",
    "AllocationError",
    "PlacementError",
    "ReallocationError",
    "SimulationError",
    "BatchError",
    "TraceFormatError",
    "UnknownAlgorithmError",
    "VerificationError",
    "FaultPlanError",
    "SalvageError",
    "CellExecutionError",
    "CellTimeoutError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidTaskError(ReproError, ValueError):
    """A task violates the model constraints.

    The paper's model (Section 2) requires every task size to be a power of
    two no larger than the machine size N, and arrival strictly before
    departure.
    """


class InvalidSequenceError(ReproError, ValueError):
    """A task sequence is malformed.

    Examples: a departure event for a task that never arrived, duplicate
    task identifiers, or events out of chronological order.
    """


class InvalidMachineError(ReproError, ValueError):
    """A machine was constructed with inadmissible parameters.

    The tree machine of the paper requires N to be a power of two so that
    the complete binary hierarchy exists.
    """


class AllocationError(ReproError, RuntimeError):
    """An allocation algorithm failed to produce a legal placement."""


class PlacementError(ReproError, ValueError):
    """A placement refers to a node that cannot host the task.

    Raised when a task of size ``2^x`` is mapped to a hierarchy node whose
    subtree does not contain exactly ``2^x`` PEs, or to a node outside the
    machine.
    """


class ReallocationError(ReproError, RuntimeError):
    """A reallocation produced an inconsistent remapping.

    For example, dropping an active task, or introducing a task that is not
    active.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class BatchError(SimulationError):
    """An event inside :meth:`AllocationKernel.apply_batch` failed.

    The kernel state equals the per-event path after the ``applied``
    prefix: every event before the failing one is fully applied and its
    metrics flushed, the failing event left no partial state.  Carries
    the per-event :class:`~repro.kernel.Decision` objects of the applied
    prefix so callers (e.g. ``AllocationSession.push_batch``) can journal
    exactly what happened before re-raising.
    """

    def __init__(self, message: str, *, applied: int, decisions: list | None = None):
        super().__init__(message)
        #: Number of events successfully applied before the failure.
        self.applied = applied
        #: Decisions of the applied prefix, in event order.
        self.decisions: list = list(decisions or [])


class TraceFormatError(ReproError, ValueError):
    """A workload trace file could not be parsed."""


class UnknownAlgorithmError(ReproError, KeyError):
    """A registry lookup used an algorithm name that is not registered.

    Derives from ``KeyError`` (the lookup really is a failed mapping access,
    and callers historically caught it as one) and from :class:`ReproError`
    so the CLI's clean-error path handles it without a traceback.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its message; undo that.
        return self.args[0] if self.args else ""


class VerificationError(ReproError, AssertionError):
    """The differential-verification harness found a confirmed violation."""


class FaultPlanError(ReproError, ValueError):
    """A fault plan is inadmissible on the target machine.

    Examples: failing a node that is already inside a failed subtree,
    repairing a node that is not failed, events out of chronological order,
    or a failure that would leave no surviving capacity.
    """


class SalvageError(ReproError, RuntimeError):
    """Orphaned tasks could not be reallocated on the degraded machine.

    Raised when the surviving submachines are too fragmented to host a task
    (e.g. every alive subtree is smaller than the task), which the fault-plan
    generator's granularity constraint rules out by construction.
    """


class CellExecutionError(ReproError, RuntimeError):
    """One or more experiment cells could not be completed.

    Raised by the parallel execution engine after the retry budget is
    exhausted; carries the indices of the failed cells and their last
    observed errors so a caller can resume or investigate.
    """

    def __init__(self, message: str, failures: dict | None = None):
        super().__init__(message)
        #: ``cell index -> last error message`` for every unfinished cell.
        self.failures: dict[int, str] = dict(failures or {})


class CellTimeoutError(ReproError, RuntimeError):
    """One experiment cell exceeded its per-cell wall-clock budget.

    Raised *inside* the worker process by the SIGALRM guard in
    :mod:`repro.sim.parallel`; treated as transient by the retry loop
    (the cell is retried in the next round, up to the retry budget).
    """


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint journal cannot be used to resume the requested work.

    Typically a fingerprint mismatch: the journal on disk was written by a
    different function, cell grid, or seed than the resuming caller's.
    """

