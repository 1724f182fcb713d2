"""Allocation-algorithm interface shared by all of the paper's algorithms.

An :class:`AllocationAlgorithm` is driven by the simulator through three
hooks that mirror the paper's algorithm descriptions verbatim:

* :meth:`AllocationAlgorithm.on_arrival` — choose a submachine (a hierarchy
  node of exactly the task's size) for an arriving task, knowing only the
  task's size and the algorithm's own past decisions (the online model);
* :meth:`AllocationAlgorithm.on_departure` — release the task;
* :meth:`AllocationAlgorithm.maybe_reallocate` — called after every arrival;
  a d-reallocation algorithm may return a complete remapping of the active
  tasks once the cumulative arrival volume since the last remap reaches
  ``d * N`` (the simulator enforces the budget, the algorithm decides).

The *authoritative* machine state (per-PE loads, placements) is owned by
the :class:`~repro.kernel.core.AllocationKernel` driving the algorithm,
which validates every placement.  An algorithm that decides from loads
(A_G and the algorithms built like it) reads them from the kernel's own
:class:`~repro.machines.loads.LoadTracker`, handed over through
:meth:`AllocationAlgorithm.bind_loads`: the kernel places every task
exactly where the algorithm says, so those are the loads its past
placements induce.  Algorithms only query that tracker; the kernel is its
only writer.  What an algorithm keeps beyond it is private bookkeeping
(copy sets, an RNG, a cursor).  The split keeps algorithms honest: they
cannot accidentally peek at information the online model hides
(departure times, future arrivals).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, TypeVar

from repro.errors import AllocationError, CheckpointError
from repro.machines.base import PartitionableMachine
from repro.machines.loads import LoadTracker
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = [
    "AllocationAlgorithm",
    "Placement",
    "Reallocation",
    "id_order",
    "reorder",
]

_V = TypeVar("_V")


def id_order(mapping: Mapping[TaskId, Any]) -> list[int]:
    """A task-keyed dict's keys in iteration order (for :meth:`state`)."""
    return [int(tid) for tid in mapping]


def reorder(ids: Sequence[int], source: Mapping[TaskId, _V]) -> dict[TaskId, _V]:
    """``source`` re-keyed in the saved order ``ids`` (for :meth:`load_state`).

    The ids must be exactly ``source``'s keys; anything else is a
    :class:`~repro.errors.CheckpointError` — the saved state belongs to a
    different set of active tasks.
    """
    out = {TaskId(int(tid)): source[TaskId(int(tid))] for tid in ids if tid in source}
    if len(out) != len(ids) or len(out) != len(source):
        raise CheckpointError(
            f"saved algorithm state covers {len(ids)} task(s); "
            f"{len(source)} are active"
        )
    return out


@dataclass(frozen=True, slots=True)
class Placement:
    """An algorithm's decision for one arriving task."""

    task_id: TaskId
    node: NodeId


@dataclass(frozen=True, slots=True)
class Reallocation:
    """A full remapping of the active tasks, produced at a reallocation point.

    ``mapping`` must contain exactly the active tasks; the simulator diffs
    it against current placements to count migrations and their cost.
    """

    mapping: Mapping[TaskId, NodeId]


class AllocationAlgorithm(abc.ABC):
    """Base class for online allocation algorithms on one machine.

    Subclasses must be deterministic functions of the event history unless
    they are explicitly randomized (in which case they draw exclusively from
    the ``rng`` they were constructed with, for reproducibility).
    """

    #: The driving kernel's load tracker (:meth:`bind_loads`).
    _loads: Optional[LoadTracker] = None

    def __init__(self, machine: PartitionableMachine):
        self.machine = machine

    # -- Loads --------------------------------------------------------------

    def bind_loads(self, loads: LoadTracker) -> None:
        """Read per-PE loads from ``loads`` from now on.

        The :class:`~repro.kernel.core.AllocationKernel` driving this
        algorithm calls it at construction and again whenever it replaces
        its tracker (an online resize, a restore onto an adopted machine).
        The algorithm only queries the tracker; the kernel writes it, after
        :meth:`on_arrival` returns and after :meth:`on_departure`.
        """
        self._loads = loads

    @property
    def loads(self) -> LoadTracker:
        """The bound tracker: the loads this algorithm's placements induce."""
        loads = self._loads
        if loads is None:
            raise AllocationError(
                f"{self.name} reads its loads from the kernel that drives it; "
                "run it through an AllocationKernel"
            )
        return loads

    # -- Identification -----------------------------------------------------

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short name used in result tables (e.g. ``"A_G"``)."""

    @property
    def is_randomized(self) -> bool:
        """Whether the algorithm draws random bits (default: deterministic)."""
        return False

    @property
    def reallocation_parameter(self) -> float:
        """The ``d`` of the paper; ``inf`` for never-reallocating algorithms."""
        return float("inf")

    # -- Event hooks --------------------------------------------------------

    @abc.abstractmethod
    def on_arrival(self, task: Task) -> Placement:
        """Choose a submachine for an arriving task.

        Must return a node whose subtree size equals ``task.size``.  The
        simulator validates this and raises
        :class:`~repro.errors.PlacementError` otherwise.
        """

    def on_departure(self, task: Task) -> None:
        """Release internal state for a departing task (default: none)."""

    def maybe_reallocate(self, arrived_since_last: int) -> Optional[Reallocation]:
        """Offer the algorithm a reallocation opportunity.

        Called after each arrival with the cumulative size of arrivals since
        the last reallocation (or since the start).  Return ``None`` to
        decline; return a :class:`Reallocation` to remap all active tasks.
        The simulator rejects reallocations attempted before the budget
        ``arrived_since_last >= d * N`` is reached.
        """
        return None

    def reset(self) -> None:
        """Forget all state (start of a fresh run).  Subclasses extend."""

    # -- Restorable state ---------------------------------------------------

    def state(self) -> dict[str, Any]:
        """A JSON-safe image of the private state, taken between events.

        Together with the kernel snapshot it must determine every later
        decision: :meth:`load_state` on a fresh instance, given the same
        active tasks and placements, continues bit-identically — dict
        orders that later decisions iterate over included, and the RNG
        position of a randomized algorithm.  A journaled session needs
        it (it is checked when the session opens its journal); the
        default raises :class:`~repro.errors.CheckpointError`.
        """
        raise CheckpointError(f"{self.name} has no restorable state")

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        """Adopt a :meth:`state` image on a freshly constructed instance.

        ``tasks`` and ``placements`` are the restored kernel's active
        tasks and placements; the loads are the kernel's, so no image
        carries them.  Raises :class:`~repro.errors.CheckpointError` (or
        a ``KeyError`` / ``TypeError`` / ``ValueError``) on an image that
        does not fit; the caller then falls back to a full replay.
        """
        raise CheckpointError(f"{self.name} has no restorable state")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(machine={self.machine!r})"
