"""Degraded-mode view of a partitionable machine under PE failures.

The paper's model assumes an always-healthy machine; production
partitionable machines lose PEs.  A :class:`DegradedView` layers the fault
state over an (immutable) :class:`~repro.machines.base.PartitionableMachine`
without touching it: it records which aligned subtrees are currently
failed, answers geometry questions against the *surviving* capacity, and
recomputes the paper's benchmark on that capacity:

    ``L*_deg(t) = ceil(active_volume(t) / N_surviving(t))``

the optimal load an omniscient scheduler could achieve on the surviving
PEs — every degradation metric in :mod:`repro.sim.metrics` is measured
against this quantity.

Failure granularity.  Failures are recorded at aligned hierarchy nodes
(whole subtrees), matching the machine's partitioning discipline: a failed
switch takes out its whole subtree, and a single dead PE is a failed leaf.
Overlapping failures are rejected rather than merged so a repair always
has a well-defined target.

Salvage feasibility.  Any task no larger than every *maximal alive
subtree* can always be salvaged (a fresh copy has room).  When failures
are restricted to nodes of subtree size >= the largest task size ``w`` —
the fault-plan generator's granularity constraint — every w-aligned block
is entirely failed or entirely alive, so maximal alive subtrees never drop
below ``w`` and salvage repacking cannot get stuck (and the degraded
Lemma 1 of docs/RESILIENCE.md applies exactly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import FaultPlanError, PlacementError
from repro.types import NodeId, ceil_div

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    import numpy as np

    from repro.machines.base import PartitionableMachine

__all__ = ["DegradedView"]


class DegradedView:
    """Mutable fault overlay over one machine's hierarchy.

    Holds the set of currently-failed aligned subtrees and answers
    placement-legality and surviving-capacity queries.  The underlying
    machine object is never mutated — several views (e.g. per run) can
    share one machine.
    """

    def __init__(self, machine: "PartitionableMachine"):
        self.machine = machine
        self.hierarchy = machine.hierarchy
        #: Maximal failed subtree roots, pairwise non-overlapping.
        self._failed: set[NodeId] = set()
        self._failed_pes = 0

    # -- Fault state -------------------------------------------------------

    @property
    def failed_nodes(self) -> tuple[NodeId, ...]:
        """Currently-failed subtree roots, in heap order."""
        return tuple(sorted(self._failed))

    @property
    def num_failed_pes(self) -> int:
        return self._failed_pes

    @property
    def surviving_pes(self) -> int:
        """``N_surviving`` — leaf PEs outside every failed subtree."""
        return self.machine.num_pes - self._failed_pes

    @property
    def is_degraded(self) -> bool:
        return bool(self._failed)

    def fail(self, node: NodeId) -> None:
        """Mark the aligned subtree at ``node`` failed.

        Rejects overlap with an existing failure (fail the disjoint part,
        or repair first) and a failure that would kill the whole machine.
        """
        h = self.hierarchy
        if not h.is_valid_node(node):
            raise FaultPlanError(
                f"cannot fail node {node}: outside the "
                f"{self.machine.num_pes}-PE machine"
            )
        for failed in self._failed:
            if h.contains(failed, node) or h.contains(node, failed):
                raise FaultPlanError(
                    f"cannot fail node {node}: overlaps already-failed "
                    f"subtree {failed}"
                )
        size = h.subtree_size(node)
        if self._failed_pes + size >= self.machine.num_pes:
            raise FaultPlanError(
                f"cannot fail node {node}: no PE would survive"
            )
        self._failed.add(node)
        self._failed_pes += size

    def resized(
        self, machine: "PartitionableMachine", *, factor: int, grow: bool
    ) -> "DegradedView":
        """A fresh view on a grown/shrunk ``machine`` carrying this fault set.

        On a grow, failed subtree roots keep their physical PEs and only
        their heap indices change (:func:`~repro.machines.hierarchy.grown_node`).
        A shrink with outstanding failures is rejected by the kernel before
        this is called — the retained prefix cannot be guaranteed to contain
        (or exclude) a failed subtree in general — so the shrink path only
        ever transfers an empty fault set.
        """
        from repro.machines.hierarchy import grown_node, shrunk_node

        view = DegradedView(machine)
        remap = grown_node if grow else shrunk_node
        for node in self.failed_nodes:
            view.fail(remap(node, factor))
        return view

    def repair(self, node: NodeId) -> None:
        """Bring the subtree at ``node`` back; must match a recorded failure."""
        if node not in self._failed:
            raise FaultPlanError(
                f"cannot repair node {node}: it is not a failed subtree root "
                f"(failed: {sorted(self._failed)})"
            )
        self._failed.discard(node)
        self._failed_pes -= self.hierarchy.subtree_size(node)

    # -- Geometry on the surviving machine ---------------------------------

    def overlaps_failure(self, node: NodeId) -> bool:
        """True iff the submachine at ``node`` shares a PE with a failed one."""
        h = self.hierarchy
        return any(
            h.contains(f, node) or h.contains(node, f) for f in self._failed
        )

    def is_node_alive(self, node: NodeId) -> bool:
        """True iff every PE of the submachine at ``node`` survives."""
        return not self.overlaps_failure(node)

    def validate_placement(self, node: NodeId, *, task_id=None) -> None:
        """Raise :class:`PlacementError` if ``node`` touches failed PEs."""
        if self.overlaps_failure(node):
            who = f"task {task_id} " if task_id is not None else ""
            raise PlacementError(
                f"{who}placed at node {node}, which overlaps failed "
                f"subtree(s) {sorted(self._failed)}"
            )

    def alive_leaf_mask(self) -> np.ndarray:
        """Boolean PE vector: ``True`` where the PE survives."""
        import numpy as np

        mask = np.ones(self.machine.num_pes, dtype=bool)
        for node in self._failed:
            lo, hi = self.hierarchy.leaf_span(node)
            mask[lo:hi] = False
        return mask

    def maximal_alive_subtrees(self) -> list[NodeId]:
        """Roots of the maximal fully-alive subtrees, in heap order.

        These are the largest aligned submachines placements may still use;
        together they partition the surviving PEs.
        """
        out: list[NodeId] = []
        self._collect_alive(self.hierarchy.root, out)
        return out

    def _collect_alive(self, node: NodeId, out: list[NodeId]) -> None:
        h = self.hierarchy
        if node in self._failed:
            return
        if self.is_node_alive(node):
            out.append(node)
            return
        if h.is_leaf(node):  # pragma: no cover - a dead leaf is in _failed
            return
        self._collect_alive(2 * node, out)
        self._collect_alive(2 * node + 1, out)

    def min_alive_subtree_size(self) -> int:
        """Size of the smallest maximal alive subtree (0 if none survive).

        Every task up to this size is guaranteed salvageable; under the
        generator's granularity constraint this never drops below the
        largest task size in play.
        """
        alive = self.maximal_alive_subtrees()
        if not alive:
            return 0
        return min(self.hierarchy.subtree_size(v) for v in alive)

    def max_alive_subtree_size(self) -> int:
        """Size of the largest fully-alive submachine (0 if none survive)."""
        alive = self.maximal_alive_subtrees()
        if not alive:
            return 0
        return max(self.hierarchy.subtree_size(v) for v in alive)

    # -- Degraded benchmark -------------------------------------------------

    def degraded_optimal_load(self, active_volume: int) -> int:
        """``L*_deg = ceil(active_volume / N_surviving)``.

        The omniscient benchmark recomputed against surviving capacity; 0
        for an idle machine.  Raises :class:`FaultPlanError` when volume is
        active but nothing survives (the view's own ``fail`` never permits
        that state).
        """
        if active_volume == 0:
            return 0
        if self.surviving_pes == 0:  # pragma: no cover - unreachable via fail()
            raise FaultPlanError("active volume on a machine with no survivors")
        return ceil_div(active_volume, self.surviving_pes)

    # -- Introspection -------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"DegradedView(machine={self.machine!r}, "
            f"failed={sorted(self._failed)!r}, "
            f"surviving={self.surviving_pes})"
        )

    def describe(self) -> dict:
        """Structured summary for reports and archives."""
        return {
            "failed_nodes": [int(v) for v in self.failed_nodes],
            "num_failed_pes": self._failed_pes,
            "surviving_pes": self.surviving_pes,
            "min_alive_subtree": self.min_alive_subtree_size(),
            "max_alive_subtree": self.max_alive_subtree_size(),
        }
