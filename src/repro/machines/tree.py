"""The paper's tree machine (Browning's tree machine; cf. refs [3, 6]).

An ``N``-PE tree machine is an ``N``-leaf complete binary tree whose leaves
hold PEs and whose internal nodes hold communication switches.  A message
between PEs ``a`` and ``b`` climbs from leaf ``a`` to their lowest common
ancestor switch and descends to leaf ``b``, so the hop count is exactly the
tree distance between the two leaves.

Submachines are complete subtrees, i.e. precisely the nodes of the shared
:class:`~repro.machines.hierarchy.Hierarchy` — the physical and logical
decompositions coincide, which is why the paper states everything on this
topology.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machines.base import PartitionableMachine
from repro.types import NodeId, PEId, ilog2

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TreeMachine"]


class TreeMachine(PartitionableMachine):
    """Complete-binary-tree interconnect with PEs at the leaves."""

    @property
    def topology_name(self) -> str:
        return "tree"

    def pe_distance(self, a: PEId, b: PEId) -> int:
        """Hops between leaves: up to the LCA switch and back down."""
        return self._hierarchy.leaf_distance(a, b)

    def migration_distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Leaf distance between first PEs, ``2 * bit_length(a ^ b)``, in bulk."""
        return self._hierarchy.first_leaf_distances(src, dst)

    def submachine_diameter(self, node: NodeId) -> int:
        """A ``2^x``-PE subtree has diameter ``2x`` (leaf-root-leaf)."""
        size = self._hierarchy.subtree_size(node)
        return 2 * ilog2(size)

    def switch_levels_used(self, node: NodeId) -> int:
        """Number of switch levels internal to the submachine at ``node``.

        Useful for modelling per-partition switch contention: a ``2^x``-PE
        subtree contains ``x`` internal switch levels.
        """
        return ilog2(self._hierarchy.subtree_size(node))

    def surviving_diameter(self, view) -> int:
        """Max hop count between two *surviving* PEs under a fault overlay.

        A failed switch severs its whole subtree, so the live interconnect
        is the tree restricted to alive leaves; its diameter is realised by
        the leftmost and rightmost survivors (their LCA is the highest
        switch any surviving pair routes through).  0 when at most one PE
        survives.  ``view`` is a :class:`~repro.machines.degraded.DegradedView`
        of this machine.
        """
        import numpy as np

        alive = np.flatnonzero(view.alive_leaf_mask())
        if alive.size <= 1:
            return 0
        return self.pe_distance(int(alive[0]), int(alive[-1]))
