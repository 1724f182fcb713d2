"""CM-5-style fat-tree instantiation.

The Connection Machine CM-5 [17] — one of the paper's two motivating real
machines — connects PEs by a *fat-tree*: structurally a complete tree, but
with link capacity growing toward the root so the bisection bandwidth does
not collapse.  For allocation purposes it is hierarchically decomposable in
exactly the paper's sense; the extra physical detail we model is per-level
link multiplicity, which the reallocation-cost model uses to discount the
transfer time of migrations that cross well-provisioned upper levels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidMachineError
from repro.machines.base import PartitionableMachine
from repro.types import NodeId, PEId, ilog2

__all__ = ["FatTree"]


class FatTree(PartitionableMachine):
    """Fat-tree with capacity ``base_capacity * fatness**depth_from_leaf``.

    ``fatness = 2`` gives the full-bisection fat-tree; ``fatness = 1``
    degenerates to the plain tree machine.  The CM-5 data network thinned
    its upper levels (capacity factor 4 below, 2 above); ``fatness`` between
    1 and 2 approximates such designs.
    """

    def __init__(self, num_pes: int, fatness: float = 2.0, base_capacity: float = 1.0):
        super().__init__(num_pes)
        if fatness < 1.0:
            raise InvalidMachineError(f"fatness must be >= 1, got {fatness}")
        if base_capacity <= 0:
            raise InvalidMachineError(
                f"base_capacity must be positive, got {base_capacity}"
            )
        self.fatness = fatness
        self.base_capacity = base_capacity

    def _with_num_pes(self, num_pes: int) -> "FatTree":
        return FatTree(num_pes, fatness=self.fatness, base_capacity=self.base_capacity)

    @property
    def topology_name(self) -> str:
        return f"fattree-f{self.fatness:g}"

    def link_capacity(self, level: int) -> float:
        """Capacity of one link between level ``level`` and ``level + 1`` nodes.

        ``level`` is the depth of the upper endpoint (0 = links incident to
        the root's children ... ``height - 1`` = links incident to leaves).
        """
        if not 0 <= level < self.log_num_pes:
            raise InvalidMachineError(
                f"no link level {level} in a fat-tree of height {self.log_num_pes}"
            )
        depth_from_leaf = (self.log_num_pes - 1) - level
        return self.base_capacity * (self.fatness ** depth_from_leaf)

    def pe_distance(self, a: PEId, b: PEId) -> int:
        """Hop count — same as the plain tree (fatness adds capacity, not links)."""
        return self._hierarchy.leaf_distance(a, b)

    def migration_distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Tree hop counts in bulk, as :meth:`TreeMachine.migration_distances`."""
        return self._hierarchy.first_leaf_distances(src, dst)

    def weighted_transfer_cost(self, a: PEId, b: PEId) -> float:
        """Sum over the route of ``1 / capacity`` — time to push a unit of state.

        Routes climb to the LCA and descend; each traversed link contributes
        the reciprocal of its capacity, so migrations through fat upper
        levels are cheap relative to a plain tree.
        """
        if a == b:
            return 0.0
        h = self._hierarchy
        la = h.leaf_node(a)
        lb = h.leaf_node(b)
        anc = h.lca(la, lb)
        anc_level = h.level_of(anc)
        cost = 0.0
        # Climbing from each leaf to the LCA crosses links whose upper
        # endpoints sit at levels anc_level .. height-1, once per side.
        for level in range(anc_level, self.log_num_pes):
            cost += 2.0 / self.link_capacity(level)
        return cost

    def submachine_diameter(self, node: NodeId) -> int:
        size = self._hierarchy.subtree_size(node)
        return 2 * ilog2(size)

    def bisection_capacity(self, node: NodeId) -> float:
        """Aggregate capacity across the bisection of the submachine at ``node``.

        The bisection of a ``2^x``-PE subtree is the pair of links joining its
        two halves to its root switch.
        """
        h = self._hierarchy
        size = h.subtree_size(node)
        if size < 2:
            raise InvalidMachineError("a single PE has no bisection")
        level_of_children_links = h.level_of(node)
        return 2.0 * self.link_capacity(level_of_children_links)
