"""Heap-indexed complete binary hierarchy over ``N = 2**n`` leaves.

This is the combinatorial skeleton shared by every partitionable topology in
the library.  The paper's tree machine *is* this hierarchy (PEs at leaves,
switches at internal nodes); the hypercube, fat-tree and mesh reuse it as
their recursive decomposition and only differ in how hierarchy nodes map to
physical PEs and wires.

Indexing convention (standard implicit heap):

* the root is node ``1``;
* node ``v`` has children ``2v`` and ``2v + 1``;
* level ``l`` (root = level 0) holds nodes ``[2**l, 2**(l+1))``;
* leaves live at level ``n`` and are nodes ``[N, 2N)``; leaf PE ``u`` is
  node ``N + u``.

A node at level ``l`` roots a submachine of ``N / 2**l`` PEs.  A *submachine
of size 2^x* in the paper's sense is exactly a node at level ``n - x``.

All functions are O(1) or O(log N) integer arithmetic; bulk per-level
queries are provided as NumPy-vectorized helpers used by the load tracker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import InvalidMachineError
from repro.types import NodeId, PEId, ilog2, is_power_of_two

__all__ = ["Hierarchy", "grown_node", "shrunk_node"]


def grown_node(node: NodeId, factor: int) -> NodeId:
    """Heap index of ``node`` after the machine grows by ``factor``.

    Growing ``N -> N * factor`` (``factor = 2**k``) makes the old tree the
    leftmost level-``k`` subtree of the new one, so physical PEs keep their
    indices.  A node at level ``l`` (index ``i`` within its level) stays at
    the same leaf span but now sits at level ``l + k`` with the same
    within-level index: ``node + (factor - 1) * 2**l``.
    """
    if not is_power_of_two(factor) or factor < 2:
        raise InvalidMachineError(
            f"grow factor must be a power of two >= 2, got {factor}"
        )
    level = node.bit_length() - 1
    return NodeId(node + (factor - 1) * (1 << level))


def shrunk_node(node: NodeId, factor: int) -> NodeId:
    """Heap index of ``node`` after the machine shrinks by ``factor``.

    Exact inverse of :func:`grown_node`: only nodes inside the leftmost
    ``1/factor`` of the tree survive a shrink (their PEs are the retained
    prefix); anything else raises :class:`InvalidMachineError`.
    """
    if not is_power_of_two(factor) or factor < 2:
        raise InvalidMachineError(
            f"shrink factor must be a power of two >= 2, got {factor}"
        )
    k = ilog2(factor)
    level = node.bit_length() - 1
    if level < k or (node >> (level - k)) != 1 << k:
        raise InvalidMachineError(
            f"node {node} lies outside the retained 1/{factor} of the tree"
        )
    return NodeId(node - (factor - 1) * (1 << (level - k)))


@dataclass(frozen=True)
class Hierarchy:
    """Index arithmetic for the complete binary hierarchy on ``num_leaves`` PEs.

    Immutable and stateless: it stores only ``num_leaves`` and its log, and
    provides the node/level/span arithmetic.  One instance is shared by the
    machine, the load tracker, the copy allocator, and the algorithms.
    """

    num_leaves: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.num_leaves):
            raise InvalidMachineError(
                f"hierarchy requires a power-of-two leaf count, got {self.num_leaves}"
            )

    # -- Basic quantities ----------------------------------------------------

    @property
    def height(self) -> int:
        """``n = log2 N``: number of levels below the root."""
        return ilog2(self.num_leaves)

    @property
    def num_nodes(self) -> int:
        """Total nodes, ``2N - 1`` (heap slots ``1 .. 2N-1``)."""
        return 2 * self.num_leaves - 1

    @property
    def root(self) -> NodeId:
        return 1

    def is_valid_node(self, v: NodeId) -> bool:
        return 1 <= v < 2 * self.num_leaves

    def _check(self, v: NodeId) -> None:
        if not self.is_valid_node(v):
            raise InvalidMachineError(
                f"node {v} outside hierarchy with {self.num_leaves} leaves"
            )

    # -- Levels and sizes ------------------------------------------------------

    def level_of(self, v: NodeId) -> int:
        """Depth of node ``v`` (root = 0, leaves = n)."""
        self._check(v)
        return v.bit_length() - 1

    def subtree_size(self, v: NodeId) -> int:
        """Number of leaf PEs under node ``v``."""
        return self.num_leaves >> self.level_of(v)

    def level_for_size(self, size: int) -> int:
        """Level whose nodes root submachines of exactly ``size`` PEs."""
        if not is_power_of_two(size) or size > self.num_leaves:
            raise InvalidMachineError(
                f"no submachine of size {size} in a {self.num_leaves}-leaf hierarchy"
            )
        return self.height - ilog2(size)

    def nodes_at_level(self, level: int) -> range:
        """Heap indices of all nodes at ``level``, left to right."""
        if not 0 <= level <= self.height:
            raise InvalidMachineError(
                f"level {level} outside hierarchy of height {self.height}"
            )
        return range(1 << level, 1 << (level + 1))

    def num_submachines(self, size: int) -> int:
        """How many (aligned) submachines of ``size`` PEs exist."""
        return self.num_leaves // size if is_power_of_two(size) else 0

    def node_for(self, size: int, index: int) -> NodeId:
        """The ``index``-th (left-to-right) submachine of ``size`` PEs."""
        level = self.level_for_size(size)
        count = 1 << level
        if not 0 <= index < count:
            raise InvalidMachineError(
                f"submachine index {index} out of range for size {size}"
            )
        return (1 << level) + index

    def index_within_level(self, v: NodeId) -> int:
        """Left-to-right position of ``v`` among nodes of its level."""
        return v - (1 << self.level_of(v))

    # -- Navigation -------------------------------------------------------------

    def parent(self, v: NodeId) -> NodeId:
        self._check(v)
        if v == 1:
            raise InvalidMachineError("the root has no parent")
        return v >> 1

    def left(self, v: NodeId) -> NodeId:
        c = 2 * v
        self._check(c)
        return c

    def right(self, v: NodeId) -> NodeId:
        c = 2 * v + 1
        self._check(c)
        return c

    def sibling(self, v: NodeId) -> NodeId:
        self._check(v)
        if v == 1:
            raise InvalidMachineError("the root has no sibling")
        return v ^ 1

    def is_leaf(self, v: NodeId) -> bool:
        self._check(v)
        return v >= self.num_leaves

    def ancestors(self, v: NodeId) -> Iterator[NodeId]:
        """Proper ancestors of ``v``, nearest first, ending at the root."""
        self._check(v)
        v >>= 1
        while v >= 1:
            yield v
            v >>= 1

    def path_to_root(self, v: NodeId) -> Iterator[NodeId]:
        """``v`` and then its proper ancestors up to the root."""
        self._check(v)
        while v >= 1:
            yield v
            v >>= 1

    def lca(self, a: NodeId, b: NodeId) -> NodeId:
        """Lowest common ancestor of two nodes."""
        self._check(a)
        self._check(b)
        la, lb = a.bit_length(), b.bit_length()
        if la > lb:
            a >>= la - lb
        elif lb > la:
            b >>= lb - la
        while a != b:
            a >>= 1
            b >>= 1
        return a

    def is_ancestor_or_self(self, anc: NodeId, v: NodeId) -> bool:
        """True iff ``anc`` lies on the path from the root to ``v`` (inclusive)."""
        self._check(anc)
        self._check(v)
        shift = v.bit_length() - anc.bit_length()
        return shift >= 0 and (v >> shift) == anc

    def contains(self, outer: NodeId, inner: NodeId) -> bool:
        """True iff submachine ``inner`` lies within submachine ``outer``."""
        return self.is_ancestor_or_self(outer, inner)

    # -- Leaf spans ------------------------------------------------------------

    def leaf_span(self, v: NodeId) -> tuple[PEId, PEId]:
        """Half-open PE interval ``[lo, hi)`` covered by node ``v``."""
        level = self.level_of(v)
        width = self.num_leaves >> level
        lo = (v - (1 << level)) * width
        return lo, lo + width

    def leaves(self, v: NodeId) -> range:
        """PE ids covered by node ``v``."""
        lo, hi = self.leaf_span(v)
        return range(lo, hi)

    def leaf_node(self, pe: PEId) -> NodeId:
        """Heap index of the leaf holding PE ``pe``."""
        if not 0 <= pe < self.num_leaves:
            raise InvalidMachineError(
                f"PE {pe} outside machine with {self.num_leaves} PEs"
            )
        return self.num_leaves + pe

    def enclosing_node(self, pe: PEId, size: int) -> NodeId:
        """The unique ``size``-PE submachine containing PE ``pe``."""
        level = self.level_for_size(size)
        self._check(self.leaf_node(pe))
        return (1 << level) + (pe // size)

    # -- Distances ---------------------------------------------------------------

    def tree_distance(self, a: NodeId, b: NodeId) -> int:
        """Number of hierarchy edges on the path between nodes ``a`` and ``b``."""
        anc = self.lca(a, b)
        la = self.level_of(a)
        lb = self.level_of(b)
        lanc = self.level_of(anc)
        return (la - lanc) + (lb - lanc)

    def leaf_distance(self, pe_a: PEId, pe_b: PEId) -> int:
        """Tree distance between two leaf PEs (0 for the same PE)."""
        return self.tree_distance(self.leaf_node(pe_a), self.leaf_node(pe_b))

    # -- Vectorized helpers -------------------------------------------------------

    def level_slice(self, level: int) -> slice:
        """Slice selecting level ``level`` in a heap-indexed array of size 2N."""
        return slice(1 << level, 1 << (level + 1))

    def roots_of_size(self, nodes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Mask: does ``nodes[k]`` root a ``sizes[k]``-PE submachine?

        The array form of ``is_valid_node(v) and subtree_size(v) == size``
        (which forces a power-of-two size ``<= N``): it holds exactly when
        ``N // size <= v < 2 * (N // size)``.
        """
        first = self.num_leaves // np.maximum(sizes, 1)
        return ((sizes >= 1) & (first * sizes == self.num_leaves)
                & (nodes >= first) & (nodes < 2 * first))

    def first_leaf_distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """:meth:`leaf_distance` between the first PEs of paired nodes.

        ``src`` and ``dst`` hold valid int64 node ids.  A node's first PE
        is ``(v << (height - level)) - N``, and two leaves are
        ``2 * bit_length(a ^ b)`` hops apart; bit lengths come from the
        float exponent, which is exact below ``2**53``.
        """

        def bit_length(x: np.ndarray) -> np.ndarray:
            return np.frexp(x.astype(np.float64))[1].astype(np.int64)

        a = (src << (self.height + 1 - bit_length(src))) - self.num_leaves
        b = (dst << (self.height + 1 - bit_length(dst))) - self.num_leaves
        return 2 * bit_length(a ^ b)

    def ancestor_sums(self, values: np.ndarray, level: int) -> np.ndarray:
        """For each node at ``level``, sum of ``values`` over its proper ancestors.

        ``values`` must be heap-indexed with length ``2N`` (index 0 unused).
        Runs in O(2**level) by pushing sums down level by level with
        ``np.repeat`` — the vectorized idiom recommended by the HPC guides
        instead of a per-node Python loop.
        """
        if values.shape[0] != 2 * self.num_leaves:
            raise InvalidMachineError(
                "ancestor_sums expects a heap-indexed array of length 2N"
            )
        acc = np.zeros(1, dtype=values.dtype)  # ancestor-sum of the root
        for l in range(level):
            acc = np.repeat(acc + values[self.level_slice(l)], 2)
        return acc
