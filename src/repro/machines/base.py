"""Abstract partitionable machine: hierarchy + physical interpretation.

The paper states its results for the tree machine but notes they "hold for
any hierarchically decomposable machine such as CM-5 and SP2", and that the
algorithms "also apply to other networks such as the butterfly, the
hypercube and the mesh".  We factor the library accordingly:

* all *allocation logic* operates on the abstract
  :class:`~repro.machines.hierarchy.Hierarchy` (which every topology here
  shares — a binary recursive decomposition into halves);
* a :class:`PartitionableMachine` subclass supplies the *physical*
  interpretation: where PEs sit, how far apart they are, and how expensive
  it is to migrate a submachine from one hierarchy node to another.  These
  costs feed the reallocation-cost model (``repro.sim.realloc_cost``) that
  quantifies the "reallocation is expensive" side of the paper's trade-off.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.errors import InvalidMachineError
from repro.machines.hierarchy import Hierarchy
from repro.machines.loads import LoadTracker
from repro.types import NodeId, PEId, ilog2, is_power_of_two

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PartitionableMachine"]


class PartitionableMachine(abc.ABC):
    """A machine of ``num_pes`` PEs with a binary hierarchical decomposition.

    Subclasses implement the physical geometry.  Instances are cheap: they
    hold only the hierarchy and parameters, not load state — load lives in
    :class:`~repro.machines.loads.LoadTracker` instances created per run.
    """

    def __init__(self, num_pes: int):
        if not is_power_of_two(num_pes):
            raise InvalidMachineError(
                f"a partitionable machine needs a power-of-two PE count, got {num_pes}"
            )
        self._hierarchy = Hierarchy(num_pes)

    # -- Shared structure ---------------------------------------------------

    @property
    def hierarchy(self) -> Hierarchy:
        return self._hierarchy

    @property
    def num_pes(self) -> int:
        return self._hierarchy.num_leaves

    @property
    def log_num_pes(self) -> int:
        """``log2 N`` — the ``log N`` in all of the paper's bounds."""
        return self._hierarchy.height

    def new_load_tracker(self) -> LoadTracker:
        """A fresh, empty load tracker for this machine."""
        return LoadTracker(self._hierarchy)

    def degraded_view(self):
        """A fresh fault overlay (no failures yet) for this machine.

        Returns a :class:`~repro.machines.degraded.DegradedView`; the
        machine itself stays immutable, so independent runs can carry
        independent fault states over one shared machine object.
        """
        from repro.machines.degraded import DegradedView

        return DegradedView(self)

    def validate_task_size(self, size: int) -> None:
        if not is_power_of_two(size) or size > self.num_pes:
            raise InvalidMachineError(
                f"task size {size} not admissible on a {self.num_pes}-PE machine"
            )

    # -- Online resize ------------------------------------------------------

    def resized(self, num_pes: int) -> "PartitionableMachine":
        """An equivalent machine of this topology with ``num_pes`` PEs.

        Machines are immutable, so an online resize produces a *new*
        machine object; the allocation kernel swaps it in atomically at a
        resize event and remaps node ids (see
        :func:`repro.machines.hierarchy.grown_node`).  Subclasses whose
        constructors take extra parameters override :meth:`_with_num_pes`
        to carry them over.
        """
        if num_pes == self.num_pes:
            return self
        return self._with_num_pes(num_pes)

    def _with_num_pes(self, num_pes: int) -> "PartitionableMachine":
        return type(self)(num_pes)

    def grow(self, factor: int = 2) -> "PartitionableMachine":
        """The machine after an online grow by ``factor`` (a power of two).

        The current machine becomes the leftmost ``1/factor`` of the new
        one: physical PEs keep their indices and the new capacity appends
        to the right.
        """
        if not is_power_of_two(factor) or factor < 2:
            raise InvalidMachineError(
                f"grow factor must be a power of two >= 2, got {factor}"
            )
        return self.resized(self.num_pes * factor)

    def shrink(self, factor: int = 2) -> "PartitionableMachine":
        """The machine after an online shrink by ``factor`` (a power of two).

        Only the leftmost ``num_pes / factor`` PEs are retained; callers
        (the kernel's resize event) must repack active tasks into the
        surviving prefix first.
        """
        if not is_power_of_two(factor) or factor < 2:
            raise InvalidMachineError(
                f"shrink factor must be a power of two >= 2, got {factor}"
            )
        if self.num_pes // factor < 1:
            raise InvalidMachineError(
                f"cannot shrink a {self.num_pes}-PE machine by {factor}"
            )
        return self.resized(self.num_pes // factor)

    # -- Physical interpretation (per topology) ---------------------------------

    @property
    @abc.abstractmethod
    def topology_name(self) -> str:
        """Short human-readable topology label (e.g. ``"tree"``)."""

    @abc.abstractmethod
    def pe_distance(self, a: PEId, b: PEId) -> int:
        """Hop count between two PEs in the physical interconnect."""

    @abc.abstractmethod
    def submachine_diameter(self, node: NodeId) -> int:
        """Max hop count between two PEs of the submachine at ``node``.

        Measures how "compact" the topology keeps an allocated partition —
        e.g. the dilation cost of hierarchical decomposition on a mesh.
        """

    def migration_distance(self, src: NodeId, dst: NodeId) -> int:
        """Hop count a migrating task's state travels from ``src`` to ``dst``.

        Default: distance between the first PEs of the two submachines (the
        PE-wise transfer is a parallel shift of corresponding PEs, and in all
        the topologies here corresponding PEs are equidistant to within a
        constant, so the first pair is representative).  ``0`` when the task
        does not move.
        """
        if src == dst:
            return 0
        h = self._hierarchy
        a = h.leaf_span(src)[0]
        b = h.leaf_span(dst)[0]
        return self.pe_distance(a, b)

    def migration_distances(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """:meth:`migration_distance` over paired int64 node arrays.

        This default calls the scalar method once per pair; topologies
        with a closed-form distance override it with array arithmetic.
        """
        import numpy as np

        return np.fromiter(
            (self.migration_distance(a, b) for a, b in zip(src.tolist(), dst.tolist())),
            dtype=np.int64,
            count=len(src),
        )

    # -- Introspection ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_pes={self.num_pes})"

    def describe(self) -> dict:
        """Structured summary used by the CLI and experiment reports."""
        return {
            "topology": self.topology_name,
            "num_pes": self.num_pes,
            "log_num_pes": self.log_num_pes,
            "num_hierarchy_nodes": self._hierarchy.num_nodes,
        }
