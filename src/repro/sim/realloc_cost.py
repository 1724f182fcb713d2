"""Migration-cost model — the price side of the paper's trade-off.

The paper motivates the reallocation parameter d by noting that "process
reallocation can require extensive communication cost (e.g., moving
checkpointing states) and memory space (for the checkpointing)" but never
models the cost explicitly.  To make the trade-off *quantitative* in the
benches, this module prices a migration:

* every migrated task checkpoints ``bytes_per_pe`` bytes on each of its
  ``size`` PEs;
* the state travels ``distance`` hops in the physical topology (the
  machine's :meth:`~repro.machines.base.PartitionableMachine.migration_distance`);
* each reallocation event additionally pays a fixed ``barrier_cost``
  (global synchronisation, as a full repack needs a quiescent machine).

Costs are reported both as raw traffic (byte-hops) and as estimated seconds
given a per-link bandwidth, so the E4 bench can put "load imbalance" and
"reallocation cost" on comparable axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machines.base import PartitionableMachine
from repro.types import NodeId

__all__ = ["MigrationCostModel", "MigrationCharge"]


@dataclass(frozen=True)
class MigrationCharge:
    """Price of migrating one task from ``src`` to ``dst``."""

    size: int
    distance: int
    bytes_moved: float
    byte_hops: float
    seconds: float


@dataclass(frozen=True)
class MigrationCostModel:
    """Parameters of the checkpoint-and-move cost model.

    Defaults are loosely calibrated to the paper's era (CM-5-class: tens of
    MB/s links, megabyte-scale per-PE state) but the benches sweep them; the
    conclusions depend only on ratios.

    ``use_link_capacities`` (default on) lets capacity-aware topologies
    price the *time* of a move by their own link speeds: on a
    :class:`~repro.machines.fattree.FatTree`, the route's
    ``weighted_transfer_cost`` (sum of 1/capacity over traversed links)
    replaces the flat hops/bandwidth estimate, so a migration crossing fat
    upper levels is cheaper in seconds even though it covers the same hops.
    Traffic (byte-hops) is unaffected — it is a volume, not a time.
    """

    bytes_per_pe: float = 1.0e6      # checkpoint state per PE of the task
    link_bandwidth: float = 20.0e6   # bytes/second per hop traversed
    barrier_cost_seconds: float = 1.0e-3  # per reallocation event
    use_link_capacities: bool = True

    def charge(
        self, machine: PartitionableMachine, size: int, src: NodeId, dst: NodeId
    ) -> MigrationCharge:
        """Price one task's move; zero-cost if it stays put."""
        distance = machine.migration_distance(src, dst)
        bytes_moved = 0.0 if distance == 0 else self.bytes_per_pe * size
        byte_hops = bytes_moved * distance
        seconds = byte_hops / self.link_bandwidth if byte_hops else 0.0
        if (
            bytes_moved
            and self.use_link_capacities
            and hasattr(machine, "weighted_transfer_cost")
        ):
            h = machine.hierarchy
            a = h.leaf_span(src)[0]
            b = h.leaf_span(dst)[0]
            # weighted_transfer_cost is "time per unit of state per unit
            # base-capacity"; scale it to this model's bandwidth so that a
            # fatness-1 tree reproduces the flat estimate exactly.
            weighted_hops = machine.weighted_transfer_cost(a, b)
            seconds = bytes_moved * weighted_hops / self.link_bandwidth
        return MigrationCharge(
            size=size,
            distance=distance,
            bytes_moved=bytes_moved,
            byte_hops=byte_hops,
            seconds=seconds,
        )

    def bytes_moved(self, sizes: np.ndarray, distances: np.ndarray) -> np.ndarray:
        """Checkpoint bytes of many moves, each as :meth:`charge` prices it."""
        return np.where(distances == 0, 0.0, self.bytes_per_pe * sizes)

    def reallocation_overhead_seconds(self, num_reallocations: int) -> float:
        """Total barrier time across a run."""
        return self.barrier_cost_seconds * num_reallocations
