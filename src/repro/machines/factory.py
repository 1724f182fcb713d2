"""Machine descriptor round-trip: describe a machine, rebuild it anywhere.

A *descriptor* is the small JSON-safe dict that pins a machine's identity
(topology name, PE count, and any topology-specific parameters).  It is the
form machines travel in inside run archives
(:mod:`repro.sim.archive`), kernel snapshots
(:meth:`repro.kernel.AllocationKernel.snapshot`), and streaming-session
checkpoints — anywhere a machine must be reconstructed bit-identically in
another process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.errors import TraceFormatError

if TYPE_CHECKING:
    from repro.machines.base import PartitionableMachine

__all__ = ["machine_descriptor", "machine_from_descriptor"]


def machine_descriptor(machine: PartitionableMachine) -> dict:
    """The minimal dict from which :func:`machine_from_descriptor` rebuilds
    an equivalent machine."""
    desc: dict = {"topology": machine.topology_name, "num_pes": machine.num_pes}
    if desc["topology"].startswith("fattree"):
        desc["fatness"] = machine.fatness
        desc["base_capacity"] = machine.base_capacity
    return desc


def machine_from_descriptor(desc: Mapping) -> PartitionableMachine:
    """Rebuild a machine from its descriptor (inverse of
    :func:`machine_descriptor`).  Only the topology named is imported."""
    topology = desc["topology"]
    n = int(desc["num_pes"])
    if topology == "tree":
        from repro.machines.tree import TreeMachine

        return TreeMachine(n)
    if topology.startswith("fattree"):
        from repro.machines.fattree import FatTree

        return FatTree(
            n,
            fatness=float(desc.get("fatness", 2.0)),
            base_capacity=float(desc.get("base_capacity", 1.0)),
        )
    if topology in ("hypercube-binary", "hypercube-gray"):
        from repro.machines.hypercube import Hypercube

        return Hypercube(n, layout=topology.removeprefix("hypercube-"))
    if topology == "butterfly":
        from repro.machines.butterfly import Butterfly

        return Butterfly(n)
    if topology == "mesh2d":
        from repro.machines.mesh import Mesh2D

        return Mesh2D(n)
    raise TraceFormatError(f"unknown topology {topology!r} in descriptor")
