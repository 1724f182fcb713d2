"""Partitionable machine models: the hierarchy, topologies, and load state.

* :class:`~repro.machines.hierarchy.Hierarchy` — binary decomposition math.
* :class:`~repro.machines.tree.TreeMachine` — the paper's model.
* :class:`~repro.machines.hypercube.Hypercube`,
  :class:`~repro.machines.fattree.FatTree`,
  :class:`~repro.machines.mesh.Mesh2D` — other hierarchically decomposable
  topologies the paper names.
* :class:`~repro.machines.loads.LoadTracker` — per-PE thread-load state.
* :class:`~repro.machines.copies.BuddyCopy` /
  :class:`~repro.machines.copies.CopySet` — the "copies of T" device of
  procedures A_R and A_B.

The names load on first use (:mod:`repro._lazy`).
"""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "base": ["PartitionableMachine"],
    "butterfly": ["Butterfly"],
    "copies": ["BuddyCopy", "CopySet"],
    "fattree": ["FatTree"],
    "fragmentation": [
        "FragmentationProfile",
        "fragmentation_profile",
        "machine_potential",
        "submachine_potential",
    ],
    "hierarchy": ["Hierarchy", "grown_node", "shrunk_node"],
    "hypercube": ["Hypercube", "gray_code", "inverse_gray_code"],
    "loads": ["LoadTracker"],
    "mesh": ["Mesh2D", "morton_decode", "morton_encode"],
    "subcube": [
        "SubcubeAllocator",
        "SubcubeRegion",
        "is_subcube",
        "recognized_subcubes",
    ],
    "tree": ["TreeMachine"],
    "visualize": ["render_allocation", "render_tree"],
})

__all__ = [
    "PartitionableMachine",
    "Hierarchy",
    "grown_node",
    "shrunk_node",
    "TreeMachine",
    "Butterfly",
    "Hypercube",
    "FatTree",
    "Mesh2D",
    "LoadTracker",
    "FragmentationProfile",
    "fragmentation_profile",
    "machine_potential",
    "submachine_potential",
    "render_allocation",
    "SubcubeAllocator",
    "SubcubeRegion",
    "is_subcube",
    "recognized_subcubes",
    "render_tree",
    "BuddyCopy",
    "CopySet",
    "gray_code",
    "inverse_gray_code",
    "morton_decode",
    "morton_encode",
]
