"""Two-choice randomized placement — the balanced-allocations extension.

The paper cites Azar, Broder, Karlin and Upfal's "Balanced Allocations" [2]
in its related work: for balls into bins, sampling *two* random bins and
choosing the less loaded drops the max load from ``Theta(log n / log log n)``
to ``Theta(log log n)``.  The natural submachine analogue — sample two
random ``2^x``-PE submachines, place in the one with smaller load, ties to
the leftmost — is an obvious "future work" hybrid between the paper's
oblivious randomized algorithm (Section 5.1) and its load-aware greedy A_G.

Ablation A2 measures how much of the balanced-allocations gain survives the
submachine setting, where tasks of different sizes couple the "bins".

With a ``load_target`` (``A_2C``, the SLO-serving mode — see
``docs/SLO.md``) the probes are drawn from the *admissible* submachines
only — those whose post-placement load would stay within the target — so
random placement stops creating hotspots the admission controller already
ruled out.  When the admission gate upstream has verified the arrival
(min submachine load ``< target``), the admissible pool is non-empty and
every probe, hence the placement, respects the target.  Ungated, an empty
pool falls back to probing all submachines (still placing in the lighter),
and the session's ``slo_violations`` counter meters the overshoot.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

import numpy as np

from repro.core.base import AllocationAlgorithm, Placement
from repro.machines.base import PartitionableMachine
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["TwoChoiceAlgorithm"]


class TwoChoiceAlgorithm(AllocationAlgorithm):
    """Pick two uniformly random submachines, use the less loaded one.

    ``load_target`` switches on hotspot avoidance: probes are sampled
    (without replacement) from the admissible submachines — level load
    ``< load_target`` — falling back to the whole level only when no
    submachine is admissible.  ``None`` (the default) keeps the classic
    oblivious two-choice draw, bit-identical to previous releases.
    """

    def __init__(
        self,
        machine: PartitionableMachine,
        rng: np.random.Generator,
        num_choices: int = 2,
        load_target: Optional[int] = None,
    ):
        super().__init__(machine)
        if num_choices < 1:
            raise ValueError(f"num_choices must be >= 1, got {num_choices}")
        if load_target is not None and load_target < 1:
            raise ValueError(f"load_target must be >= 1, got {load_target}")
        self._rng = rng
        self._num_choices = num_choices
        self._load_target = None if load_target is None else int(load_target)

    @property
    def name(self) -> str:
        if self._load_target is not None:
            return f"A_{self._num_choices}C(L<={self._load_target})"
        return f"A_{self._num_choices}choice"

    @property
    def is_randomized(self) -> bool:
        return True

    @property
    def load_target(self) -> Optional[int]:
        """The admissibility bound probes respect (None = ungated)."""
        return self._load_target

    def on_arrival(self, task: Task) -> Placement:
        self.machine.validate_task_size(task.size)
        loads = self.loads
        h = self.machine.hierarchy
        count = h.num_submachines(task.size)
        if self._load_target is None:
            pool = None
            draws = min(self._num_choices, count)
            # Sample without replacement so two choices are genuinely
            # distinct whenever the level has at least two submachines
            # (as in [2]).
            indices = self._rng.choice(count, size=draws, replace=False)
        else:
            # Admissible-only probing: one vectorized level scan, then the
            # same without-replacement draw over the admissible pool.
            level = loads.level_loads(task.size)
            pool = np.flatnonzero(level + 1 <= self._load_target)
            if pool.size == 0:
                pool = np.arange(count)
            draws = min(self._num_choices, int(pool.size))
            indices = pool[self._rng.choice(pool.size, size=draws, replace=False)]
        best_node: NodeId | None = None
        best_key: tuple[int, int] | None = None
        for index in np.sort(indices):
            node = h.node_for(task.size, int(index))
            key = (loads.submachine_load(node), int(index))
            if best_key is None or key < best_key:
                best_key, best_node = key, node
        assert best_node is not None
        return Placement(task.task_id, best_node)

    def state(self) -> dict[str, Any]:
        return {"rng": self._rng.bit_generator.state}

    def load_state(
        self,
        state: Mapping[str, Any],
        tasks: Mapping[TaskId, Task],
        placements: Mapping[TaskId, NodeId],
    ) -> None:
        self._rng.bit_generator.state = state["rng"]
