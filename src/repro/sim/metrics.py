"""Metric collection for simulation runs.

The paper's figure of merit is ``L_A(sigma) = max over time of max PE
load``; the collector keeps it exactly as a running maximum (updated
after *every* event), plus the per-PE load snapshot at the peak and
reallocation/fault counters — O(N) at most, never O(events).  The
max-load time series is history: drivers fold a :class:`LoadTimeSeries`
from the decision stream (:class:`~repro.sim.history.RunHistory`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.types import Time

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LoadTimeSeries",
    "ReallocationStats",
    "FaultStats",
    "MetricsCollector",
    "jain_fairness",
]


def jain_fairness(loads: np.ndarray) -> float:
    """Jain's fairness index of a load vector: ``(sum x)^2 / (n * sum x^2)``.

    1.0 means perfectly balanced; ``1/n`` means one PE carries everything.
    Defined as 1.0 for an all-zero vector (an empty machine is balanced).
    """
    import numpy as np

    total = float(loads.sum())
    if total == 0.0:
        return 1.0
    return total * total / (loads.size * float(np.square(loads).sum()))


@dataclass
class LoadTimeSeries:
    """Max PE load sampled after every event."""

    times: list[Time] = field(default_factory=list)
    max_loads: list[int] = field(default_factory=list)

    def record(self, time: Time, max_load: int) -> None:
        self.times.append(time)
        self.max_loads.append(max_load)

    @property
    def peak(self) -> int:
        """``L_A(sigma)``: maximum over the whole run (0 if no events)."""
        return max(self.max_loads, default=0)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        return np.asarray(self.times), np.asarray(self.max_loads, dtype=np.int64)

    def time_average(self) -> float:
        """Time-weighted average of the max load (piecewise constant)."""
        if len(self.times) < 2:
            return float(self.max_loads[0]) if self.max_loads else 0.0
        import numpy as np

        t = np.asarray(self.times)
        v = np.asarray(self.max_loads, dtype=float)
        dt = np.diff(t)
        span = t[-1] - t[0]
        if span <= 0:
            return float(v.max())
        return float((v[:-1] * dt).sum() / span)


def _fold(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...``, added strictly left to right."""
    import numpy as np

    return float(np.add.accumulate(np.concatenate(([start], values)), dtype=np.float64)[-1])


@dataclass
class ReallocationStats:
    """Accounting of reallocation events and the migrations they caused."""

    num_reallocations: int = 0
    num_migrations: int = 0          # tasks whose node actually changed
    num_stationary: int = 0          # tasks remapped to their current node
    migrated_pe_volume: int = 0      # sum of sizes of migrated tasks
    traffic_pe_hops: float = 0.0     # size x migration-distance, summed
    checkpoint_bytes: float = 0.0    # from the cost model, if attached

    def record_reallocation(self) -> None:
        self.num_reallocations += 1

    def record_move(self, size: int, distance: int, bytes_moved: float) -> None:
        self.num_migrations += 1
        self.migrated_pe_volume += size
        self.traffic_pe_hops += size * distance
        self.checkpoint_bytes += bytes_moved

    def record_moves(
        self, sizes: np.ndarray, distances: np.ndarray, bytes_moved: np.ndarray
    ) -> None:
        """Record many moves, exactly as one :meth:`record_move` per move.

        The float totals fold in one move at a time, in the given order:
        ``np.add.accumulate`` is a sequential left fold, whereas a pairwise
        ``np.sum`` rounds differently and would change the state digests.
        """
        if not len(sizes):
            return
        self.num_migrations += len(sizes)
        self.migrated_pe_volume += int(sizes.sum())
        self.traffic_pe_hops = _fold(self.traffic_pe_hops, sizes * distances)
        self.checkpoint_bytes = _fold(self.checkpoint_bytes, bytes_moved)

    def record_stationary(self, count: int = 1) -> None:
        self.num_stationary += count

    def to_state(self) -> dict:
        """JSON-safe snapshot (kernel snapshot format)."""
        return dict(asdict(self))

    @classmethod
    def from_state(cls, state: dict) -> "ReallocationStats":
        return cls(**state)


@dataclass
class FaultStats:
    """Degradation accounting for fault-injected runs.

    Salvage repacks (triggered by failures/repairs, not the ``d`` budget)
    are metered separately from :class:`ReallocationStats` — in the
    external-perturbation framing of Bender et al. they are charged to the
    fault, not to the algorithm's reallocation budget.  Orphaned-task
    latency is the *modeled recovery time* of salvaging an orphan's state
    onto surviving PEs (the cost model's transfer seconds); event time does
    not advance during a salvage, so this is the physically meaningful
    latency figure.
    """

    num_failures: int = 0
    num_repairs: int = 0
    num_kills: int = 0
    #: Tasks whose placement overlapped a failing subtree (summed per failure).
    orphaned_tasks: int = 0
    orphaned_pe_volume: int = 0
    #: Full A_R repacks triggered by fault events (budget repacks excluded).
    num_salvage_repacks: int = 0
    salvage_migrations: int = 0
    salvage_pe_volume: int = 0
    salvage_traffic_pe_hops: float = 0.0
    #: Modeled recovery time of orphaned tasks (cost-model seconds).
    orphan_latency_total: float = 0.0
    orphan_latency_max: float = 0.0
    #: Fewest PEs alive at any instant (machine size if never degraded).
    min_surviving_pes: int = 0
    #: Peak of the degraded benchmark ``L*_deg = ceil(volume/surviving)``.
    peak_degraded_lstar: int = 0
    #: Worst instantaneous ``max_load - L*_deg`` over the run.
    load_overshoot_vs_degraded: int = 0
    #: Online resizes absorbed (elasticity events; their repack traffic is
    #: metered in the salvage counters above).
    num_grows: int = 0
    num_shrinks: int = 0

    @property
    def any_faults(self) -> bool:
        return (
            self.num_failures
            + self.num_repairs
            + self.num_kills
            + self.num_grows
            + self.num_shrinks
        ) > 0

    @property
    def num_resizes(self) -> int:
        return self.num_grows + self.num_shrinks

    def record_failure(self, orphans: int, orphan_volume: int) -> None:
        self.num_failures += 1
        self.orphaned_tasks += orphans
        self.orphaned_pe_volume += orphan_volume

    def record_salvage_move(
        self, size: int, distance: int, seconds: float, *, orphan: bool
    ) -> None:
        self.salvage_migrations += 1
        self.salvage_pe_volume += size
        self.salvage_traffic_pe_hops += size * distance
        if orphan:
            self.orphan_latency_total += seconds
            self.orphan_latency_max = max(self.orphan_latency_max, seconds)

    def to_dict(self) -> dict:
        return {
            "failures": self.num_failures,
            "repairs": self.num_repairs,
            "kills": self.num_kills,
            "orphaned_tasks": self.orphaned_tasks,
            "orphaned_pe_volume": self.orphaned_pe_volume,
            "salvage_repacks": self.num_salvage_repacks,
            "salvage_migrations": self.salvage_migrations,
            "salvage_pe_volume": self.salvage_pe_volume,
            "salvage_traffic_pe_hops": self.salvage_traffic_pe_hops,
            "orphan_latency_total": self.orphan_latency_total,
            "orphan_latency_max": self.orphan_latency_max,
            "min_surviving_pes": self.min_surviving_pes,
            "peak_degraded_lstar": self.peak_degraded_lstar,
            "load_overshoot_vs_degraded": self.load_overshoot_vs_degraded,
            "grows": self.num_grows,
            "shrinks": self.num_shrinks,
        }

    def to_state(self) -> dict:
        """JSON-safe snapshot (kernel snapshot format)."""
        return dict(asdict(self))

    @classmethod
    def from_state(cls, state: dict) -> "FaultStats":
        return cls(**state)


@dataclass
class MetricsCollector:
    """Everything measured during one run of one algorithm on one sequence."""

    realloc: ReallocationStats = field(default_factory=ReallocationStats)
    faults: FaultStats = field(default_factory=FaultStats)
    #: ``L_A`` so far: the running maximum of the post-event max load.
    max_load: int = 0
    #: Per-PE loads at the instant the max load peaked (for balance plots),
    #: as plain ints; :attr:`peak_snapshot` is their array form.
    peak_leaves: Optional[list[int]] = None
    peak_snapshot_time: Optional[Time] = None
    events_processed: int = 0

    @property
    def peak_snapshot(self) -> Optional[np.ndarray]:
        """:attr:`peak_leaves` as a new int64 array on each read (None
        before the first event)."""
        if self.peak_leaves is None:
            return None
        import numpy as np

        return np.array(self.peak_leaves, dtype=np.int64)

    @peak_snapshot.setter
    def peak_snapshot(self, loads: Optional[Iterable[int]]) -> None:
        self.peak_leaves = None if loads is None else [int(v) for v in loads]

    def observe(self, max_load: int) -> bool:
        """Record one post-event max load.  Returns whether a per-PE peak
        snapshot is due: on the first event, and whenever ``max_load``
        strictly raises ``L_A`` (so at most ``L_A + 1`` times a run).  The
        caller owns the loads; it stores them in ``peak_leaves`` and the
        event's time in ``peak_snapshot_time``."""
        self.events_processed += 1
        if max_load > self.max_load:
            self.max_load = max_load
            return True
        return self.peak_leaves is None

    def fairness_at_peak(self) -> float:
        if self.peak_leaves is None:
            return 1.0
        return jain_fairness(self.peak_snapshot)

    def to_state(self) -> dict:
        """Full JSON-safe snapshot — the exact collector state, so a
        restored kernel continues metering bit-identically."""
        return {
            "realloc": self.realloc.to_state(),
            "faults": self.faults.to_state(),
            "max_load": self.max_load,
            "peak_snapshot": (
                None if self.peak_leaves is None else list(self.peak_leaves)
            ),
            "peak_snapshot_time": (
                None
                if self.peak_snapshot_time is None
                else float(self.peak_snapshot_time)
            ),
            "events_processed": self.events_processed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "MetricsCollector":
        snap = state.get("peak_snapshot")
        return cls(
            realloc=ReallocationStats.from_state(state["realloc"]),
            faults=FaultStats.from_state(state["faults"]),
            max_load=int(state["max_load"]),
            peak_leaves=None if snap is None else [int(v) for v in snap],
            peak_snapshot_time=state.get("peak_snapshot_time"),
            events_processed=int(state["events_processed"]),
        )
