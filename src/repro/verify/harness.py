"""The differential harness: every algorithm vs. every referee, per sequence.

For each (algorithm, sequence) pair the harness runs the production engine
and then demands that four independent accounts of the run agree:

1. the engine's own metered ``max_load`` / ``optimal_load``;
2. :func:`repro.sim.audit.audit_run`'s NumPy interval referee;
3. :func:`repro.verify.oracle.oracle_audit`'s from-scratch brute force;
4. the theorem bounds registered on :class:`repro.core.registry.AlgorithmSpec`
   (``load_bound`` — Theorems 3.1/4.1/4.2 and Lemma 2), plus the universal
   ``max_load >= L*`` lower bound every valid placement obeys.

Randomized algorithms run with a fixed per-check seed so failures replay;
their expectation-only guarantees are not checked per run (the registry
gives them no ``load_bound``), but the referee agreement still is.

:func:`check_algorithm` is module-level and takes only picklable arguments,
so :class:`DifferentialHarness` can fan checks out over worker processes
with :func:`repro.sim.parallel.parallel_map`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence as TypingSequence

from repro.core.registry import ALGORITHM_SPECS, algorithm_names, make_algorithm
from repro.faults.plan import FaultPlan, generate_fault_plan
from repro.machines.tree import TreeMachine
from repro.sim.audit import audit_run
from repro.sim.parallel import parallel_map
from repro.sim.runner import run_traced
from repro.tasks.sequence import TaskSequence
from repro.types import ceil_div
from repro.verify.corpus import CorpusEntry, write_counterexample
from repro.verify.fuzzer import SequenceFuzzer, sequence_features
from repro.verify.report import VerifyReport
from repro.verify.shrink import shrink

__all__ = [
    "CheckOutcome",
    "DifferentialHarness",
    "check_algorithm",
    "check_algorithm_under_faults",
]

#: Reallocation parameters cycled across fuzzed sequences: both Theorem 4.2
#: branches (d < g and d >= g via inf), the degenerate repack-always d = 0,
#: and a fractional value.
DEFAULT_D_VALUES: tuple[float, ...] = (0.0, 1.0, 2.0, 0.5, math.inf)

#: Domain-separation key mixed into the per-index fault-plan RNG seed so
#: fault plans are independent of both the fuzzer stream and check seeds.
_FAULT_PLAN_KEY = 0xFA017


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of one algorithm on one sequence under all referees."""

    algorithm: str
    num_pes: int
    d: float
    seed: int
    num_events: int
    ok: bool
    violations: tuple[str, ...] = ()
    max_load: int = 0
    optimal_load: int = 0
    #: Theorem bound evaluated for this run, or ``None`` when the algorithm
    #: carries no per-run guarantee (randomized / baseline entries).
    bound: Optional[float] = None
    #: True when the check ran under a fault plan (the bound is then the
    #: degraded salvage bound, not the healthy theorem bound).
    faulted: bool = False
    #: Degradation summary (``FaultStats.to_dict``) for fault-mode checks.
    degradation: Optional[dict] = None
    #: True when the check ran a full churn scenario (faults + resizes)
    #: through the piecewise-N referees of :mod:`repro.verify.churn`.
    churned: bool = False
    #: Constant-machine-size epochs the piecewise referee audited.
    num_epochs: int = 0
    #: Online grow/shrink events in the scenario (churn checks only).
    num_resizes: int = 0
    #: True when the check refereed an SLO admission session
    #: (:func:`repro.verify.slo.check_slo_admission`); ``max_load`` is then
    #: the shadow model's peak and ``bound`` is unused.
    sloed: bool = False

    @property
    def slack(self) -> Optional[float]:
        """``bound - max_load`` — how much headroom the theorem left."""
        if self.bound is None or math.isinf(self.bound):
            return None
        return self.bound - self.max_load


def check_algorithm(
    name: str,
    num_pes: int,
    d: float,
    seed: int,
    sequence: TaskSequence,
) -> CheckOutcome:
    """Run one registry algorithm on ``sequence`` and referee the result.

    Module-level and picklable end to end: safe to dispatch through
    :func:`~repro.sim.parallel.parallel_map` workers.
    """
    from repro.verify.oracle import oracle_audit, tasks_table

    spec = ALGORITHM_SPECS[name]
    violations: list[str] = []
    max_load = 0
    lstar = sequence.optimal_load(num_pes)
    bound: Optional[float] = None
    if spec.load_bound is not None:
        bound = spec.load_bound(num_pes, d, lstar, sequence.total_arrival_size)

    machine = TreeMachine(num_pes)
    try:
        algorithm = make_algorithm(name, machine, d=d, seed=seed)
        result, intervals = run_traced(machine, algorithm, sequence)
    except Exception as exc:  # a crash IS a finding — record, don't propagate
        violations.append(f"engine: {type(exc).__name__}: {exc}")
        return CheckOutcome(
            algorithm=name,
            num_pes=num_pes,
            d=d,
            seed=seed,
            num_events=len(sequence),
            ok=False,
            violations=tuple(violations),
            optimal_load=lstar,
            bound=bound,
        )

    max_load = result.max_load

    audit = audit_run(machine, sequence, intervals)
    if not audit.ok:
        violations.extend(f"audit: {v}" for v in audit.violations)
    oracle = oracle_audit(num_pes, tasks_table(sequence), intervals)
    if not oracle.ok:
        violations.extend(f"oracle: {v}" for v in oracle.violations)

    # Referee agreement on the figure of merit and the benchmark.  The two
    # interval referees see the same data and must agree exactly.  The
    # engine's per-event metric is compared one-sidedly: within a batch of
    # same-timestamp events, an arrival can momentarily raise the load
    # before a repack at that same instant lowers it, and only the engine
    # observes that transient (the paper's L_A counts it; Theorem 4.2's
    # pre-repack argument bounds it).  So engine >= referees always, with
    # equality mandatory whenever no reallocation happened.
    if audit.max_load != oracle.max_load:
        violations.append(
            f"audit max_load {audit.max_load} != oracle max_load "
            f"{oracle.max_load} — interval referees disagree"
        )
    num_reallocs = result.metrics.realloc.num_reallocations
    if max_load < audit.max_load:
        violations.append(
            f"engine max_load {max_load} < audit max_load {audit.max_load} "
            "— engine under-reports"
        )
    if num_reallocs == 0 and max_load != audit.max_load:
        violations.append(
            f"engine max_load {max_load} != audit max_load {audit.max_load} "
            "with no reallocation to explain a transient"
        )
    if result.optimal_load != lstar:
        violations.append(
            f"engine optimal_load {result.optimal_load} != sequence L* {lstar}"
        )
    if oracle.optimal_load != lstar:
        violations.append(
            f"oracle L* {oracle.optimal_load} != sequence L* {lstar}"
        )

    # Universal lower bound: no valid placement beats L* (Section 2).
    if max_load < lstar:
        violations.append(f"max_load {max_load} < L* {lstar} — impossible placement")

    # Theorem upper bound (and equality for Theorem 3.1's exact guarantee).
    if bound is not None:
        if max_load > bound + 1e-9:
            violations.append(
                f"bound violated: max_load {max_load} > {bound:g} "
                f"({spec.guarantee}, d={d:g}, L*={lstar})"
            )
        if spec.bound_exact and max_load != int(bound):
            violations.append(
                f"exact bound missed: max_load {max_load} != {bound:g} "
                f"({spec.guarantee})"
            )

    # Batch-parity axis: columnar-capable algorithms additionally replay
    # the sequence through chunked apply_batch (the columnar engine's
    # path) and per-event apply, and must produce bit-identical
    # decisions, metrics, and state (fifth referee).  Gated on the
    # capability so non-columnar algorithms don't pay the extra runs.
    if getattr(algorithm, "columnar_state", None) is not None:
        from repro.verify.backends import check_backend_parity

        violations.extend(
            f"backend: {v}"
            for v in check_backend_parity(name, num_pes, d, seed, sequence)
        )

    return CheckOutcome(
        algorithm=name,
        num_pes=num_pes,
        d=d,
        seed=seed,
        num_events=len(sequence),
        ok=not violations,
        violations=tuple(violations),
        max_load=max_load,
        optimal_load=lstar,
        bound=bound,
    )


def check_algorithm_under_faults(
    name: str,
    num_pes: int,
    d: float,
    seed: int,
    sequence: TaskSequence,
    plan: FaultPlan,
) -> CheckOutcome:
    """Run one algorithm on ``sequence`` under ``plan`` and referee the run.

    The healthy theorem bounds do not apply on a degraded machine; instead
    the salvage guarantee is enforced: for a finite-``d`` algorithm under a
    granularity-respecting fault plan, the peak load stays within
    ``(d + 1) * max(ceil(s_peak / N_surviving_min), 1)`` — the degraded
    Lemma 1 repack optimum stretched by the d-reallocation transient.
    Referee agreement (audit == oracle, engine >= audit, equality when
    neither a reallocation nor a salvage repack happened) is demanded
    exactly as in the healthy check; healthy ``L*`` comparisons are
    omitted because kills reduce the realised volume below the sequence's
    nominal one.

    Module-level and picklable end to end, like :func:`check_algorithm`.
    """
    from repro.faults.injector import run_traced_with_faults
    from repro.verify.oracle import faults_table, oracle_audit, tasks_table

    violations: list[str] = []
    lstar = sequence.optimal_load(num_pes)
    bound: Optional[float] = None
    degradation: Optional[dict] = None

    machine = TreeMachine(num_pes)
    try:
        algorithm = make_algorithm(name, machine, d=d, seed=seed)
        d_eff = algorithm.reallocation_parameter
        result, intervals = run_traced_with_faults(
            machine, algorithm, sequence, plan
        )
    except Exception as exc:  # a crash IS a finding — record, don't propagate
        violations.append(f"engine: {type(exc).__name__}: {exc}")
        return CheckOutcome(
            algorithm=name,
            num_pes=num_pes,
            d=d,
            seed=seed,
            num_events=len(sequence),
            ok=False,
            violations=tuple(violations),
            optimal_load=lstar,
            faulted=True,
        )

    max_load = result.max_load
    degradation = result.metrics.faults.to_dict()

    audit = audit_run(machine, sequence, intervals, fault_plan=plan)
    if not audit.ok:
        violations.extend(f"audit: {v}" for v in audit.violations)
    oracle = oracle_audit(
        num_pes, tasks_table(sequence), intervals, faults=faults_table(plan)
    )
    if not oracle.ok:
        violations.extend(f"oracle: {v}" for v in oracle.violations)

    # Referee agreement: same discipline as the healthy check, except a
    # salvage repack is a second legitimate source of an engine-only
    # transient (arrival raises the load, the same-instant salvage lowers
    # it before the interval referees can see it).
    if audit.max_load != oracle.max_load:
        violations.append(
            f"audit max_load {audit.max_load} != oracle max_load "
            f"{oracle.max_load} — interval referees disagree"
        )
    transient_sources = (
        result.metrics.realloc.num_reallocations
        + result.metrics.faults.num_salvage_repacks
    )
    if max_load < audit.max_load:
        violations.append(
            f"engine max_load {max_load} < audit max_load {audit.max_load} "
            "— engine under-reports"
        )
    if transient_sources == 0 and max_load != audit.max_load:
        violations.append(
            f"engine max_load {max_load} != audit max_load {audit.max_load} "
            "with neither a reallocation nor a salvage to explain a transient"
        )

    # Degraded salvage bound.  s_peak is the sequence's nominal peak active
    # volume (kills only shrink it, so this is the conservative numerator);
    # the denominator is the worst surviving capacity the plan ever left.
    # Randomized algorithms carry w.h.p. guarantees only — a single run may
    # legally stack tasks past any deterministic bound, so the referee
    # skips them (same policy as ``load_bound is None`` in the registry).
    if (
        plan.num_failures > 0
        and math.isfinite(d_eff)
        and not ALGORITHM_SPECS[name].randomized
    ):
        min_surviving = plan.min_surviving_pes(num_pes)
        s_peak = oracle.peak_active_size
        bound = (d_eff + 1) * max(ceil_div(s_peak, min_surviving), 1)
        if max_load > bound + 1e-9:
            violations.append(
                f"salvage bound violated: max_load {max_load} > {bound:g} "
                f"((d+1)*ceil(s_peak/N_surv) with d={d_eff:g}, "
                f"s_peak={s_peak}, N_surv={min_surviving})"
            )

    return CheckOutcome(
        algorithm=name,
        num_pes=num_pes,
        d=d,
        seed=seed,
        num_events=len(sequence),
        ok=not violations,
        violations=tuple(violations),
        max_load=max_load,
        optimal_load=lstar,
        bound=bound,
        faulted=True,
        degradation=degradation,
    )


class DifferentialHarness:
    """Coverage-guided differential fuzzing over the whole registry.

    Parameters
    ----------
    num_pes:
        Machine size (power of two).
    algorithms:
        Registry names to exercise; defaults to every registered algorithm.
    d_values:
        Reallocation parameters cycled one-per-sequence.
    seed:
        Master seed for the fuzzer and the per-check algorithm seeds.
    jobs:
        Fan-out for per-sequence algorithm checks (``None``/``1`` = serial,
        ``-1`` = all cores) — same convention as the rest of the library.
    corpus_dir:
        Where shrunk counterexamples are written (skipped when ``None``).
    timeout / retries:
        Per-check wall-clock bound and transient-failure retry rounds,
        passed straight to :func:`repro.sim.parallel.parallel_map` — a
        wedged or crashed check fails (and is retried) alone instead of
        hanging the campaign.
    """

    def __init__(
        self,
        num_pes: int,
        *,
        algorithms: Optional[TypingSequence[str]] = None,
        d_values: TypingSequence[float] = DEFAULT_D_VALUES,
        seed: int = 0,
        jobs: Optional[int] = None,
        corpus_dir=None,
        timeout: Optional[float] = None,
        retries: int = 0,
    ):
        names = list(algorithms) if algorithms is not None else algorithm_names()
        unknown = [n for n in names if n not in ALGORITHM_SPECS]
        if unknown:
            # Reuse the registry's clean error so the CLI path stays uniform.
            make_algorithm(unknown[0], TreeMachine(num_pes))
        self.num_pes = num_pes
        self.algorithms = names
        self.d_values = tuple(d_values)
        self.seed = seed
        self.jobs = jobs
        self.corpus_dir = corpus_dir
        self.timeout = timeout
        self.retries = retries

    def check_sequence(
        self,
        sequence: TaskSequence,
        *,
        d: float = 2.0,
        seed: int = 0,
        plan: Optional[FaultPlan] = None,
    ) -> list[CheckOutcome]:
        """Run every configured algorithm on one sequence.

        With a ``plan`` the fault-mode check runs instead of the healthy one.
        """
        if plan is not None and not plan.is_empty:
            return parallel_map(
                check_algorithm_under_faults,
                [
                    (name, self.num_pes, d, seed, sequence, plan)
                    for name in self.algorithms
                ],
                jobs=self.jobs,
                timeout=self.timeout,
                retries=self.retries,
            )
        return parallel_map(
            check_algorithm,
            [(name, self.num_pes, d, seed, sequence) for name in self.algorithms],
            jobs=self.jobs,
            timeout=self.timeout,
            retries=self.retries,
        )

    def _plan_for(self, sequence: TaskSequence, index: int) -> FaultPlan:
        """Deterministic per-index fault plan (independent of outcomes)."""
        import numpy as np

        rng = np.random.default_rng([self.seed, _FAULT_PLAN_KEY, index])
        return generate_fault_plan(self.num_pes, sequence, rng)

    def fuzz(
        self,
        *,
        max_sequences: Optional[int] = None,
        budget: Optional[float] = None,
        shrink_violations: bool = True,
        faults: bool = False,
        checkpoint=None,
    ) -> VerifyReport:
        """Run a fuzzing campaign and return the :class:`VerifyReport`.

        ``max_sequences`` caps the number of fuzzed sequences; ``budget``
        caps wall-clock seconds.  At least one of the two must be given.
        Every violation is (optionally) shrunk to a minimal counterexample
        and, when ``corpus_dir`` is set, written there for replay.

        With ``faults=True`` every sequence additionally gets a
        deterministic per-index fault plan and runs through
        :func:`check_algorithm_under_faults`.  Faulted violations are
        stored unshrunk: shrinking changes the task-size census and with
        it the plan's granularity floor, so the reduced sequence would no
        longer reproduce the same degraded geometry.

        ``checkpoint`` (a path) journals per-index outcomes so an
        interrupted campaign resumes from completed indices: the fuzzer's
        sequence stream is a pure function of the seed, so regeneration is
        exact and the resumed report is identical to an uninterrupted run.
        """
        if max_sequences is None and budget is None:
            raise ValueError("give max_sequences and/or budget")
        fuzzer = SequenceFuzzer(self.num_pes, seed=self.seed)
        report = VerifyReport(
            num_pes=self.num_pes, seed=self.seed, algorithms=tuple(self.algorithms)
        )
        journal = None
        if checkpoint is not None:
            from repro.sim.checkpoint import CheckpointJournal

            journal = CheckpointJournal(
                checkpoint,
                fingerprint={
                    "kind": "verify-fuzz",
                    "num_pes": self.num_pes,
                    "seed": self.seed,
                    "algorithms": list(self.algorithms),
                    "d_values": [repr(d) for d in self.d_values],
                    "faults": faults,
                },
            )
        cached = journal.completed() if journal is not None else {}
        start = time.monotonic()
        index = 0
        while True:
            if max_sequences is not None and index >= max_sequences:
                break
            if budget is not None and time.monotonic() - start >= budget:
                break
            # The sequence must be generated even for cached indices: the
            # fuzzer's RNG stream and coverage census have to advance
            # exactly as in the uninterrupted run.
            sequence = fuzzer.generate()
            d = self.d_values[index % len(self.d_values)]
            seed = self.seed + index
            plan = self._plan_for(sequence, index) if faults else None
            if index in cached:
                outcomes = cached[index]
            else:
                outcomes = self.check_sequence(sequence, d=d, seed=seed, plan=plan)
                if journal is not None:
                    journal.record(index, outcomes)
            report.sequences_tried += 1
            for outcome in outcomes:
                report.record(outcome)
                if not outcome.ok:
                    report.counterexamples.append(
                        self._shrink_and_store(
                            sequence,
                            outcome,
                            shrink_violations and not outcome.faulted,
                            plan=plan,
                        )
                    )
            index += 1
        if journal is not None:
            journal.close()
        report.elapsed = time.monotonic() - start
        report.features = sorted(
            fuzzer.coverage, key=lambda f: (f.size_classes, f.depth, f.volume, f.burst)
        )
        return report

    def fuzz_churn(
        self,
        *,
        max_sequences: Optional[int] = None,
        budget: Optional[float] = None,
        horizon: float = 60.0,
        checkpoint=None,
    ) -> VerifyReport:
        """Run a churn-mode campaign: full scenarios, piecewise-N referees.

        The coverage-guided :class:`~repro.verify.fuzzer.ChurnFuzzer`
        generates admissible churn scenarios (faults, kills, flash-crowd
        storms, diurnal arrivals, grow/shrink schedules); every scenario
        runs through :func:`repro.verify.churn.check_algorithm_under_churn`
        for each configured algorithm.  Violating scenarios are stored
        *unshrunk* — like fault-mode entries, shrinking would change the
        epoch structure and the granularity census the scenario's
        admissibility rests on — with their resize schedule, so corpus
        replay dispatches them back through the churn check.

        ``checkpoint`` journaling and resume semantics match :meth:`fuzz`.
        """
        from repro.verify.churn import check_algorithm_under_churn
        from repro.verify.fuzzer import ChurnFuzzer

        if max_sequences is None and budget is None:
            raise ValueError("give max_sequences and/or budget")
        fuzzer = ChurnFuzzer(self.num_pes, seed=self.seed, horizon=horizon)
        report = VerifyReport(
            num_pes=self.num_pes, seed=self.seed, algorithms=tuple(self.algorithms)
        )
        journal = None
        if checkpoint is not None:
            from repro.sim.checkpoint import CheckpointJournal

            journal = CheckpointJournal(
                checkpoint,
                fingerprint={
                    "kind": "verify-fuzz-churn",
                    "num_pes": self.num_pes,
                    "seed": self.seed,
                    "algorithms": list(self.algorithms),
                    "d_values": [repr(d) for d in self.d_values],
                    "horizon": horizon,
                },
            )
        cached = journal.completed() if journal is not None else {}
        start = time.monotonic()
        index = 0
        while True:
            if max_sequences is not None and index >= max_sequences:
                break
            if budget is not None and time.monotonic() - start >= budget:
                break
            # Generated even for cached indices so the fuzzer's RNG stream
            # and coverage census advance exactly as in the original run.
            scenario = fuzzer.generate()
            d = self.d_values[index % len(self.d_values)]
            seed = self.seed + index
            if index in cached:
                outcomes = cached[index]
            else:
                outcomes = parallel_map(
                    check_algorithm_under_churn,
                    [(name, d, seed, scenario) for name in self.algorithms],
                    jobs=self.jobs,
                    timeout=self.timeout,
                    retries=self.retries,
                )
                if journal is not None:
                    journal.record(index, outcomes)
            report.sequences_tried += 1
            for outcome in outcomes:
                report.record(outcome)
                if not outcome.ok:
                    entry = CorpusEntry.from_sequence(
                        scenario.sequence,
                        algorithm=outcome.algorithm,
                        num_pes=self.num_pes,
                        d=outcome.d,
                        seed=outcome.seed,
                        check=(
                            outcome.violations[0]
                            if outcome.violations
                            else "unknown"
                        ),
                        fault_plan=scenario.plan,
                        resizes=scenario.resizes,
                    )
                    if self.corpus_dir is not None:
                        write_counterexample(entry, self.corpus_dir)
                    report.counterexamples.append(entry)
            index += 1
        if journal is not None:
            journal.close()
        report.elapsed = time.monotonic() - start
        report.features = sorted(
            fuzzer.coverage,
            key=lambda f: (f.size_classes, f.depth, f.volume, f.burst,
                           f.churn, f.storm, f.resizes),
        )
        return report

    def fuzz_slo(
        self,
        *,
        max_sequences: Optional[int] = None,
        budget: Optional[float] = None,
        load_targets: TypingSequence[int] = (1, 2, 4),
        queue_capacity: int = 16,
        checkpoint=None,
    ) -> VerifyReport:
        """Run an SLO-admission campaign through the shadow referee.

        Every fuzzed sequence is streamed through an SLO-gated
        :class:`~repro.service.session.AllocationSession` per configured
        algorithm and refereed by
        :func:`repro.verify.slo.check_slo_admission`: no admitted arrival
        may push its submachine past the load target, queued arrivals
        drain strictly FIFO exactly when capacity frees, rejects happen
        only at capacity, and two identical runs must produce identical
        admission logs.  ``load_targets`` are cycled one per sequence so
        both the tight (target 1: dedicated submachines only) and loose
        regimes get coverage.

        Violating sequences are stored *unshrunk*: shrinking re-times the
        event stream, which changes which arrivals queue versus admit, so
        the reduced sequence would no longer replay the same admission
        trace.  ``checkpoint`` journaling and resume semantics match
        :meth:`fuzz`.
        """
        from repro.verify.slo import check_slo_admission

        if max_sequences is None and budget is None:
            raise ValueError("give max_sequences and/or budget")
        targets = tuple(int(t) for t in load_targets)
        if not targets:
            raise ValueError("load_targets must be non-empty")
        fuzzer = SequenceFuzzer(self.num_pes, seed=self.seed)
        report = VerifyReport(
            num_pes=self.num_pes, seed=self.seed, algorithms=tuple(self.algorithms)
        )
        journal = None
        if checkpoint is not None:
            from repro.sim.checkpoint import CheckpointJournal

            journal = CheckpointJournal(
                checkpoint,
                fingerprint={
                    "kind": "verify-fuzz-slo",
                    "num_pes": self.num_pes,
                    "seed": self.seed,
                    "algorithms": list(self.algorithms),
                    "d_values": [repr(d) for d in self.d_values],
                    "load_targets": list(targets),
                    "queue_capacity": queue_capacity,
                },
            )
        cached = journal.completed() if journal is not None else {}
        start = time.monotonic()
        index = 0
        while True:
            if max_sequences is not None and index >= max_sequences:
                break
            if budget is not None and time.monotonic() - start >= budget:
                break
            # Generated even for cached indices so the fuzzer's RNG stream
            # and coverage census advance exactly as in the original run.
            sequence = fuzzer.generate()
            d = self.d_values[index % len(self.d_values)]
            seed = self.seed + index
            target = targets[index % len(targets)]
            if index in cached:
                outcomes = cached[index]
            else:
                outcomes = parallel_map(
                    check_slo_admission,
                    [
                        (name, self.num_pes, d, seed, sequence, target,
                         queue_capacity)
                        for name in self.algorithms
                    ],
                    jobs=self.jobs,
                    timeout=self.timeout,
                    retries=self.retries,
                )
                if journal is not None:
                    journal.record(index, outcomes)
            report.sequences_tried += 1
            for outcome in outcomes:
                report.record(outcome)
                if not outcome.ok:
                    entry = CorpusEntry.from_sequence(
                        sequence,
                        algorithm=outcome.algorithm,
                        num_pes=self.num_pes,
                        d=outcome.d,
                        seed=outcome.seed,
                        check=(
                            outcome.violations[0]
                            if outcome.violations
                            else "unknown"
                        ),
                    )
                    if self.corpus_dir is not None:
                        write_counterexample(entry, self.corpus_dir)
                    report.counterexamples.append(entry)
            index += 1
        if journal is not None:
            journal.close()
        report.elapsed = time.monotonic() - start
        report.features = sorted(
            fuzzer.coverage, key=lambda f: (f.size_classes, f.depth, f.volume, f.burst)
        )
        return report

    def _shrink_and_store(
        self,
        sequence: TaskSequence,
        outcome: CheckOutcome,
        do_shrink: bool,
        *,
        plan: Optional[FaultPlan] = None,
    ) -> CorpusEntry:
        """Reduce a violating sequence and persist it for replay."""

        def still_fails(candidate: TaskSequence) -> bool:
            return not check_algorithm(
                outcome.algorithm, self.num_pes, outcome.d, outcome.seed, candidate
            ).ok

        reduced = shrink(sequence, still_fails) if do_shrink else sequence
        entry = CorpusEntry.from_sequence(
            reduced,
            algorithm=outcome.algorithm,
            num_pes=self.num_pes,
            d=outcome.d,
            seed=outcome.seed,
            check=outcome.violations[0] if outcome.violations else "unknown",
            fault_plan=plan if outcome.faulted else None,
        )
        if self.corpus_dir is not None:
            write_counterexample(entry, self.corpus_dir)
        return entry
