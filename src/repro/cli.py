"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands:

* ``repro list``                 — list available experiments and scenarios.
* ``repro experiment e4``        — run one experiment and print its table.
* ``repro all``                  — run every experiment (the full paper).
* ``repro simulate ...``         — ad-hoc run: one algorithm on a synthetic
  workload or named scenario, with optional ASCII plots.
* ``repro sweep ...``            — load-vs-d sweep on one machine size.
* ``repro describe ...``         — profile a workload (rates, sizes, volumes).
* ``repro simulate --save-run F`` + ``repro audit F`` — archive a run and
  independently re-verify it (placement legality, recomputed load series).
* ``repro compare ...``          — several algorithms side by side.
* ``repro emit ...``             — print a workload as a JSONL event stream.
* ``repro simulate --stream``    — replay a JSONL event stream from stdin,
  one decision record per event on stdout.
* ``repro serve ...``            — long-lived journaled allocation session:
  JSONL events in, decisions out, durable and resumable via ``--journal``.
* ``repro verify ...``           — differential verification: fuzz task
  sequences and cross-check every algorithm against the independent
  auditor, the brute-force oracle, and the paper's theorem bounds.
* ``repro simulate --churn-rate R --resize 'grow@30,shrink@75'`` — full
  churn scenario (faults, kills, storms, online grow/shrink) with
  steady-state metrics; ``repro verify --churn`` fuzzes such scenarios
  through the piecewise-N referees.

``all``, ``report``, and ``sweep`` take ``--jobs K`` (``-1`` = all cores)
to fan independent runs across worker processes; results are identical to
a serial run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.registry import ALGORITHM_SPECS, algorithm_names, make_algorithm

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.analysis.experiments import EXPERIMENTS
    from repro.workloads.scenarios import SCENARIOS

    print("experiments:")
    for exp_id, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id}: {doc}")
    print("\nalgorithms (for `simulate --algorithm`):")
    for name in algorithm_names():
        spec = ALGORITHM_SPECS[name]
        print(f"  {name}: {spec.paper_name} (sec {spec.section}) — {spec.guarantee}")
    print("\nscenarios (for `simulate --workload`):")
    for name, fn in SCENARIOS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {name}: {doc}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import EXPERIMENTS

    exp_id = args.id.lower()
    if exp_id not in EXPERIMENTS:
        print(f"unknown experiment {exp_id!r}; try `repro list`", file=sys.stderr)
        return 2
    print(EXPERIMENTS[exp_id]().render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import generate_report

    ids = args.ids.split(",") if args.ids else None
    try:
        text = generate_report(args.out, experiment_ids=ids, jobs=args.jobs)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.out:
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_experiments

    for report in run_experiments(jobs=args.jobs):
        print(report.render())
        print()
    return 0


#: ``--topology`` name -> (class in :mod:`repro.machines`, extra arguments).
_TOPOLOGIES = {
    "tree": ("TreeMachine", {}),
    "fattree": ("FatTree", {"fatness": 2.0}),
    "hypercube": ("Hypercube", {}),
    "hypercube-gray": ("Hypercube", {"layout": "gray"}),
    "butterfly": ("Butterfly", {}),
    "mesh": ("Mesh2D", {}),
}

#: ``--workload`` choices: the three generators plus the named scenarios,
#: kept here so that building the parser imports no workload module
#: (``tests/test_cli.py`` pins them to ``repro.workloads.SCENARIOS``).
_WORKLOADS = (
    "burst",
    "churn",
    "fragmentation_storm",
    "long_tail",
    "overload",
    "poisson",
    "production_1996",
    "steady_state",
    "wave_and_drain",
)


def _make_machine(args: argparse.Namespace):
    from repro import machines

    name, kwargs = _TOPOLOGIES[getattr(args, "topology", "tree")]
    return getattr(machines, name)(args.n, **kwargs)


def _make_workload(name: str, n: int, args: argparse.Namespace):
    from repro.workloads.generators import (
        burst_sequence,
        churn_sequence,
        poisson_sequence,
    )
    from repro.workloads.scenarios import SCENARIOS

    rng = np.random.default_rng(args.seed)
    if name == "poisson":
        return poisson_sequence(n, args.tasks, rng, utilization=args.utilization)
    if name == "burst":
        return burst_sequence(n, args.tasks, rng)
    if name == "churn":
        return churn_sequence(n, args.tasks, rng)
    if name in SCENARIOS:
        return SCENARIOS[name](n, rng, scale=args.scale)
    raise KeyError(name)


def _make_session(args: argparse.Namespace, journal_path=None, **options: Any):
    from repro.service import AllocationSession, SLOPolicy

    machine = _make_machine(args)
    slo = None
    slo_target = getattr(args, "slo_target", None)
    if slo_target is not None:
        slo = SLOPolicy(
            slowdown_target=slo_target,
            queue_capacity=getattr(args, "slo_queue", 64),
        )
    algo = make_algorithm(
        args.algorithm,
        machine,
        d=args.d,
        lazy=args.lazy,
        moves=getattr(args, "moves", 4),
        seed=args.seed,
        # Target-aware algorithms (two-choice A_2C) probe admissible
        # submachines only; others ignore the option.
        load_target=None if slo is None else slo.load_target,
    )
    options.setdefault("fsync_policy", getattr(args, "fsync", "always"))
    return AllocationSession(
        machine,
        algo,
        fault_tolerant=getattr(args, "faults", False),
        journal_path=journal_path,
        slo=slo,
        **options,
    )


def _cmd_stream(args: argparse.Namespace) -> int:
    """``repro simulate --stream``: stateless JSONL replay from stdin.

    A session's event history is its journal, so ``--save-run`` without
    ``--journal`` journals to a temporary directory (``fsync=batch``),
    removed on exit.  That journal is never resumed, so it carries no
    checkpoint riders and leaves no state sidecar.
    """
    import tempfile

    journal = getattr(args, "journal", None)
    if journal is not None or not args.save_run:
        return _stream_session(args, _make_session(args, journal_path=journal))
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as tmp:
        session = _make_session(
            args,
            journal_path=Path(tmp) / "stream.journal",
            fsync_policy="batch",
            snapshot_interval=0,
        )
        try:
            return _stream_session(args, session)
        finally:
            session.close()


def _stream_session(args: argparse.Namespace, session: Any) -> int:
    from itertools import islice

    from repro.service import decision_line, iter_event_records

    batch = max(1, int(getattr(args, "batch", 1) or 1))
    records = iter_event_records(sys.stdin)
    if session.slo_policy is not None:
        from repro.service import admission_lines

        # Admission gating is per-event: SLO sessions offer record by
        # record whatever --batch says; only --fsync groups commits.
        for record in records:
            for line in admission_lines(session.offer(record)):
                print(line, flush=True)
    elif batch > 1:
        while True:
            chunk = list(islice(records, batch))
            if not chunk:
                break
            result = session.push_batch(chunk)
            print(
                "\n".join(decision_line(d) for d in result.decisions),
                flush=True,
            )
    else:
        for record in records:
            print(decision_line(session.push(record)), flush=True)
    session.flush()
    if args.save_run:
        session.save_run(
            args.save_run, metadata={"workload": "stream", "seed": args.seed}
        )
        print(f"archived run to    : {args.save_run}", file=sys.stderr)
    status = session.status()
    print(
        f"stream done: {status['events']} event(s), "
        f"L_A = {status['max_load']}, L* = {status['optimal_load']}, "
        f"ratio = {status['competitive_ratio']:.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-lived journaled session: events in, decisions out.

    One :class:`~repro.service.session.AllocationSession` behind one line
    handler (:mod:`repro.service.shard.server`), on stdin/stdout or, with
    ``--listen HOST:PORT``, on TCP sockets served by one ``selectors``
    loop.  Besides event records, control lines are understood::

        {"op": "status"}    -> one status JSON line
        {"op": "snapshot"}  -> the kernel state snapshot as one JSON line
        {"op": "metrics"}   -> the Prometheus exposition page
        {"op": "save", "path": "run.json"} -> archive the session so far
                               (stdin only)

    A malformed or rejected line yields an ``{"error": ..., "op": ...,
    "line": N}`` record — a serving process must survive one bad client
    line, and the line number makes the offender findable in the
    client's stream.

    With ``--slo-target`` every event goes through the admission
    controller (typed outcome records instead of bare decisions), and
    when the journal's fsync lag crosses the policy's high watermark the
    server emits an ``{"overloaded": true, ...}`` record and *stalls* —
    it commits the journal before reading on.  Signals keep their
    contract through the stall.  SIGTERM, and on the socket SIGINT too,
    only set a flag and wake the wait for input: the server stops once
    the line in hand is answered (at once while it waits) and exits 0
    through the close that commits the session.  On stdin SIGINT exits
    130 and a closed reader exits 141, through the same close.
    """
    import signal

    from repro.service.shard.server import ServiceServer, StdioServer

    session = _make_session(args, journal_path=args.journal)
    if session.num_events:
        print(f"resumed {session.num_events} event(s) (restored at event "
              f"{session.restored_events}, replayed {session.replayed_events}) "
              f"from {args.journal}", file=sys.stderr)
    # KeyboardInterrupt / BrokenPipeError on stdin propagate to main() for
    # the usual 130 / 141 exits; the finally below still commits.
    server: ServiceServer
    signals = [signal.SIGTERM]
    if args.listen:
        host, _, port = args.listen.rpartition(":")
        server = ServiceServer(
            session, host=host or "127.0.0.1", port=int(port),
            metrics_port=args.metrics_port,
        )
        signals.append(signal.SIGINT)
    else:
        server = StdioServer(session)
    before = {sig: signal.signal(sig, lambda *_: server.stop()) for sig in signals}
    try:
        if isinstance(server, StdioServer):
            for out in server.serve_lines(sys.stdin):
                print(out, flush=True)
        else:
            try:
                bound = server.start()
                print(f"listening on {bound[0]}:{bound[1]}", file=sys.stderr)
                if server.metrics_address:
                    mhost, mport = server.metrics_address
                    print(f"metrics on http://{mhost}:{mport}/metrics",
                          file=sys.stderr)
                server.serve_forever()
            finally:
                server.close()
    finally:
        for sig, handler in before.items():
            signal.signal(sig, signal.SIG_DFL if handler is None else handler)
        # close() must run even if status() raises — it is the commit
        # point that makes a Ctrl-C / broken-pipe exit durable.
        try:
            status = session.status()
        finally:
            session.close()
    extra = ""
    if session.slo_policy is not None:
        extra = (
            f", {status['queued_tasks']} queued, "
            f"{status['rejected_total']} rejected"
        )
    print(
        f"session closed: {status['events']} event(s), "
        f"L_A = {status['max_load']}, L* = {status['optimal_load']}, "
        f"ratio = {status['competitive_ratio']:.3f}{extra}",
        file=sys.stderr,
    )
    return 0


def _cmd_emit(args: argparse.Namespace) -> int:
    from repro.service import sequence_records

    sigma = _make_workload(args.workload, args.n, args)
    for record in sequence_records(sigma):
        print(json.dumps(record, separators=(",", ":")))
    return 0


def _parse_resize_schedule(spec: str):
    """Parse ``--resize``: comma-separated ``op@time`` or ``op@timexF``.

    Example: ``grow@30,shrink@75x4`` — grow (x2) at t=30, shrink by 4 at
    t=75.  Returns a tuple of :class:`~repro.scenarios.MachineResize`.
    """
    from repro.errors import ReproError
    from repro.scenarios import MachineResize

    out = []
    for part in filter(None, (s.strip() for s in spec.split(","))):
        op, sep, rest = part.partition("@")
        time_s, _, factor_s = rest.partition("x")
        try:
            if not sep or not rest:
                raise ValueError("missing '@'")
            event = MachineResize(
                float(time_s), op, int(factor_s) if factor_s else 2
            )
        except (ValueError, ReproError) as exc:
            raise ValueError(
                f"bad resize spec {part!r}; expected op@time[xFACTOR], "
                f"e.g. grow@30 or shrink@75x4 ({exc})"
            ) from exc
        out.append(event)
    return tuple(out)


def _cmd_simulate_churn(args: argparse.Namespace) -> int:
    """``repro simulate --churn-rate/--resize``: full churn scenario run."""
    from repro.scenarios import ChurnProcess, run_scenario

    if getattr(args, "topology", "tree") != "tree":
        print("note: churn scenarios run on the tree machine; "
              f"--topology {args.topology} ignored", file=sys.stderr)
    rate = args.churn_rate or 0.0
    horizon = float(args.horizon)
    process = ChurnProcess(
        num_pes=args.n,
        seed=args.seed,
        horizon=horizon,
        task_rate=max(args.tasks / horizon, 1e-9),
        pe_mttf=(1.0 / rate) if rate > 0 else float("inf"),
        kill_rate=args.churn_kill_rate,
        storm_rate=args.churn_storm_rate,
        resizes=tuple(
            (float(r.time), r.op, int(r.factor))
            for r in (_parse_resize_schedule(args.resize) if args.resize else ())
        ),
    )
    scenario = process.build()
    result = run_scenario(scenario, args.algorithm, d=args.d, seed=args.seed)
    if args.save_run:
        print("note: --save-run is not supported for churn scenarios "
              "(the machine size varies); skipping", file=sys.stderr)
    steady = result.steady
    faults = result.metrics.faults
    print(f"algorithm          : {result.algorithm_name}")
    print(f"scenario           : {scenario.describe()}")
    print(f"machine            : N={scenario.num_pes} -> "
          f"{result.final_num_pes} ({result.num_resizes} resize(s))")
    print(f"max load L_A       : {result.max_load}")
    print(f"time-avg max load  : {steady.time_avg_max_load:.3f}")
    print(f"time-avg L*_deg    : {steady.time_avg_lstar:.3f}")
    print(f"steady load ratio  : {steady.load_ratio:.3f}")
    print(f"churn events       : {steady.churn_events} "
          f"({steady.churn_rate:.3f}/unit time)")
    print(f"salvage traffic    : {steady.salvage_traffic_per_churn:.1f} "
          "PE-hops per churn event")
    print(f"failures/repairs   : {faults.num_failures}/{faults.num_repairs}")
    print(f"kills              : {faults.num_kills}")
    print(f"grows/shrinks      : {faults.num_grows}/{faults.num_shrinks}")
    print(f"orphaned tasks     : {faults.orphaned_tasks}")
    print(f"salvage repacks    : {faults.num_salvage_repacks} "
          f"({faults.salvage_migrations} migrations)")
    print(f"min surviving PEs  : {faults.min_surviving_pes}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.engine import Simulator

    if args.stream:
        return _cmd_stream(args)
    if getattr(args, "churn_rate", None) is not None or getattr(args, "resize", None):
        return _cmd_simulate_churn(args)
    machine = _make_machine(args)
    sigma = _make_workload(args.workload, args.n, args)
    algo = make_algorithm(
        args.algorithm,
        machine,
        d=args.d,
        lazy=args.lazy,
        moves=args.moves,
        seed=args.seed,
    )
    if args.faults:
        from repro.faults import FaultAwareSimulator, generate_fault_plan

        fault_rng = np.random.default_rng(
            args.fault_seed if args.fault_seed is not None else args.seed
        )
        plan = generate_fault_plan(args.n, sigma, fault_rng)
        sim = FaultAwareSimulator(machine, algo, plan)
    else:
        plan = None
        sim = Simulator(machine, algo)
    load_frames: list[list[int]] = []
    if args.plot:
        sim.add_observer(
            lambda s, ev: load_frames.append(s.leaf_loads().tolist())
        )
    result = sim.run(sigma)
    _cmd_simulate_archive_option(sim, args, machine, sigma, result)
    realloc = result.metrics.realloc
    print(f"algorithm          : {result.algorithm_name}")
    print(f"machine            : {result.machine_description}")
    print(f"workload           : {args.workload} ({result.metrics.events_processed} events)")
    print(f"max load L_A(sigma): {result.max_load}")
    print(f"optimal load L*    : {result.optimal_load}")
    print(f"competitive ratio  : {result.competitive_ratio:.3f}")
    print(f"reallocations      : {realloc.num_reallocations}")
    print(f"migrations         : {realloc.num_migrations}")
    print(f"traffic (pe-hops)  : {realloc.traffic_pe_hops:.0f}")
    print(f"fairness at peak   : {result.metrics.fairness_at_peak():.3f}")
    if plan is not None:
        fstats = result.metrics.faults
        print(f"fault plan         : {plan.num_failures} failure(s), "
              f"{plan.num_repairs} repair(s), {plan.num_kills} kill(s)")
        print(f"orphaned tasks     : {fstats.orphaned_tasks}")
        print(f"salvage repacks    : {fstats.num_salvage_repacks} "
              f"({fstats.salvage_migrations} migrations, "
              f"{fstats.salvage_pe_volume} PE-volume)")
        print(f"min surviving PEs  : {fstats.min_surviving_pes}")
        print(f"peak degraded L*   : {fstats.peak_degraded_lstar}")
        print(f"overshoot vs L*deg : {fstats.load_overshoot_vs_degraded}")
    if args.plot:
        from repro.analysis.plots import heatmap, histogram, line_plot, sparkline

        times, loads = result.series.as_arrays()
        print("\nmax load over events:")
        print(sparkline(loads.tolist()))
        print()
        print(
            line_plot(
                times.tolist(),
                loads.tolist(),
                title="max PE load over time",
                y_label="load",
                x_label="time",
            )
        )
        if result.metrics.peak_snapshot is not None:
            snap = result.metrics.peak_snapshot
            values, counts = np.unique(snap, return_counts=True)
            print()
            print(
                histogram(
                    {int(v): int(c) for v, c in zip(values, counts)},
                    title="PE-load histogram at the peak (load: #PEs)",
                )
            )
        if load_frames:
            # rows = PEs, cols = events.
            matrix = list(map(list, zip(*load_frames)))
            print()
            print(
                heatmap(
                    matrix,
                    title="per-PE load over events (max-pooled)",
                    y_label="PE",
                    x_label="event",
                )
            )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.sim.archive import load_run
    from repro.sim.audit import audit_run

    machine, sequence, intervals = load_run(args.archive)
    report = audit_run(machine, sequence, intervals)
    print(f"archive            : {args.archive}")
    print(f"machine            : {machine.describe()}")
    print(f"tasks              : {sequence.num_tasks}")
    print(f"checked breakpoints: {report.checked_times}")
    print(f"recomputed max load: {report.max_load}")
    if report.ok:
        print("verdict            : OK — placements legal, loads consistent")
        return 0
    print("verdict            : FAILED")
    for v in report.violations[:20]:
        print(f"  - {v}")
    if len(report.violations) > 20:
        print(f"  ... and {len(report.violations) - 20} more")
    return 1


def _cmd_simulate_archive_option(sim, args, machine, sigma, result=None):
    if args.save_run:
        from repro.sim.archive import save_run

        save_run(args.save_run, machine, sigma, sim,
                 metadata={"workload": args.workload, "seed": args.seed},
                 result=result)
        print(f"archived run to    : {args.save_run}")


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.workloads.profiles import describe_sequence

    sigma = _make_workload(args.workload, args.n, args)
    print(describe_sequence(sigma).render(num_pes=args.n))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_algorithms

    sigma = _make_workload(args.workload, args.n, args)
    names = args.algorithms.split(",")
    comparison = compare_algorithms(
        lambda: _make_machine(args), sigma, names,
        d=args.d, lazy=args.lazy, moves=args.moves, seed=args.seed,
    )
    print(comparison.render(title=f"{args.workload} on N = {args.n} "
                                  f"(L* = {comparison.optimal_load})"))
    best = comparison.best()
    print(f"\nbest: {best.result.algorithm_name} "
          f"(load {best.result.max_load}, "
          f"{best.result.metrics.realloc.num_migrations} migrations)")
    return 0


def _sweep_cell(n: int, d: float, lazy: bool, sigma) -> list:
    """One d-sweep row (module-level so --jobs can fan rows out)."""
    from repro.core.bounds import deterministic_upper_factor
    from repro.core.periodic import PeriodicReallocationAlgorithm
    from repro.machines.tree import TreeMachine
    from repro.sim.runner import run

    machine = TreeMachine(n)
    algo = PeriodicReallocationAlgorithm(machine, d, lazy=lazy)
    result = run(machine, algo, sigma)
    return [
        d,
        result.max_load,
        result.optimal_load,
        f"{result.competitive_ratio:.2f}",
        deterministic_upper_factor(n, d),
        result.metrics.realloc.num_reallocations,
        f"{result.metrics.realloc.traffic_pe_hops:.0f}",
    ]


def _cmd_verify_journal(args: argparse.Namespace) -> int:
    """``repro verify --journal``: the crash-resume referee."""
    from repro.errors import SimulationError
    from repro.verify.journal import fuzz_journal, replay_corpus_journal

    failed = 0
    print(f"machine            : TreeMachine(N={args.n}), "
          "journaled sessions killed and resumed")
    if args.replay:
        results = replay_corpus_journal(args.replay)
        checked = [(e, o) for e, o in results if o is not None]
        bad = [(e, o) for e, o in checked if not o.ok]
        print(f"corpus             : {args.replay}")
        print(f"entries checked    : {len(checked)} "
              f"({len(results) - len(checked)} churn entries, skipped)")
        for entry, outcome in bad:
            failed += 1
            print(f"  - {entry.filename()}: "
                  + "; ".join(outcome.divergences))
    algorithms = args.algorithms.split(",") if args.algorithms else None
    sequences = args.sequences or 25
    try:
        outcomes = fuzz_journal(
            num_pes=args.n,
            sequences=sequences,
            seed=args.seed,
            algorithms=algorithms,
        )
    except SimulationError as exc:
        print(f"verdict            : FAILED — {exc}")
        return 1
    events = sum(o.events for o in outcomes)
    kills = sum(o.kills_checked for o in outcomes)
    deltas = sum(o.delta_window_kills for o in outcomes)
    restored = sum(o.restored_kills for o in outcomes)
    renames = sum(o.rename_kills for o in outcomes)
    print(f"streams fuzzed     : {len(outcomes)} ({events} event(s); "
          "plain, fault-tolerant with grow/shrink, SLO)")
    print(f"kill points        : {kills} truncation(s) resumed "
          f"({deltas} inside delta windows, {renames} between a sidecar's "
          f"write and rename)")
    print(f"sidecar restores   : {restored} kill(s) resumed from the state "
          "sidecar and by full replay, identically")
    if failed:
        print("verdict            : FAILED")
        return 1
    print("verdict            : OK — every journal resumes bit-identically, "
          "kills included")
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """``repro journal dump PATH``: inspect a journal.  Nothing is
    unpickled: a journal of an older format is refused, and a cell-bag
    journal's pickled results are counted, not decoded."""
    from repro.errors import CheckpointError
    from repro.service.resume import inspect_sidecar
    from repro.sim.checkpoint import CellJournal, legacy_refusal
    from repro.sim.frames import (
        FRAME_NAMES,
        FRAME_OVERHEAD,
        JOURNAL_MAGIC,
        decode_journal,
        record_layouts,
        scan_frames,
    )

    path = Path(args.path)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    data = path.read_bytes()
    refusal = legacy_refusal(path, data[: len(JOURNAL_MAGIC)])
    if refusal is not None:
        raise CheckpointError(refusal)
    if not data.startswith(JOURNAL_MAGIC):
        print(f"error: {path} is not a journal (no frame magic)",
              file=sys.stderr)
        return 2
    header, payloads, good_end, bad_reason = decode_journal(data)
    frames, scan_end, scan_reason = scan_frames(data, len(JOURNAL_MAGIC))
    cells = isinstance(header, dict) and header.get("kind") == CellJournal.header_kind
    if cells:
        # Only the run that wrote a cell bag decodes its frames, so its
        # tail is judged by frame structure and CRC alone.
        good_end, bad_reason = scan_end, scan_reason
    print(f"file bytes         : {len(data)}")
    counts: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for kind, payload, _pos in frames:
        name = FRAME_NAMES.get(kind, f"kind{kind}")
        counts[name] = counts.get(name, 0) + 1
        sizes[name] = sizes.get(name, 0) + FRAME_OVERHEAD + len(payload)
    print("frames             : " + " ".join(
        f"{name}={counts[name]}" for name in sorted(counts)))
    print("bytes per kind     : " + " ".join(
        f"{name}={sizes[name]}" for name in sorted(sizes)))
    if not cells:
        # Records that fell back to the wide layout, per kind.
        layouts = record_layouts(
            (kind, payload) for kind, payload, start in frames if start < good_end
        )
        for label, narrow in (("narrow records     : ", True),
                              ("wide records       : ", False)):
            print(label + " ".join(
                f"{kind}={layouts.get((kind, narrow), 0)}"
                for kind in sorted({kind for kind, _narrow in layouts})))
    if bad_reason is not None and good_end < len(data):
        print(f"tail               : torn ({bad_reason}) at byte "
              f"{good_end}, {len(data) - good_end} byte(s) dropped")
    else:
        print("tail               : clean")
    if cells:
        print(f"records            : {counts.get('cell', 0)} cell result(s), "
              "not decoded (a cell-bag journal holds pickles; only the run "
              "that wrote it reads them)")
        return 0
    pairs = list(payloads.items())
    indices = [index for index, _ in pairs]
    holes = []
    if indices:
        seen = set(indices)
        holes = [i for i in range(max(indices) + 1) if i not in seen]
    print(f"records            : {len(pairs)} logical record(s)"
          + (f", indices 0..{max(indices)}" if indices else "")
          + (f", holes at {holes[:10]}" if holes else ""))
    if pairs:
        per = len(data) / len(pairs)
        print(f"bytes per record   : {per:.1f}")
    def _riders(key):
        return [i for i, p in pairs if isinstance(p, dict) and key in p]

    def _positions(label, positions):
        if not positions:
            print(f"{label}: none")
        elif len(positions) <= 12:
            print(f"{label}: at {positions}")
        else:
            print(f"{label}: {len(positions)} "
                  f"(first {positions[0]}, last {positions[-1]})")
    _positions("state digests      ", _riders("state_sha256"))
    _positions("delta riders       ", _riders("delta"))
    fingerprint = header.get("fingerprint") if isinstance(header, dict) else None
    sidecar = inspect_sidecar(path, data, str(fingerprint), payloads)
    if sidecar is None:
        print("state sidecar      : none")
    else:
        verdict = (
            "verifies against the journal" if sidecar.verifies
            else f"does not verify ({sidecar.reason}); a resume replays everything"
        )
        print(f"state sidecar      : {sidecar.path.name}, {sidecar.size} bytes, "
              f"index {sidecar.index}, {verdict}")
    if args.head:
        print(f"--- first {min(args.head, len(pairs))} record(s) ---")
        for index, payload in pairs[: args.head]:
            print(f"[{index}] " + json.dumps(
                payload, sort_keys=True, default=repr))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import render_verify_markdown
    from repro.verify import DifferentialHarness, replay_corpus

    if getattr(args, "journal", False):
        return _cmd_verify_journal(args)

    algorithms = args.algorithms.split(",") if args.algorithms else None
    if getattr(args, "slo", False) and algorithms is None:
        # The admission referee shadows non-reallocating placements; the
        # target-aware pair is the meaningful default coverage.
        algorithms = ["greedy", "twochoice"]

    if args.replay:
        results = replay_corpus(args.replay, jobs=args.jobs)
        failed = [(e, o) for e, o in results if not o.ok]
        print(f"corpus             : {args.replay}")
        print(f"entries replayed   : {len(results)}")
        if failed:
            print("verdict            : FAILED")
            for entry, outcome in failed:
                print(f"  - {entry.filename()}: " + "; ".join(outcome.violations))
            return 1
        print("verdict            : OK — all corpus entries pass")
        if not args.budget and not args.sequences:
            return 0

    harness = DifferentialHarness(
        args.n,
        algorithms=algorithms,
        seed=args.seed,
        jobs=args.jobs,
        corpus_dir=args.corpus_dir,
        timeout=args.timeout,
        retries=args.retries,
    )
    if getattr(args, "slo", False):
        report = harness.fuzz_slo(
            budget=args.budget or None,
            max_sequences=args.sequences or (None if args.budget else 50),
            checkpoint=args.resume,
        )
    elif args.churn:
        report = harness.fuzz_churn(
            budget=args.budget or None,
            max_sequences=args.sequences or (None if args.budget else 50),
            horizon=args.horizon,
            checkpoint=args.resume,
        )
    else:
        report = harness.fuzz(
            budget=args.budget or None,
            max_sequences=args.sequences or (None if args.budget else 50),
            faults=args.faults,
            checkpoint=args.resume,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_verify_markdown(report))
        print(f"wrote {args.out}")
    print(f"machine            : TreeMachine(N={args.n})")
    print(f"sequences fuzzed   : {report.sequences_tried}")
    print(f"checks run         : {report.checks_run}")
    print(f"features covered   : {report.features_covered}")
    print(f"wall clock         : {report.elapsed:.1f}s")
    if report.faulted_checks:
        s = report.fault_summary
        print(f"fault-mode checks  : {report.faulted_checks} "
              f"({s.get('failures', 0)} failures, {s.get('kills', 0)} kills, "
              f"{s.get('salvage_repacks', 0)} salvage repacks, "
              f"min surviving {s.get('min_surviving_pes', args.n)} PEs)")
    if getattr(report, "slo_checks", 0):
        print(f"slo-mode checks    : {report.slo_checks} "
              "(admission-gate shadow referee)")
    if getattr(report, "churn_checks", 0):
        s = report.fault_summary
        print(f"churn-mode checks  : {report.churn_checks} "
              f"({report.resizes_checked} online resize(s) absorbed: "
              f"{s.get('grows', 0)} grows, {s.get('shrinks', 0)} shrinks)")
        buckets = sorted(
            {
                (
                    getattr(f, "churn", 0),
                    getattr(f, "storm", 0),
                    getattr(f, "resizes", 0),
                )
                for f in report.features
            }
        )
        print("churn buckets      : " + ", ".join(
            f"churn={c}/storm={st}/resizes={r}" for c, st, r in buckets))
    for name, margin in sorted(report.tightest.items()):
        print(
            f"  {name:<10} tightest: load {margin.max_load} vs bound "
            f"{margin.bound:g} (slack {margin.slack:g})"
        )
    if report.ok:
        print("verdict            : OK — engine, audit, oracle and bounds agree")
        return 0
    print("verdict            : FAILED")
    for outcome in report.violations[:20]:
        print(f"  - {outcome.algorithm} (d={outcome.d:g}): " + "; ".join(outcome.violations))
    if report.counterexamples:
        where = args.corpus_dir or "(not persisted; pass --corpus-dir)"
        print(f"shrunk counterexamples: {len(report.counterexamples)} -> {where}")
    return 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.sim.parallel import parallel_map

    n = args.n
    sigma = _make_workload(args.workload, n, args)
    d_values = [float(x) for x in args.d_values.split(",")]
    rows = parallel_map(
        _sweep_cell,
        [(n, d, args.lazy, sigma) for d in d_values],
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        checkpoint=args.resume,
    )
    print(
        format_table(
            ["d", "max load", "L*", "ratio", "bound", "reallocs", "traffic"],
            rows,
            title=f"A_M load-vs-d sweep on N = {n} ({args.workload})",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    import repro

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Gao/Rosenberg/Sitaraman SPAA'96 "
        "(task reallocation vs thread management).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_jobs(p):
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes for independent runs (-1 = all cores; "
            "results are identical to a serial run)",
        )

    sub.add_parser("list", help="list experiments and scenarios").set_defaults(
        func=_cmd_list
    )

    p_exp = sub.add_parser("experiment", help="run one experiment by id")
    p_exp.add_argument("id", help="experiment id, e.g. e4")
    p_exp.set_defaults(func=_cmd_experiment)

    p_all = sub.add_parser("all", help="run every experiment")
    add_jobs(p_all)
    p_all.set_defaults(func=_cmd_all)

    p_rep = sub.add_parser("report", help="write a markdown reproduction report")
    p_rep.add_argument("--out", default=None, help="output file (stdout if omitted)")
    p_rep.add_argument("--ids", default=None, help="comma-separated experiment ids")
    add_jobs(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    def add_common(p):
        p.add_argument("--n", type=int, default=64, help="number of PEs (power of 2)")
        p.add_argument("--workload", choices=_WORKLOADS, default="poisson")
        p.add_argument("--tasks", type=int, default=500, help="tasks / events")
        p.add_argument("--utilization", type=float, default=0.8)
        p.add_argument("--scale", type=float, default=1.0, help="scenario size factor")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lazy", action="store_true", help="lazy repack trigger")
        p.add_argument("--d", type=float, default=2.0, help="reallocation parameter")
        p.add_argument(
            "--topology",
            choices=sorted(_TOPOLOGIES),
            default="tree",
            help="physical machine model",
        )

    def add_slo(p):
        p.add_argument(
            "--slo-target", type=float, default=None, metavar="S",
            help="serve under a slowdown SLO: admit an arrival only when "
            "its submachine max load stays within floor(S); inadmissible "
            "arrivals wait in a bounded FIFO queue, drained when capacity "
            "frees.  Responses become typed admit/queue/reject records "
            "(see docs/SLO.md)",
        )
        p.add_argument(
            "--slo-queue", type=int, default=64, metavar="K",
            help="(--slo-target) admission-queue capacity; arrivals past "
            "it are rejected with a retry_after hint (default: 64)",
        )

    def add_resilience(p):
        p.add_argument(
            "--timeout", type=float, default=None,
            help="per-cell wall-clock limit in seconds (timed-out cells "
            "are retried, then reported)",
        )
        p.add_argument(
            "--retries", type=int, default=1,
            help="extra retry rounds for timed-out / crashed cells "
            "(default 1; 0 disables retry)",
        )
        p.add_argument(
            "--resume", default=None, metavar="JOURNAL",
            help="checkpoint journal file: completed cells are made "
            "durable and a rerun pointed at the same file resumes from "
            "them (bit-identical results)",
        )

    p_sim = sub.add_parser("simulate", help="ad-hoc single run")
    add_common(p_sim)
    p_sim.add_argument(
        "--algorithm", choices=algorithm_names(), default="greedy"
    )
    p_sim.add_argument(
        "--moves", type=int, default=4, help="per-repack budget (incremental)"
    )
    p_sim.add_argument("--plot", action="store_true", help="ASCII plots of the run")
    p_sim.add_argument(
        "--save-run", default=None, help="archive the run (JSON) for `repro audit`"
    )
    p_sim.add_argument(
        "--faults", action="store_true",
        help="inject a generated fault plan (PE failures, repairs, task "
        "kills) and report degradation metrics",
    )
    p_sim.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault plan generator (default: --seed)",
    )
    p_sim.add_argument(
        "--stream", action="store_true",
        help="ignore --workload and replay a JSONL event stream from "
        "stdin instead (see `repro emit`); one decision record per line "
        "on stdout. With --faults, failure/repair/kill records are "
        "accepted too.",
    )
    p_sim.add_argument(
        "--batch", type=int, default=1, metavar="K",
        help="(--stream) absorb K records per push_batch, so a "
        "journal under --fsync batch group-commits once per K records; "
        "identical decisions (default: 1, per-event)",
    )
    p_sim.add_argument(
        "--journal", default=None, metavar="FILE",
        help="(--stream) durability journal for the streamed session "
        "(same format and resume semantics as `repro serve --journal`)",
    )
    p_sim.add_argument(
        "--fsync", default="always", metavar="POLICY",
        help="journal fsync policy: 'always' (durable per event), "
        "'batch' (group-commit per batch/flush), or 'interval:<ms>' "
        "(default: always)",
    )
    p_sim.add_argument(
        "--churn-rate", type=float, default=None, metavar="R",
        help="churn-scenario mode: per-PE fault rate (failures per unit "
        "time; MTTF = 1/R).  Generates a ChurnProcess scenario instead of "
        "--workload and reports steady-state metrics (time-averaged max "
        "load vs the analytic L*_deg benchmark)",
    )
    p_sim.add_argument(
        "--churn-kill-rate", type=float, default=0.0, metavar="R",
        help="(churn mode) task-kill rate per unit time (default: 0)",
    )
    p_sim.add_argument(
        "--churn-storm-rate", type=float, default=0.0, metavar="R",
        help="(churn mode) flash-crowd storm rate per unit time (default: 0)",
    )
    p_sim.add_argument(
        "--resize", default=None, metavar="SPEC",
        help="(churn mode) online resize schedule, comma-separated "
        "op@time[xFACTOR] entries, e.g. 'grow@30,shrink@75x4'; implies "
        "churn mode even without --churn-rate",
    )
    p_sim.add_argument(
        "--horizon", type=float, default=120.0, metavar="T",
        help="(churn mode) scenario time horizon (default: 120)",
    )
    add_slo(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived journaled allocation session (JSONL in, "
        "decisions out; resumable via --journal)",
    )
    add_common(p_serve)
    p_serve.add_argument(
        "--algorithm", choices=algorithm_names(), default="greedy"
    )
    p_serve.add_argument(
        "--moves", type=int, default=4, help="per-repack budget (incremental)"
    )
    p_serve.add_argument(
        "--faults", action="store_true",
        help="fault-tolerant session: accept failure/repair/kill records",
    )
    p_serve.add_argument(
        "--journal", default=None, metavar="FILE",
        help="durability journal: every event is journaled here before its "
        "decision is returned, and re-serving with the same journal "
        "resumes the session bit-identically",
    )
    p_serve.add_argument(
        "--fsync", default="always", metavar="POLICY",
        help="journal fsync policy: 'always' (durable per event), "
        "'batch' (group-commit; control ops, interrupt, and close are "
        "commit points), or 'interval:<ms>' (default: always)",
    )
    p_serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the JSONL protocol on a TCP socket instead of "
        "stdin/stdout (many concurrent clients, one serialized history)",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="(--listen) Prometheus text exposition on this HTTP port: "
        "live L_A / L* / ratio / event-rate / journal-lag gauges",
    )
    add_slo(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_emit = sub.add_parser(
        "emit", help="print a workload as a JSONL event stream"
    )
    add_common(p_emit)
    p_emit.set_defaults(func=_cmd_emit)

    p_audit = sub.add_parser("audit", help="independently re-verify an archived run")
    p_audit.add_argument("archive", help="file written by `simulate --save-run`")
    p_audit.set_defaults(func=_cmd_audit)

    p_desc = sub.add_parser("describe", help="profile a workload")
    add_common(p_desc)
    p_desc.set_defaults(func=_cmd_describe)

    p_cmp = sub.add_parser("compare", help="run several algorithms side by side")
    add_common(p_cmp)
    p_cmp.add_argument(
        "--algorithms",
        default="optimal,periodic,greedy,random",
        help="comma-separated registry names",
    )
    p_cmp.add_argument("--moves", type=int, default=4)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser(
        "verify",
        help="differential verification: fuzz sequences, cross-check every "
        "algorithm against audit, brute-force oracle and theorem bounds",
    )
    p_ver.add_argument("--n", type=int, default=64, help="number of PEs (power of 2)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--budget", type=float, default=None, help="wall-clock budget in seconds"
    )
    p_ver.add_argument(
        "--sequences", type=int, default=None,
        help="max fuzzed sequences (default 50 when no --budget)",
    )
    p_ver.add_argument(
        "--algorithms", default=None,
        help="comma-separated registry names (default: all)",
    )
    p_ver.add_argument(
        "--corpus-dir", default=None,
        help="write shrunk counterexamples here (e.g. tests/corpus)",
    )
    p_ver.add_argument(
        "--replay", default=None, metavar="DIR",
        help="replay a counterexample corpus before (or instead of) fuzzing",
    )
    p_ver.add_argument(
        "--out", default=None, help="write the markdown verification report here"
    )
    p_ver.add_argument(
        "--faults", action="store_true",
        help="fault mode: every fuzzed sequence also gets a generated "
        "fault plan; checks run on the degraded machine",
    )
    p_ver.add_argument(
        "--churn", action="store_true",
        help="churn mode: fuzz full churn scenarios (faults, kills, "
        "flash-crowd storms, online grow/shrink) and check every "
        "algorithm with the piecewise-N referees",
    )
    p_ver.add_argument(
        "--horizon", type=float, default=60.0, metavar="T",
        help="(--churn) scenario time horizon (default: 60)",
    )
    p_ver.add_argument(
        "--slo", action="store_true",
        help="SLO mode: stream every fuzzed sequence through an "
        "admission-gated session and referee it against an independent "
        "shadow model (no admitted violation, FIFO drains, bounded-queue "
        "rejects, deterministic admission log); default algorithms: "
        "greedy,twochoice",
    )
    p_ver.add_argument(
        "--journal", action="store_true",
        help="crash-resume referee: stream the corpus and fuzzed "
        "sequences through journaled sessions, truncate each journal at "
        "sampled frame boundaries plus one torn cut, and demand every "
        "cut resume to exactly its surviving prefix and then catch up "
        "bit-identically — including kills inside delta windows "
        "(between a delta rider and the next state digest)",
    )
    add_jobs(p_ver)
    add_resilience(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    p_journal = sub.add_parser(
        "journal", help="inspect a session journal"
    )
    jsub = p_journal.add_subparsers(dest="action", required=True)
    p_jdump = jsub.add_parser(
        "dump",
        help="pretty-print a journal: frame/record counts and bytes, "
        "checkpoint positions, torn-tail status",
    )
    p_jdump.add_argument("path", help="journal file")
    p_jdump.add_argument(
        "--head", type=int, default=None, metavar="N",
        help="also print the first N logical records as JSON",
    )
    p_jdump.add_argument(
        "--stats", action="store_true",
        help="stats only (the default output is already stats; the flag "
        "exists so scripts can be explicit)",
    )
    p_jdump.set_defaults(func=_cmd_journal)

    p_sweep = sub.add_parser("sweep", help="load-vs-d sweep with A_M")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--d-values", default="0,1,2,3,4,8", help="comma-separated d list"
    )
    add_jobs(p_sweep)
    add_resilience(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    import os

    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Conventional 128 + SIGINT.  Checkpointed commands (--resume) have
        # already journaled their completed cells, so the note is actionable.
        print(
            "\ninterrupted — partial results may have been written; "
            "commands run with --resume continue from their checkpoint",
            file=sys.stderr,
        )
        return 130
    except BrokenPipeError:
        # Our reader (e.g. `repro ... | head`) went away: exit silently.
        # Re-point stdout at devnull so interpreter shutdown doesn't print
        # a second BrokenPipeError from the buffered-writer flush.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            # ValueError covers io.UnsupportedOperation: stdout may not be
            # backed by a real descriptor (tests, embedded interpreters).
            pass
        return 128 + 13  # SIGPIPE convention


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
