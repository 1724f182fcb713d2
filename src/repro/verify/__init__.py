"""Differential verification: oracle cross-checks, coverage-guided fuzzing,
and counterexample shrinking.

The paper's claims are inequalities (Theorem 3.1's exact ``L*``, the
Theorem 4.1/4.2 upper bounds, the Theorem 4.3 adversarial lower bound), so
this reproduction is only as trustworthy as the machinery that checks every
algorithm against them on sequences nobody hand-picked.  This package turns
the suite's scattered ad-hoc checks into one engine:

* :mod:`repro.verify.oracle` — a from-scratch brute-force referee that
  recomputes loads with interval arithmetic only, sharing no code with
  :class:`~repro.machines.loads.LoadTracker`;
* :mod:`repro.verify.fuzzer` — :class:`~repro.verify.fuzzer.SequenceFuzzer`,
  a coverage-guided generator steered by structural features (size mix,
  overlap depth, repack-trigger cadence, departure burstiness) rather than
  blind sampling;
* :mod:`repro.verify.harness` —
  :class:`~repro.verify.harness.DifferentialHarness`, which runs every
  registered algorithm on each fuzzed sequence through the parallel engine
  and cross-checks engine metrics against ``audit_run``, the oracle, and
  the theorem bounds from :mod:`repro.core.bounds` (via the registry's
  ``load_bound`` table);
* :mod:`repro.verify.backends` —
  :func:`~repro.verify.backends.check_backend_parity`, a fifth referee
  that replays each sequence through chunked ``apply_batch`` (where the
  columnar engine of :mod:`repro.kernel.columnar` runs) and demands
  bit-identical decisions, metrics, and kernel state against per-event
  ``apply``;
* :mod:`repro.verify.churn` —
  :func:`~repro.verify.churn.check_algorithm_under_churn`, the
  piecewise-N referee for full churn scenarios (faults, kills,
  flash-crowd storms, and online grow/shrink): each constant-machine-size
  epoch is audited independently and the degraded salvage bound is
  enforced with that epoch's minimum surviving capacity;
* :mod:`repro.verify.slo` —
  :func:`~repro.verify.slo.check_slo_admission`, the admission-control
  referee: an independent NumPy/deque shadow of the SLO gate that demands
  no admitted arrival break the load target, FIFO drains, bounded-queue
  rejects, counter agreement, and run-to-run determinism (see
  ``docs/SLO.md``);
* :mod:`repro.verify.shrink` — greedy delta debugging that reduces any
  violating sequence to a minimal counterexample;
* :mod:`repro.verify.corpus` — the replayable counterexample store under
  ``tests/corpus/``;
* :mod:`repro.verify.report` — :class:`~repro.verify.report.VerifyReport`,
  summarizing sequences tried, features covered, bound margins observed,
  and the tightest instance per theorem.

Entry points: ``repro verify`` on the command line, or::

    from repro.verify import DifferentialHarness
    report = DifferentialHarness(64).fuzz(max_sequences=200)
    report.raise_if_failed()
"""

from repro.verify.backends import check_backend_parity, check_churn_backend_parity
from repro.verify.churn import check_algorithm_under_churn
from repro.verify.corpus import (
    CorpusEntry,
    load_corpus,
    replay_corpus,
    write_counterexample,
)
from repro.verify.fuzzer import (
    ChurnFuzzer,
    FeatureVector,
    SequenceFuzzer,
    scenario_features,
    sequence_features,
)
from repro.verify.harness import CheckOutcome, DifferentialHarness, check_algorithm
from repro.verify.oracle import OracleReport, oracle_audit
from repro.verify.report import BoundMargin, VerifyReport
from repro.verify.shrink import shrink
from repro.verify.slo import check_slo_admission

__all__ = [
    "BoundMargin",
    "CheckOutcome",
    "ChurnFuzzer",
    "CorpusEntry",
    "DifferentialHarness",
    "FeatureVector",
    "OracleReport",
    "SequenceFuzzer",
    "VerifyReport",
    "check_algorithm",
    "check_algorithm_under_churn",
    "check_backend_parity",
    "check_churn_backend_parity",
    "check_slo_admission",
    "load_corpus",
    "oracle_audit",
    "replay_corpus",
    "scenario_features",
    "sequence_features",
    "shrink",
    "write_counterexample",
]
