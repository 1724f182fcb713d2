"""Smoke self-test of the serving benchmark at reduced scale.

    PYTHONPATH=src python -m pytest benchmarks/serve/test_serve_bench.py -q

Runs every workload once, traced, at 1/20 of the measured length, and
checks the output schema, the names against ``BENCHMARK.json``, the
referee's teeth and the traced run's span coverage.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import referee
import run
import streams

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


def _invoke(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/serve/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> tuple[subprocess.CompletedProcess, dict]:
    out = tmp_path_factory.mktemp("serve") / "out.json"
    proc = _invoke("--seconds", "0.5", "--trace", "1", "--out", str(out))
    return proc, json.loads(out.read_text())


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: run.E2E[name] for name in run.GATED}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    assert BENCHMARK["paths"] == ["benchmarks/serve"]


def test_traced_run_schema_and_coverage(traced):
    proc, out = traced
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    expected = {f"{w}/{m}" for w in run.WORKLOADS for m in layers.PER_LAYER}
    assert set(last["metrics"]) == expected
    for entry in last["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    for r in out["runs"]:
        assert set(run.E2E) <= set(r["metrics"])
        assert r["metrics"]["failed_frac"] == 0
        if "reference_sha256" in r:
            assert r["diagnostics"]["reply_sha256"] == r["reference_sha256"]
        assert not layers.coverage_gaps(r["workload"], r["span_calls"])
        for name, where in layers.COVERAGE.items():
            if where == "*" or r["workload"] in where:
                assert r["span_calls"][name] > 0, (r["workload"], name)


def test_single_connection_referee_catches_a_tampered_reply(tmp_path):
    stream = streams.durable_churn(7, 0.01)
    want = run.reference_lines("durable_churn", stream, tmp_path)
    assert run.mismatches(list(want), want) == 0
    (tampered,) = run.planted([want])
    assert run.mismatches(tampered, want) == 1


def test_journal_order_referee_catches_a_tampered_reply(tmp_path):
    cfg = run.WORKLOADS["open_pair"]
    life = streams.open_pair(3, 0.05).lives[0]
    # Serve the warm-up, then the two connections interleaved, through a
    # journaled session: the journal then holds the served order.
    served = [(0, r) for r in life.warmup]
    for a, b in zip(*life.conns):
        served += [(1, a), (2, b)]
    journal = tmp_path / "j"
    ref = referee.Reference(cfg, journal)
    replies = [[], [], []]
    for group, record in served:
        replies[group].extend(line.encode() for line in ref.reply(record))
    ref.close()
    sent = [life.warmup, *life.conns]
    order = referee.journal_replay(cfg, journal)
    assert run.check_open(sent, replies, order) == 0
    assert run.check_open(sent, run.planted(replies), order) >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks/serve",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _invoke("--workload", "durable_churn", "--seconds", "0.5", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
