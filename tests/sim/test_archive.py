"""Tests for the run-archive workflow (save -> load -> audit)."""

import json
import math

import numpy as np
import pytest

from repro.core.greedy import GreedyAlgorithm
from repro.core.periodic import PeriodicReallocationAlgorithm
from repro.errors import TraceFormatError
from repro.machines.fattree import FatTree
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import Mesh2D
from repro.machines.tree import TreeMachine
from repro.sim.archive import load_run, machine_from_descriptor, save_run
from repro.sim.audit import audit_run
from repro.sim.engine import Simulator
from repro.tasks.builder import figure1_sequence
from repro.workloads.generators import churn_sequence


def _completed_sim(machine, algorithm, sequence):
    sim = Simulator(machine, algorithm)
    for ev in sequence:
        sim.step(ev)
    return sim


class TestRoundtrip:
    def test_save_load_audit(self, tmp_path):
        machine = TreeMachine(4)
        seq = figure1_sequence()
        sim = _completed_sim(machine, GreedyAlgorithm(machine), seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim, metadata={"note": "figure 1"})

        machine2, seq2, intervals = load_run(path)
        assert machine2.num_pes == 4
        assert seq2 == seq
        report = audit_run(machine2, seq2, intervals)
        report.raise_if_failed()
        assert report.max_load == sim.metrics.max_load

    def test_reallocating_run_roundtrip(self, tmp_path):
        machine = TreeMachine(16)
        seq = churn_sequence(16, 300, np.random.default_rng(3))
        sim = _completed_sim(machine, PeriodicReallocationAlgorithm(machine, 1), seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim)
        machine2, seq2, intervals = load_run(path)
        audit_run(machine2, seq2, intervals).raise_if_failed()

    def test_metadata_and_algorithm_recorded(self, tmp_path):
        machine = TreeMachine(4)
        seq = figure1_sequence()
        sim = _completed_sim(machine, GreedyAlgorithm(machine), seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim, metadata={"seed": 7})
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "A_G"
        assert payload["metadata"]["seed"] == 7
        assert payload["max_load"] == 2

    def test_result_summary_embedded_without_series(self, tmp_path):
        machine = TreeMachine(4)
        seq = figure1_sequence()
        sim = Simulator(machine, GreedyAlgorithm(machine))
        result = sim.run(seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim, result=result)
        payload = json.loads(path.read_text())
        summary = payload["result_summary"]
        assert summary["max_load"] == 2
        assert summary["competitive_ratio"] == 2.0
        assert "load_series" not in summary  # archives stay compact
        # The archive stays loadable/auditble with the extra key.
        machine2, seq2, intervals = load_run(path)
        audit_run(machine2, seq2, intervals).raise_if_failed()

    def test_infinite_departures_encoded(self, tmp_path):
        machine = TreeMachine(4)
        seq = figure1_sequence()  # three tasks never depart
        sim = _completed_sim(machine, GreedyAlgorithm(machine), seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim)
        _m, seq2, intervals = load_run(path)
        immortal = [t for t in seq2.tasks.values() if math.isinf(t.departure)]
        assert len(immortal) == 3
        open_segments = [
            segs[-1] for segs in intervals.values() if math.isinf(segs[-1][1])
        ]
        assert len(open_segments) == 3


class TestMachineDescriptors:
    @pytest.mark.parametrize(
        "machine",
        [
            TreeMachine(8),
            FatTree(8, fatness=1.5, base_capacity=2.0),
            Hypercube(8, layout="binary"),
            Hypercube(8, layout="gray"),
            Mesh2D(16),
        ],
    )
    def test_descriptor_roundtrip(self, machine, tmp_path):
        from repro.machines.factory import machine_descriptor

        rebuilt = machine_from_descriptor(machine_descriptor(machine))
        assert rebuilt.topology_name == machine.topology_name
        assert rebuilt.num_pes == machine.num_pes
        if isinstance(machine, FatTree):
            assert rebuilt.fatness == machine.fatness

    def test_unknown_topology_rejected(self):
        with pytest.raises(TraceFormatError):
            machine_from_descriptor({"topology": "torus", "num_pes": 8})


class TestErrors:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(TraceFormatError):
            load_run(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(TraceFormatError, match="version"):
            load_run(path)

    def test_tampered_archive_fails_audit(self, tmp_path):
        machine = TreeMachine(4)
        seq = figure1_sequence()
        sim = _completed_sim(machine, GreedyAlgorithm(machine), seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim)
        payload = json.loads(path.read_text())
        # Move one segment to a wrong-size node.
        first_tid = next(iter(payload["segments"]))
        payload["segments"][first_tid][0][2] = 1  # root (4 PEs) for a size-1 task
        path.write_text(json.dumps(payload))
        machine2, seq2, intervals = load_run(path)
        report = audit_run(machine2, seq2, intervals)
        assert not report.ok


class TestErrorDiagnostics:
    """Every load failure must name the offending file."""

    def _saved_run(self, tmp_path):
        machine = TreeMachine(4)
        seq = figure1_sequence()
        sim = _completed_sim(machine, GreedyAlgorithm(machine), seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim)
        return path

    def test_truncated_archive_names_path_and_cause(self, tmp_path):
        path = self._saved_run(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(TraceFormatError, match="truncated") as err:
            load_run(path)
        assert str(path) in str(err.value)

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": } 1')
        with pytest.raises(TraceFormatError) as err:
            load_run(path)
        assert str(path) in str(err.value)

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(TraceFormatError, match="cannot read") as err:
            load_run(path)
        assert str(path) in str(err.value)

    def test_malformed_fields_name_path(self, tmp_path):
        path = self._saved_run(tmp_path)
        payload = json.loads(path.read_text())
        del payload["segments"]
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceFormatError, match="malformed") as err:
            load_run(path)
        assert str(path) in str(err.value)

    def test_version_mismatch_names_path(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(TraceFormatError, match="version") as err:
            load_run(path)
        assert str(path) in str(err.value)


class TestFaultArchive:
    def test_fault_plan_saved_with_faulted_runs(self, tmp_path):
        from repro.faults import FaultAwareSimulator, FaultPlan
        from repro.faults.plan import PEFailure, PERepair

        machine = TreeMachine(8)
        seq = churn_sequence(8, 60, np.random.default_rng(2))
        plan = FaultPlan(events=(PEFailure(1.0, 2), PERepair(4.0, 2)))
        sim = FaultAwareSimulator(machine, GreedyAlgorithm(machine), plan=plan)
        sim.run(seq)
        path = tmp_path / "faulted.json"
        save_run(path, machine, seq, sim)
        payload = json.loads(path.read_text())
        assert payload["faults"] == plan.to_dict()

    def test_healthy_runs_have_no_faults_key(self, tmp_path):
        path = self._saved(tmp_path)
        assert "faults" not in json.loads(path.read_text())

    def _saved(self, tmp_path):
        machine = TreeMachine(4)
        seq = figure1_sequence()
        sim = _completed_sim(machine, GreedyAlgorithm(machine), seq)
        path = tmp_path / "run.json"
        save_run(path, machine, seq, sim)
        return path
