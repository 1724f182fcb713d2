"""Unit tests for the command-line interface."""

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.n == 64
        assert args.algorithm == "greedy"
        assert args.workload == "poisson"

    def test_workload_choices_are_the_generators_and_scenarios(self):
        """The parser keeps the names itself so that it imports no
        workload module; they must stay the registry's."""
        from repro import cli
        from repro.workloads import SCENARIOS

        assert cli._WORKLOADS == tuple(sorted(["poisson", "burst", "churn", *SCENARIOS]))

    def test_every_topology_choice_builds(self):
        from argparse import Namespace

        from repro import cli

        for topology in cli._TOPOLOGIES:
            machine = cli._make_machine(Namespace(topology=topology, n=16))
            assert machine.num_pes == 16


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("e1:", "e4:", "a3:"):
            assert exp_id in out

    def test_experiment_e1(self, capsys):
        assert main(["experiment", "e1"]) == 0
        out = capsys.readouterr().out
        assert "A_G" in out and "[E1]" in out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "zz"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_simulate_greedy(self, capsys):
        assert main(["simulate", "--n", "16", "--tasks", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max load" in out
        assert "competitive ratio" in out

    def test_simulate_periodic_with_d(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n", "16",
                    "--algorithm", "periodic",
                    "--d", "1",
                    "--workload", "churn",
                    "--tasks", "200",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "reallocations" in out

    def test_simulate_random_algorithm(self, capsys):
        assert main(["simulate", "--algorithm", "random", "--n", "16", "--tasks", "50"]) == 0

    def test_simulate_optimal_ratio_one(self, capsys):
        assert main(["simulate", "--algorithm", "optimal", "--n", "16", "--tasks", "80"]) == 0
        out = capsys.readouterr().out
        assert "competitive ratio  : 1.000" in out


class TestArchiveWorkflow:
    def test_save_and_audit_roundtrip(self, tmp_path, capsys):
        archive = tmp_path / "run.json"
        assert (
            main(
                [
                    "simulate", "--n", "16", "--workload", "churn",
                    "--tasks", "150", "--algorithm", "periodic", "--d", "1",
                    "--save-run", str(archive),
                ]
            )
            == 0
        )
        assert archive.exists()
        capsys.readouterr()
        assert main(["audit", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "verdict            : OK" in out

    def test_audit_detects_tampering(self, tmp_path, capsys):
        import json

        archive = tmp_path / "run.json"
        main(
            [
                "simulate", "--n", "16", "--workload", "burst",
                "--tasks", "20", "--save-run", str(archive),
            ]
        )
        payload = json.loads(archive.read_text())
        tid = next(iter(payload["segments"]))
        payload["segments"][tid][0][0] += 0.5  # shift a start time
        archive.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["audit", str(archive)]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestJobsOption:
    def test_sweep_jobs_matches_serial(self, capsys):
        argv = ["sweep", "--n", "8", "--tasks", "40", "--seed", "2",
                "--d-values", "0,1"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main([*argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestGracefulErrors:
    def test_library_errors_become_clean_messages(self, capsys):
        # 32 PEs is not a square count: Mesh2D must reject it, and the CLI
        # must surface that as a message + exit code, not a traceback.
        assert main(["simulate", "--n", "32", "--topology", "mesh", "--tasks", "5"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "square PE count" in err

    def test_topology_option_runs(self, capsys):
        assert (
            main(
                ["simulate", "--n", "16", "--topology", "hypercube",
                 "--workload", "burst", "--tasks", "20"]
            )
            == 0
        )
        assert "hypercube" in capsys.readouterr().out


class TestUnknownAlgorithmErrors:
    def test_compare_unknown_algorithm_is_clean(self, capsys):
        # A typo'd registry name must surface as the standard clean error
        # (message + exit 2), not a KeyError traceback.
        argv = ["compare", "--n", "16", "--tasks", "20", "--algorithms", "greedly"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: unknown algorithm 'greedly'" in err
        assert "Traceback" not in err

    def test_unknown_algorithm_error_lists_known_names(self, capsys):
        main(["compare", "--n", "16", "--tasks", "20", "--algorithms", "nope"])
        err = capsys.readouterr().err
        assert "known:" in err and "greedy" in err

    def test_registry_error_is_still_a_keyerror(self):
        # Backward compatibility: callers catching KeyError keep working.
        from repro.core.registry import make_algorithm
        from repro.errors import ReproError, UnknownAlgorithmError
        from repro.machines.tree import TreeMachine

        with pytest.raises(KeyError):
            make_algorithm("nope", TreeMachine(4))
        assert issubclass(UnknownAlgorithmError, ReproError)


class TestVerifyCommand:
    def test_small_campaign_is_green(self, capsys):
        assert main(["verify", "--n", "16", "--sequences", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "sequences fuzzed   : 6" in out
        assert "verdict            : OK" in out
        assert "features covered" in out

    def test_writes_markdown_report(self, tmp_path, capsys):
        report = tmp_path / "verify.md"
        argv = ["verify", "--n", "16", "--sequences", "4", "--out", str(report)]
        assert main(argv) == 0
        text = report.read_text()
        assert "# Differential verification report" in text
        assert "Tightest bound instances" in text

    def test_algorithm_subset_and_unknown_name(self, capsys):
        assert main(["verify", "--n", "16", "--sequences", "3",
                     "--algorithms", "greedy,optimal"]) == 0
        capsys.readouterr()
        assert main(["verify", "--n", "16", "--sequences", "3",
                     "--algorithms", "nope"]) == 2
        assert "error: unknown algorithm" in capsys.readouterr().err

    def test_replays_committed_corpus(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).resolve().parent / "corpus"
        assert main(["verify", "--replay", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "all corpus entries pass" in out


class TestInterrupts:
    """Exit-code conventions when the user (or the pipe) goes away."""

    def _parser_raising(self, exc):
        import argparse

        def boom(args):
            raise exc

        def fake_build_parser():
            p = argparse.ArgumentParser()
            p.set_defaults(func=boom)
            return p

        return fake_build_parser

    def test_keyboard_interrupt_exits_130_with_note(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.cli.build_parser", self._parser_raising(KeyboardInterrupt())
        )
        assert main([]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err

    def test_broken_pipe_exits_141_silently(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.cli.build_parser", self._parser_raising(BrokenPipeError())
        )
        assert main([]) == 141
        assert capsys.readouterr().err == ""

    class _SignallingStdin:
        """One good event line, then the stream raises a signal exception
        — models Ctrl-C / a vanished reader mid-serve."""

        def __init__(self, exc):
            self._exc = exc

        def __iter__(self):
            yield '{"kind":"arrival","size":2}\n'
            raise self._exc

    @pytest.mark.parametrize(
        "exc,code", [(KeyboardInterrupt, 130), (BrokenPipeError, 141)]
    )
    def test_serve_signal_mid_stream_commits_then_exits(
        self, monkeypatch, capsys, tmp_path, exc, code
    ):
        """Satellite contract: signals during serving (including SLO
        backpressure stalls) keep the 130/141 convention AND the close()
        commit — the absorbed event must survive into a resumed session."""
        import json

        journal = tmp_path / "interrupted.journal"
        monkeypatch.setattr("sys.stdin", self._SignallingStdin(exc()))
        argv = [
            "serve", "--n", "8", "--slo-target", "2",
            "--journal", str(journal), "--fsync", "batch",
        ]
        assert main(argv) == code
        capsys.readouterr()
        # The finally-path close() committed the group-commit buffer.
        monkeypatch.setattr("sys.stdin", io.StringIO('{"op":"status"}\n'))
        assert main(["serve", "--n", "8", "--slo-target", "2",
                     "--journal", str(journal)]) == 0
        status = json.loads(
            capsys.readouterr().out.strip().splitlines()[0]
        )
        assert status["events"] == 1 and status["active_tasks"] == 1


class TestFaultFlags:
    def test_simulate_with_faults_prints_degradation(self, capsys):
        assert (
            main(
                [
                    "simulate", "--n", "16", "--workload", "churn",
                    "--tasks", "120", "--algorithm", "periodic", "--d", "1",
                    "--faults", "--seed", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fault plan" in out
        assert "min surviving" in out

    def test_verify_with_faults_reports_fault_mode(self, capsys):
        assert (
            main(["verify", "--n", "16", "--sequences", "3", "--faults"]) == 0
        )
        out = capsys.readouterr().out
        assert "fault-mode checks" in out
        assert "verdict            : OK" in out

    def test_verify_slo_reports_slo_mode(self, capsys):
        assert (
            main(["verify", "--n", "16", "--sequences", "4", "--slo"]) == 0
        )
        out = capsys.readouterr().out
        assert "slo-mode checks" in out
        assert "verdict            : OK" in out

    def test_verify_resume_matches_uninterrupted(self, tmp_path, capsys):
        ckpt = tmp_path / "verify.ckpt"
        argv = ["verify", "--n", "16", "--sequences", "4", "--seed", "9"]
        assert main(argv + ["--resume", str(ckpt)]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume", str(ckpt)]) == 0
        resumed = capsys.readouterr().out
        assert main(argv) == 0
        plain = capsys.readouterr().out

        def stats(text):
            return [
                line for line in text.splitlines()
                if "checks run" in line or "verdict" in line
            ]

        assert stats(first) == stats(resumed) == stats(plain)


class TestStreaming:
    """`repro emit`, `repro simulate --stream`, and `repro serve`."""

    def _stdin(self, monkeypatch, text):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_emit_prints_jsonl(self, capsys):
        import json

        assert main(["emit", "--n", "8", "--tasks", "10", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert record["kind"] in ("arrival", "departure")

    def test_emit_pipes_into_stream_simulate(self, capsys, monkeypatch):
        import json

        assert main(["emit", "--n", "8", "--tasks", "10", "--seed", "1"]) == 0
        emitted = capsys.readouterr().out
        self._stdin(monkeypatch, emitted)
        assert main(["simulate", "--stream", "--n", "8", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        decisions = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert len(decisions) == len(emitted.strip().splitlines())
        assert all("max_load" in d for d in decisions)
        assert "stream done" in captured.err

    def test_stream_rejects_garbage(self, capsys, monkeypatch):
        self._stdin(monkeypatch, "{not json\n")
        assert main(["simulate", "--stream", "--n", "8"]) == 2
        assert "invalid event JSON" in capsys.readouterr().err

    def test_stream_save_run_audits(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "stream-run.json"
        self._stdin(
            monkeypatch,
            '{"kind":"arrival","size":4}\n'
            '{"kind":"arrival","size":2,"time":1.0}\n'
            '{"kind":"departure","id":0,"time":2.0}\n',
        )
        assert main(
            ["simulate", "--stream", "--n", "8", "--save-run", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["audit", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_serve_ops_and_errors(self, capsys, monkeypatch):
        import json

        self._stdin(
            monkeypatch,
            '{"kind":"arrival","size":2}\n'
            '{"op":"status"}\n'
            '{"kind":"departure","id":99}\n'  # unknown task -> error record
            "not json at all\n"
            '{"op":"nope"}\n',
        )
        assert main(["serve", "--n", "8"]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        decision = json.loads(out_lines[0])
        assert decision["kind"] == "arrival"
        status = json.loads(out_lines[1])
        assert status["events"] == 1
        assert "error" in json.loads(out_lines[2])
        assert "error" in json.loads(out_lines[3])
        assert "error" in json.loads(out_lines[4])

    def test_serve_journal_resume(self, capsys, monkeypatch, tmp_path):
        import json

        journal = tmp_path / "serve.journal"
        self._stdin(monkeypatch, '{"kind":"arrival","size":2}\n')
        assert main(["serve", "--n", "8", "--journal", str(journal)]) == 0
        capsys.readouterr()
        self._stdin(monkeypatch, '{"op":"status"}\n')
        assert main(["serve", "--n", "8", "--journal", str(journal)]) == 0
        captured = capsys.readouterr()
        assert "resumed 1 event(s)" in captured.err
        status = json.loads(captured.out.strip().splitlines()[0])
        assert status["events"] == 1 and status["active_tasks"] == 1

    def test_serve_resume_restores_then_replays_the_tail(
        self, capsys, monkeypatch, tmp_path
    ):
        """Past a full checkpoint (1,024 events) a restart restores the
        state sidecar and replays only the tail; without the sidecar it
        replays everything, to the same status."""
        import json

        journal = tmp_path / "serve.journal"
        self._stdin(monkeypatch, "".join(
            f'{{"kind":"arrival","size":1,"id":{i}}}\n'
            f'{{"kind":"departure","id":{i}}}\n'
            for i in range(550)
        ))
        assert main(["serve", "--n", "8", "--journal", str(journal)]) == 0
        capsys.readouterr()
        runs = []
        for _ in range(2):
            self._stdin(monkeypatch, '{"op":"status"}\n')
            assert main(["serve", "--n", "8", "--journal", str(journal)]) == 0
            runs.append(capsys.readouterr())
            (tmp_path / "serve.journal.state").unlink(missing_ok=True)
        assert "resumed 1100 event(s) (restored at event 1024, replayed 76)" in runs[0].err
        assert "resumed 1100 event(s) (restored at event 0, replayed 1100)" in runs[1].err
        assert runs[0].out == runs[1].out
        assert json.loads(runs[0].out.splitlines()[0])["events"] == 1100

    def test_serve_error_records_carry_line_numbers(self, capsys, monkeypatch):
        """Satellite contract: every error record names the offending
        stream line, and the session keeps serving afterwards."""
        import json

        self._stdin(
            monkeypatch,
            '{"kind":"arrival","size":2}\n'
            "{broken json\n"
            '{"op":"bogus"}\n'
            '{"kind":"arrival","size":4}\n',
        )
        assert main(["serve", "--n", "8"]) == 0
        out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        bad_json, bad_op = out[1], out[2]
        assert bad_json["error"].startswith("invalid JSON")
        assert bad_json["op"] is None and bad_json["line"] == 2
        assert bad_op["op"] == "bogus" and bad_op["line"] == 3
        # The line after both errors was still served normally.
        assert out[3]["kind"] == "arrival" and out[3]["task_id"] == 1

    def test_serve_slo_emits_typed_outcomes(self, capsys, monkeypatch):
        import json

        self._stdin(
            monkeypatch,
            '{"kind":"arrival","size":8}\n'   # admitted (load 1 everywhere)
            '{"kind":"arrival","size":4}\n'   # queued: target 1 reached
            '{"kind":"arrival","size":4}\n'   # rejected: queue full
            '{"kind":"departure","id":0}\n'   # departs and drains task 1
            '{"op":"status"}\n',
        )
        assert main(
            ["serve", "--n", "8", "--slo-target", "1", "--slo-queue", "1"]
        ) == 0
        captured = capsys.readouterr()
        out = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert out[0]["kind"] == "arrival" and "node" in out[0]
        assert out[1] == {"slo": "queued", "id": 1, "position": 0, "queued": 1}
        assert out[2]["slo"] == "rejected" and "retry_after" in out[2]
        assert out[3]["kind"] == "departure"
        assert out[4]["dequeued"] is True and out[4]["task_id"] == 1
        status = out[5]
        assert status["slo"]["load_target"] == 1
        assert status["rejected_total"] == 1 and status["queued_tasks"] == 0
        assert ", 0 queued, 1 rejected" in captured.err

    def test_serve_backpressure_emits_overloaded_and_commits(
        self, capsys, monkeypatch, tmp_path
    ):
        """Above the high watermark the server emits an ``overloaded``
        record and flushes the journal before reading on."""
        import json

        import repro.service as service_mod

        real_policy = service_mod.SLOPolicy

        def tight_policy(**kw):
            kw.setdefault("high_watermark", 2)
            kw.setdefault("low_watermark", 1)
            return real_policy(**kw)

        monkeypatch.setattr(service_mod, "SLOPolicy", tight_policy)
        journal = tmp_path / "overload.journal"
        self._stdin(
            monkeypatch,
            '{"kind":"arrival","size":1}\n'
            '{"kind":"arrival","size":1}\n'
            '{"kind":"arrival","size":1}\n',
        )
        assert main(
            [
                "serve", "--n", "8", "--slo-target", "4",
                "--journal", str(journal), "--fsync", "batch",
            ]
        ) == 0
        out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        overloaded = [o for o in out if o.get("overloaded")]
        assert overloaded, out
        assert overloaded[0]["journal_pending"] >= 2
        assert overloaded[0]["retry_after"] > 0
        # The stall committed: every admitted event is on disk.
        from repro.sim.frames import iter_journal_payloads

        assert len(iter_journal_payloads(journal)) == 3


class TestBatchedStreaming:
    """`simulate --stream --batch K --fsync ...`: amortised, same answers."""

    def _stdin(self, monkeypatch, text):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_batched_stream_equals_per_event(self, capsys, monkeypatch):
        assert main(["emit", "--n", "8", "--tasks", "30", "--seed", "4"]) == 0
        emitted = capsys.readouterr().out

        self._stdin(monkeypatch, emitted)
        assert main(["simulate", "--stream", "--n", "8", "--seed", "4"]) == 0
        per_event = capsys.readouterr().out.strip().splitlines()

        self._stdin(monkeypatch, emitted)
        assert main(
            ["simulate", "--stream", "--batch", "7", "--n", "8", "--seed", "4"]
        ) == 0
        batched = capsys.readouterr().out.strip().splitlines()
        assert batched == per_event

    def test_batched_stream_with_journal_resumes(
        self, capsys, monkeypatch, tmp_path
    ):
        import json

        journal = tmp_path / "stream.journal"
        assert main(["emit", "--n", "8", "--tasks", "20", "--seed", "2"]) == 0
        emitted = capsys.readouterr().out
        self._stdin(monkeypatch, emitted)
        assert main(
            [
                "simulate", "--stream", "--batch", "8",
                "--fsync", "batch", "--journal", str(journal),
                "--n", "8", "--seed", "2",
            ]
        ) == 0
        capsys.readouterr()
        assert journal.exists()
        # The journal resumes in `serve` (same session wire format).
        self._stdin(monkeypatch, '{"op":"status"}\n')
        assert main(["serve", "--n", "8", "--journal", str(journal)]) == 0
        captured = capsys.readouterr()
        status = json.loads(captured.out.strip().splitlines()[0])
        assert status["events"] == len(emitted.strip().splitlines())

    def test_bad_fsync_policy_is_a_clean_error(self, capsys, monkeypatch, tmp_path):
        self._stdin(monkeypatch, '{"kind":"arrival","size":2}\n')
        code = main(
            [
                "simulate", "--stream", "--n", "8",
                "--journal", str(tmp_path / "j"), "--fsync", "nope",
            ]
        )
        assert code != 0
        assert "fsync" in capsys.readouterr().err

    def test_serve_control_op_flushes_group_commit(
        self, capsys, monkeypatch, tmp_path
    ):
        """Every control op is a commit point: it must flush the pending
        group-commit buffer before answering."""
        import json

        from repro.service import AllocationSession

        pending_at_flush = []
        original = AllocationSession.flush

        def spying_flush(self):
            if self._journal is not None:
                pending_at_flush.append(self._journal.pending)
            original(self)

        monkeypatch.setattr(AllocationSession, "flush", spying_flush)
        journal = tmp_path / "serve.journal"
        self._stdin(
            monkeypatch,
            '{"kind":"arrival","size":2}\n'
            '{"kind":"arrival","size":4}\n'
            '{"op":"status"}\n'
            '{"op":"snapshot"}\n',
        )
        assert main(
            ["serve", "--n", "8", "--journal", str(journal), "--fsync", "batch"]
        ) == 0
        captured = capsys.readouterr()
        status = json.loads(captured.out.strip().splitlines()[2])
        assert status["events"] == 2
        # status saw 2 buffered records and committed them; snapshot then
        # had nothing pending.
        assert pending_at_flush == [2, 0]
        from repro.sim.frames import iter_journal_payloads

        assert len(iter_journal_payloads(journal)) == 2


class TestJournalDump:
    @staticmethod
    def _journal(path, events=40):
        from repro.core.registry import make_algorithm
        from repro.machines.tree import TreeMachine
        from repro.service import AllocationSession

        machine = TreeMachine(8)
        session = AllocationSession(
            machine, make_algorithm("greedy", machine, d=2.0),
            journal_path=path, fsync_policy="batch",
            snapshot_interval=4, full_snapshot_interval=16,
        )
        for i in range(events):
            session.push({"kind": "arrival", "size": 1, "id": i})
            session.push({"kind": "departure", "id": i})
        session.close()

    @staticmethod
    def _fields(out):
        return dict(
            (key.strip(), value.strip())
            for key, value in (line.split(":", 1) for line in out.splitlines())
        )

    def test_stats_list_digests_and_bytes_per_kind(self, capsys, tmp_path):
        journal = tmp_path / "s.journal"
        self._journal(journal)
        assert main(["journal", "dump", str(journal), "--stats"]) == 0
        fields = self._fields(capsys.readouterr().out)
        assert fields["state digests"] == "at [15, 31, 47, 63, 79]"
        assert fields["delta riders"].startswith("15 (first 3, last 75)")
        per_kind = dict(
            item.split("=") for item in fields["bytes per kind"].split()
        )
        # Records pushed between two syncs share one batch frame.
        assert set(per_kind) == {"header", "batch", "attach"}
        # Every frame byte is accounted for; only the magic is not a frame.
        total = sum(int(v) for v in per_kind.values())
        assert total + 5 == int(fields["file bytes"])
        assert float(fields["bytes per record"]) < 150
        sidecar = journal.with_name("s.journal.state")
        assert fields["state sidecar"] == (
            f"s.journal.state, {sidecar.stat().st_size} bytes, index 80, "
            "verifies against the journal"
        )
        sidecar.write_bytes(sidecar.read_bytes()[:-9])
        assert main(["journal", "dump", str(journal), "--stats"]) == 0
        fields = self._fields(capsys.readouterr().out)
        assert "does not verify" in fields["state sidecar"]

    def test_stats_count_narrow_and_wide_records(self, capsys, tmp_path):
        """Records whose fields fit take the narrow layout; the others fall
        back to the wide one, and the dump counts both per kind."""
        journal = tmp_path / "s.journal"
        self._journal(journal)
        assert main(["journal", "dump", str(journal), "--stats"]) == 0
        fields = self._fields(capsys.readouterr().out)
        assert fields["narrow records"] == "arrival=40 departure=40"
        assert fields["wide records"] == "arrival=0 departure=0"

        from repro.core.registry import make_algorithm
        from repro.machines.tree import TreeMachine
        from repro.service import AllocationSession

        mixed = tmp_path / "mixed.journal"
        machine = TreeMachine(8)
        session = AllocationSession(
            machine, make_algorithm("greedy", machine, d=2.0), journal_path=mixed,
        )
        session.push({"kind": "arrival", "time": 1.0, "size": 2, "id": 0})
        session.push({"kind": "arrival", "time": 1.5, "size": 2, "id": 1})
        session.push({"kind": "arrival", "time": 2.0, "size": 1, "id": 2, "work": 3.0})
        session.push({"kind": "departure", "time": 2.5, "id": 0})
        session.close()
        assert main(["journal", "dump", str(mixed), "--stats"]) == 0
        fields = self._fields(capsys.readouterr().out)
        assert fields["narrow records"] == "arrival=1 departure=0"
        assert fields["wide records"] == "arrival=2 departure=1"

    def test_earlier_build_journal_is_refused(self, capsys, monkeypatch):
        """A v2 journal holds pickles: dump refuses it with one line naming
        the format, and never decodes it."""
        import repro.sim.frames as frames

        def never(*_args, **_kw):
            raise AssertionError("a v2 journal was decoded")

        monkeypatch.setattr(frames, "decode_journal", never)
        monkeypatch.setattr(frames, "scan_frames", never)
        journal = (
            Path(__file__).parent / "service" / "data" / "golden_push_batch.journal"
        )
        before = journal.read_bytes()
        assert main(["journal", "dump", str(journal), "--stats"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {journal} is a v2 (RJF2, pickle-framed)")
        assert "Delete it" in line
        assert journal.read_bytes() == before

    def test_cell_bag_journal_counts_cells_without_decoding(self, capsys, tmp_path):
        from repro.sim.checkpoint import CellJournal

        path = tmp_path / "cells.ckpt"
        with CellJournal(path, fingerprint={"kind": "t"}) as journal:
            journal.record(0, (1, 2))
            journal.record(1, {"x": frozenset()})
        assert main(["journal", "dump", str(path), "--stats"]) == 0
        fields = self._fields(capsys.readouterr().out)
        assert fields["frames"] == "cell=2 header=1"
        assert fields["tail"] == "clean"
        assert fields["records"].startswith("2 cell result(s), not decoded")
