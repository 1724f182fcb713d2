"""Fault containment in the parallel executor: timeouts, crashes, resume."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CellExecutionError
from repro.sim.frames import JOURNAL_MAGIC, iter_journal_payloads, scan_frames
from repro.sim.parallel import parallel_map, run_seeded_cells

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _ident(x):
    return x * 10


def _sleepy(x, naptime=5.0, slow={3}):
    if x in slow:
        time.sleep(naptime)
    return x * 10


def _buggy(x):
    if x == 2:
        raise ValueError("genuine bug in the cell")
    return x


def _slow_once(x, flag_dir):
    """Sleeps on the first attempt of cell 3, fast afterwards."""
    flag = Path(flag_dir) / f"slow-{x}"
    if x == 3 and not flag.exists():
        flag.touch()
        time.sleep(5.0)
    return x * 10


def _suicidal(x, flag_dir):
    """SIGKILLs its own worker process on the first attempt of cell 3."""
    flag = Path(flag_dir) / f"kill-{x}"
    if x == 3 and not flag.exists():
        flag.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def _seeded(rng, base):
    return base + int(rng.integers(0, 1_000_000))


def _seeded_rich(rng, base):
    # No JSON round trip keeps this exact: a tuple, int keys, a set, a float.
    return {base: (base, float(rng.random())), "tags": frozenset({base % 3})}


class TestTimeouts:
    def test_serial_timeout_fails_only_the_slow_cell(self):
        with pytest.raises(CellExecutionError) as err:
            parallel_map(_sleepy, [(i,) for i in range(5)], timeout=0.2)
        assert set(err.value.failures) == {3}
        assert "timeout" in err.value.failures[3]

    def test_pool_timeout_fails_only_the_slow_cell(self):
        with pytest.raises(CellExecutionError) as err:
            parallel_map(_sleepy, [(i,) for i in range(5)], jobs=2, timeout=0.2)
        assert set(err.value.failures) == {3}

    def test_transient_slowness_survives_a_retry(self, tmp_path):
        results = parallel_map(
            _slow_once,
            [(i, str(tmp_path)) for i in range(5)],
            jobs=2,
            timeout=0.5,
            retries=1,
        )
        assert results == [i * 10 for i in range(5)]

    def test_genuine_bugs_propagate_immediately(self):
        with pytest.raises(ValueError, match="genuine bug"):
            parallel_map(_buggy, [(i,) for i in range(4)], timeout=1.0, retries=3)
        with pytest.raises(ValueError, match="genuine bug"):
            parallel_map(
                _buggy, [(i,) for i in range(4)], jobs=2, timeout=1.0, retries=3
            )


class TestWorkerCrash:
    def test_sigkilled_worker_is_retried_to_completion(self, tmp_path):
        results = parallel_map(
            _suicidal,
            [(i, str(tmp_path)) for i in range(6)],
            jobs=2,
            retries=1,
        )
        assert results == [i * 10 for i in range(6)]

    def test_without_retries_the_crash_surfaces_as_cell_failures(self, tmp_path):
        with pytest.raises(CellExecutionError) as err:
            parallel_map(
                _suicidal,
                [(i, str(tmp_path)) for i in range(6)],
                jobs=2,
                retries=0,
            )
        # The pool cannot attribute the crash, so the culprit is among the
        # reported cells — but every completed cell stays out of the list.
        assert 3 in err.value.failures
        assert set(err.value.failures) <= set(range(6))


class TestCheckpointedExecution:
    def test_parallel_map_resumes_from_journal(self, tmp_path):
        ckpt = tmp_path / "map.ckpt"
        args = [(i,) for i in range(6)]
        first = parallel_map(_ident, args, checkpoint=ckpt)
        again = parallel_map(_ident, args, checkpoint=ckpt)
        assert first == again == [i * 10 for i in range(6)]

    def test_run_seeded_cells_resume_is_bit_identical(self, tmp_path):
        cells = [{"base": i} for i in range(5)]
        root = np.random.SeedSequence(42)
        serial = run_seeded_cells(_seeded, cells, root.spawn(5))
        ckpt = tmp_path / "cells.ckpt"
        checkpointed = run_seeded_cells(
            _seeded, cells, np.random.SeedSequence(42).spawn(5), checkpoint=ckpt
        )
        resumed = run_seeded_cells(
            _seeded, cells, np.random.SeedSequence(42).spawn(5), checkpoint=ckpt
        )
        assert serial == checkpointed == resumed

    def test_run_seeded_cells_resumes_after_a_torn_frame(self, tmp_path):
        cells = [{"base": i} for i in range(6)]
        serial = run_seeded_cells(
            _seeded_rich, cells, np.random.SeedSequence(7).spawn(6)
        )
        ckpt = tmp_path / "cells.ckpt"
        run_seeded_cells(
            _seeded_rich, cells, np.random.SeedSequence(7).spawn(6),
            checkpoint=ckpt,
        )
        data = ckpt.read_bytes()
        frames, _end, _reason = scan_frames(data, len(JOURNAL_MAGIC))
        _kind, payload, start = frames[-2]  # a crash inside the 5th cell
        ckpt.write_bytes(data[: start + 9 + len(payload) // 2])
        with pytest.warns(UserWarning, match="torn payload"):
            resumed = run_seeded_cells(
                _seeded_rich, cells, np.random.SeedSequence(7).spawn(6),
                checkpoint=ckpt,
            )
        assert resumed == serial
        # The torn cell and the one after it were recomputed and journaled.
        assert dict(iter_journal_payloads(ckpt)) == dict(enumerate(serial))

    def test_dead_coordinator_resumes_bit_identically(self, tmp_path):
        """SIGKILL-equivalent coordinator death mid-sweep, then resume.

        The journal fingerprint pins the callable's module and qualname, so
        the cell function lives in a throwaway module importable by both
        the doomed child process and the resuming parent.
        """
        helper = tmp_path / "resil_helper.py"
        helper.write_text(
            textwrap.dedent(
                """
                import os

                def cell(x):
                    if x == 3 and os.environ.get("RESIL_DIE") == "1":
                        os._exit(9)  # uncatchable, like SIGKILL: no cleanup
                    return x * x + 1
                """
            )
        )
        ckpt = tmp_path / "sweep.ckpt"
        child = textwrap.dedent(
            f"""
            from resil_helper import cell
            from repro.sim.parallel import parallel_map

            parallel_map(cell, [(i,) for i in range(6)], checkpoint={str(ckpt)!r})
            """
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)]),
            RESIL_DIE="1",
        )
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 9, proc.stderr
        # Cells 0..2: the journal survived the coordinator.
        assert [i for i, _ in iter_journal_payloads(ckpt)] == [0, 1, 2]

        sys.path.insert(0, str(tmp_path))
        try:
            import resil_helper

            resumed = parallel_map(
                resil_helper.cell, [(i,) for i in range(6)], checkpoint=ckpt
            )
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("resil_helper", None)
        assert resumed == [i * i + 1 for i in range(6)]
