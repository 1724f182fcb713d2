"""Session archives are byte-identical to the ones the kernel's own
placement log used to produce.

A session keeps no history: ``save_run`` replays its event log through a
copy of the algorithm as constructed and folds the segments from the
replayed decisions.  The gzipped fixtures in ``data/`` are the archives
an earlier build — whose kernel kept every placement — wrote for the
same inputs and options:

* ``stream_run.json.gz``: ``repro emit --n 64 --tasks 200 --seed 7`` (the
  CI stream-smoke input) through ``repro simulate --stream --n 64
  --algorithm periodic --d 1 --save-run``;
* ``stream_save.json.gz``: the same input through ``repro serve --n 64
  --algorithm periodic --d 1``, then ``{"op": "save", ...}`` on stdin;
* ``fault_resize_run.json.gz``: ``fault_resize.jsonl`` (failures,
  repairs, a kill, a grow and a shrink) through ``repro simulate
  --stream --faults --n 64 --algorithm periodic --d 1 --save-run``.
"""

import gzip
import io
import json
from pathlib import Path

from repro.cli import main

DATA = Path(__file__).parent / "data"
ALGORITHM = ["--n", "64", "--algorithm", "periodic", "--d", "1"]


def _feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def _expected(name):
    return gzip.decompress((DATA / name).read_bytes())


def _ci_stream(capsys):
    assert main(["emit", "--n", "64", "--tasks", "200", "--seed", "7"]) == 0
    return capsys.readouterr().out


def test_simulate_stream_archive_is_unchanged(capsys, monkeypatch, tmp_path):
    path = tmp_path / "stream-run.json"
    _feed(monkeypatch, _ci_stream(capsys))
    assert main(["simulate", "--stream", *ALGORITHM, "--save-run", str(path)]) == 0
    assert path.read_bytes() == _expected("stream_run.json.gz")


def test_serve_save_op_archive_is_unchanged(capsys, monkeypatch, tmp_path):
    path = tmp_path / "stream-save.json"
    save = json.dumps({"op": "save", "path": str(path)})
    _feed(monkeypatch, _ci_stream(capsys) + save + "\n")
    journal = str(tmp_path / "serve.journal")
    assert main(["serve", *ALGORITHM, "--journal", journal]) == 0
    replies = capsys.readouterr().out.splitlines()
    assert json.loads(replies[-1]) == {"saved": str(path)}
    assert path.read_bytes() == _expected("stream_save.json.gz")


def test_fault_and_resize_archive_is_unchanged(capsys, monkeypatch, tmp_path):
    path = tmp_path / "fault-run.json"
    records = (DATA / "fault_resize.jsonl").read_text()
    kinds = {json.loads(line)["kind"] for line in records.splitlines()}
    assert {"failure", "repair", "kill", "resize"} <= kinds
    _feed(monkeypatch, records)
    assert main(
        ["simulate", "--stream", "--faults", *ALGORITHM, "--save-run", str(path)]
    ) == 0
    out = capsys.readouterr().out
    assert '"salvaged":true' in out and '"reallocated":true' in out
    assert path.read_bytes() == _expected("fault_resize_run.json.gz")
