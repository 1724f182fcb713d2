"""``repro serve`` with timing spans around the calls into each layer.

Usage (the benchmark runner starts it; it is not meant to be run by hand)::

    PYTHONPATH=src python benchmarks/serve/traced_server.py SPANS serve ...

Every argument after ``SPANS`` goes to ``repro.cli.main`` unchanged.  The
wrappers are installed at the import site each caller actually uses
(for example the server module's own ``decision_line`` binding, not the
``stream`` module's), then the CLI runs as usual.  Each wrapped call
records a span: name, start, end, parent span and request id, with
``time.monotonic_ns`` so spans line up with the client's clock.  Each
``ServiceServer._serve_line`` call opens a new request; spans outside any
request belong to request 0, the set-up.  Spans stay in memory and are
written to ``SPANS`` when the server exits.

File layout: a JSON header line (span names, per-request line text),
then the five int64 span columns back to back.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

#: (span name, module, attribute path) — what to wrap and where.
TARGETS = [
    ("server", "repro.service.shard.server", "ServiceServer._serve_line"),
    ("stream.decode", "repro.service.shard.server", "parse_event_record"),
    ("stream.encode", "repro.service.shard.server", "decision_line"),
    ("stream.encode", "repro.service.shard.server", "admission_lines"),
    ("session.push", "repro.service.session", "AllocationSession.push"),
    ("session.offer", "repro.service.session", "AllocationSession.offer"),
    ("session.absorb", "repro.service.session", "AllocationSession._absorb"),
    ("session.flush", "repro.service.session", "AllocationSession.flush"),
    ("resume.replay", "repro.service.session", "AllocationSession.push_replay"),
    ("kernel.apply", "repro.kernel.core", "AllocationKernel.apply"),
    ("kernel.snapshot", "repro.kernel.core", "AllocationKernel.snapshot"),
    ("repack", "repro.core.periodic", "repack"),
    ("loads.rebuild", "repro.machines.loads", "LoadTracker.rebuild_from"),
    ("loads.descent", "repro.machines.loads", "LoadTracker.leftmost_min_submachine"),
    ("journal.record", "repro.sim.checkpoint", "CheckpointJournal.record"),
    ("resume.open", "repro.sim.checkpoint", "CheckpointJournal.__init__"),
    ("fsync", "os", "fsync"),
]


class Tracer:
    """Span store: five parallel int64 columns plus per-request text."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.texts: list[str] = [""]  # request 0 = set-up
        self.stack: list[int] = []
        self.current = 0

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, *, root: bool = False):
        nid = self._name_id(name)
        clock = time.monotonic_ns
        stack = self.stack
        names, starts, ends = self.name, self.start, self.end
        parents, requests = self.parent, self.request
        tracer = self

        def traced(*args, **kwargs):
            if root:
                tracer.texts.append(args[1] if len(args) > 1 else "")
                tracer.current = len(tracer.texts) - 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.current)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if root:
                    tracer.current = 0

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists.  A missing one is skipped: its
        span then records no calls and the runner's coverage check names
        it, which is clearer than a server that fails to start."""
        import importlib

        for name, module_name, path in TARGETS:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            setattr(owner, attr, self.wrap(name, fn, root=name == "server"))

    def dump(self, path: str) -> None:
        header = {"names": self.names, "texts": self.texts, "count": len(self.name)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.request):
                column.tofile(fh)


def load(path: str) -> dict:
    """Read a span file back: header fields plus the five columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for key in ("name", "start", "end", "parent", "request"):
            column = array("q")
            column.fromfile(fh, header["count"])
            columns[key] = column
    header.update(columns)
    return header


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
