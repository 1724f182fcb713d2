"""Journaled checkpoint/resume for long-running cell bags.

A :class:`CheckpointJournal` is an append-only file that records the
result of every completed cell of a sweep (or any other bag of independent
work items).  When the coordinating process dies — SIGKILL, OOM, a pulled
plug — the journal survives, and the next run replays completed cells from
it instead of recomputing them.  Because the executors in
:mod:`repro.sim.parallel` spawn every cell's RNG stream *before* dispatch,
a resumed run produces **bit-identical** final results to an uninterrupted
one: the journal only short-circuits work, never changes it.

On disk the journal is a magic prefix and CRC-checked binary frames
(:mod:`repro.sim.frames`)::

    b"RJF2\\x00"
    [u32 len | u8 kind | u32 crc32] header-JSON       (FRAME_HEADER)
    [u32 len | u8 kind | u32 crc32] i64 first + cols  (FRAME_BATCH)
    [u32 len | u8 kind | u32 crc32] pickle(idx, val)  (FRAME_PICKLE)
    ...

A torn tail is detected *structurally* — a frame whose length prefix
runs past EOF or whose payload fails its CRC — and whole batches are
group-committed as single columnar frames.  This is the only format: a
v1 JSONL journal written by an older build (its first byte is ``{``) is
refused with a :class:`~repro.errors.CheckpointError` and left
untouched.

* The **header** pins a fingerprint of the workload (callable identity,
  cell parameters, seed streams).  Resuming against a different workload
  is a hard :class:`~repro.errors.CheckpointError` — silently mixing
  results from two different sweeps would be far worse than recomputing.
* Each **record** is one completed cell.  Durability is governed by the
  **fsync policy**: ``always`` (the default) writes every record with
  ``flush`` + ``fsync``, so a crash loses at most the record being
  written; ``batch`` buffers records in user space until an explicit
  :meth:`~CheckpointJournal.commit` (or a :meth:`record_many` group
  commit, or close), trading a bounded loss window — everything since
  the last commit — for one ``fsync`` per batch instead of per record;
  ``interval:<ms>`` buffers and syncs whenever at least that much wall
  time has passed since the last sync.
* A **corrupt tail** (whatever partial write a crash leaves behind) is
  detected by the opening pass over the file, reported with a warning,
  and truncated away; every record before it is kept.

The journal is a private working file, not an interchange format — the
schema version exists so a build refuses a journal it cannot read
exactly, instead of misreading it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import CheckpointError
from repro.sim import frames as _frames

__all__ = ["CheckpointJournal", "workload_fingerprint"]

#: Header version of the framed journal; bump on an incompatible change.
JOURNAL_VERSION = 2

_HEADER_KIND = "repro-checkpoint"
_I64 = struct.Struct("<q")
#: Read buffer of a pass over the journal file.
_READ_BUFFER = 1 << 16


def _parse_fsync_policy(spec: str) -> tuple[str, float]:
    """``'always' | 'batch' | 'interval:<ms>'`` -> (mode, interval seconds)."""
    if spec in ("always", "batch"):
        return spec, 0.0
    if spec.startswith("interval:"):
        try:
            ms = float(spec.split(":", 1)[1])
        except ValueError:
            ms = -1.0
        if ms <= 0:
            raise CheckpointError(
                f"bad fsync interval in {spec!r}; expected a positive "
                "millisecond count, e.g. 'interval:50'"
            )
        return "interval", ms / 1000.0
    raise CheckpointError(
        f"unknown fsync policy {spec!r}; expected 'always', 'batch', "
        "or 'interval:<ms>'"
    )


def _fsync_dir(path: Path) -> None:
    """fsync a directory, so a file just created in it survives a crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def workload_fingerprint(
    fn: Callable[..., Any],
    cells: Sequence[Mapping[str, Any]],
    streams: Sequence[Any] = (),
) -> dict:
    """Fingerprint a seeded cell bag: callable + parameters + entropy.

    Used by :func:`repro.sim.parallel.run_seeded_cells` so a journal
    written for one sweep cannot be replayed into a different one.  The
    stream component covers ``(entropy, spawn_key)`` of every per-cell
    :class:`numpy.random.SeedSequence`, which pins the exact randomness
    each cell would consume.
    """
    cell_digest = hashlib.sha256()
    for params in cells:
        cell_digest.update(
            json.dumps(
                {k: repr(v) for k, v in sorted(params.items())}, sort_keys=True
            ).encode()
        )
    stream_digest = hashlib.sha256()
    for stream in streams:
        stream_digest.update(
            repr((getattr(stream, "entropy", None), getattr(stream, "spawn_key", ()))).encode()
        )
    return {
        "kind": "seeded-cells",
        "fn": f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}",
        "num_cells": len(cells),
        "cells_sha256": cell_digest.hexdigest(),
        "streams_sha256": stream_digest.hexdigest(),
    }


def v1_refusal(path: Any) -> str:
    """The error text for a v1 JSONL journal, which this build refuses."""
    return (
        f"{path} is a v1 JSONL journal from an older build; this build "
        "reads only framed (v2) journals. Delete it and run again "
        "(--resume journals are caches: their cells are recomputed)"
    )


def _fingerprint_digest(fingerprint: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True, default=repr).encode()
    ).hexdigest()


class CheckpointJournal:
    """Append-only journal of ``(cell index, result)`` records.

    ``fsync_policy`` governs the durability/throughput trade (module
    docstring): ``always`` syncs per record, ``batch`` syncs on
    :meth:`commit` / :meth:`record_many` / :meth:`close`, and
    ``interval:<ms>`` syncs whenever that much wall time has elapsed
    since the last sync.

    The journal keeps no decoded record: :meth:`completed` and
    :meth:`records` read the file, one frame in memory at a time.  The
    constructor reads only the header of an existing file; the first
    :meth:`completed`, :meth:`records` pass or write is its *opening
    pass*, which ends by truncating a corrupt tail and opening the file
    for appending (a session resume consumes it as it replays).
    """

    def __init__(
        self,
        path,
        *,
        fingerprint: Mapping[str, Any],
        fsync_policy: str = "always",
    ):
        self.path = Path(path)
        self._policy, self._interval_s = _parse_fsync_policy(fsync_policy)
        self.fsync_policy = fsync_policy
        self._pending = 0
        self._pending_bytes = 0
        self._last_sync = time.monotonic()
        self._digest = _fingerprint_digest(fingerprint)
        self._fingerprint = dict(fingerprint)
        self._fh = None
        self._closed = False
        # sha256 of every byte of the file this handle has read or written.
        self._content = hashlib.sha256()
        self._size = 0
        # The file's length at open, once a pass has read it to its end
        # (None while the opening pass is still to run).
        self._opened: Optional[int] = None
        # The opening pass while it runs.
        self._scan: Optional[_frames.JournalReader] = None
        if self.path.exists():
            self._check_header(self._read_header())
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = {
                "kind": _HEADER_KIND,
                "version": JOURNAL_VERSION,
                "fingerprint": self._digest,
                "workload": self._fingerprint,
            }
            self._fh = open(self.path, "ab")
            self._write(
                _frames.JOURNAL_MAGIC
                + _frames.frame_bytes(
                    _frames.FRAME_HEADER,
                    json.dumps(header, sort_keys=True, default=repr).encode("utf-8"),
                )
            )
            self._sync()
            self._opened = self._size
            # The header is durable; make the new directory entry durable
            # too, or a power loss could drop the whole file.
            _fsync_dir(self.path.parent)

    # -- Opening / recovery -------------------------------------------------

    def _read_header(self) -> dict:
        with open(self.path, "rb") as fh:
            if fh.read(1) == b"{":
                raise CheckpointError(v1_refusal(self.path))
            fh.seek(0)
            header = _frames.JournalReader(fh, os.fstat(fh.fileno()).st_size).read_header()
        if header is None:
            raise CheckpointError(
                f"checkpoint {self.path} contains no readable header"
            )
        return header

    def _opening_pass(self) -> Iterator[tuple[int, Any]]:
        """Stream the records of the file as found, then make it
        appendable: a corrupt tail is reported with a warning and
        truncated away.  Abandoned part-way, it leaves the journal
        unopened; the next :meth:`records` starts it again."""
        self._content = hashlib.sha256()
        with open(self.path, "rb", buffering=_READ_BUFFER) as fh:
            reader = _frames.JournalReader(
                fh, os.fstat(fh.fileno()).st_size, self._content
            )
            self._scan = reader
            try:
                reader.read_header()
                yield from reader
            finally:
                self._scan = None
        if reader.reason is not None:
            warnings.warn(
                f"checkpoint {self.path}: truncating corrupt tail "
                f"(byte {reader.end}: {reader.reason}); "
                f"{reader.records} completed cell(s) retained",
                stacklevel=3,
            )
            with open(self.path, "r+b") as fh:
                fh.truncate(reader.end)
                os.fsync(fh.fileno())
        self._size = self._opened = reader.end
        self._fh = open(self.path, "ab")

    def _read_records(self, end: Optional[int]) -> Iterator[tuple[int, Any]]:
        """Stream the records of the file's first ``end`` bytes (all of
        them when None)."""
        with open(self.path, "rb", buffering=_READ_BUFFER) as fh:
            size = os.fstat(fh.fileno()).st_size
            reader = _frames.JournalReader(fh, size if end is None else min(end, size))
            reader.read_header()
            yield from reader

    def records(self) -> Iterator[tuple[int, Any]]:
        """``(index, payload)`` for every record in the file, in file
        order, decoded one frame at a time: nothing is kept.

        The first pass over an existing journal is its opening pass: it
        reads the file as found, and once it reaches the end truncates a
        corrupt tail (with a warning) and opens the file for appending;
        :meth:`content_digest` follows it as it goes.
        Any other pass first hands buffered records to the OS
        (:meth:`flush`) and reads the file as it is then.
        """
        if self._opened is None:
            return self._opening_pass()
        self.flush()
        return self._read_records(None)

    def _check_header(self, header: dict) -> None:
        if (
            header.get("kind") != _HEADER_KIND
            or header.get("version") != JOURNAL_VERSION
        ):
            raise CheckpointError(
                f"checkpoint {self.path} has kind={header.get('kind')!r} "
                f"version={header.get('version')!r}; this build expects "
                f"{_HEADER_KIND!r} v{JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != self._digest:
            # Session journals pin the kernel-state version their digests hash.
            want = self._fingerprint.get("kernel_state")
            workload = header.get("workload")
            got = workload.get("kernel_state") if isinstance(workload, dict) else None
            if want is not None and got != want:
                raise CheckpointError(
                    f"checkpoint {self.path} holds digests of kernel-state "
                    f"{'v2 or older' if got is None else f'v{got}'} snapshots; this "
                    f"build checkpoints v{want} and cannot verify them (file left as is)"
                )
            raise CheckpointError(
                f"checkpoint {self.path} was written for a different workload "
                f"(fingerprint {header.get('fingerprint')!r} != {self._digest!r}); "
                "delete it or point --resume at the matching run"
            )

    # -- Recording ----------------------------------------------------------

    def _appender(self) -> Any:
        """The append handle; the opening pass runs to its end first if
        it has not (records are only ever appended after a good tail)."""
        if self._fh is None and not self._closed and self._opened is None:
            for _record in self._opening_pass():
                pass
        if self._fh is None:
            raise CheckpointError(f"checkpoint {self.path} is closed")
        return self._fh

    def _write(self, blob: bytes) -> None:
        self._appender().write(blob)
        self._content.update(blob)
        self._size += len(blob)

    def content_digest(self) -> tuple[int, str]:
        """``(length, sha256)`` of the file's content so far, flushed or
        not — what a state sidecar pins its journal prefix with.  During
        the opening pass: of the bytes read so far (up to the end of the
        record just yielded)."""
        if self._scan is not None:
            return self._scan.end, self._content.hexdigest()
        return self._size, self._content.hexdigest()

    def flush(self) -> None:
        """Hand every buffered record to the OS, without an fsync: from
        here they survive a kill of this process (not a power loss)."""
        if self._fh is not None:
            self._fh.flush()

    def _sync(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0
        self._pending_bytes = 0
        self._last_sync = time.monotonic()

    def _maybe_interval_sync(self) -> None:
        if time.monotonic() - self._last_sync >= self._interval_s:
            self._sync()

    @property
    def fingerprint_digest(self) -> str:
        """sha256 of the workload fingerprint, as the header records it."""
        return self._digest

    @property
    def pending(self) -> int:
        """Records written but not yet flushed + fsynced (the loss window)."""
        return self._pending

    @property
    def pending_bytes(self) -> int:
        """Bytes written but not yet flushed + fsynced.

        The byte-denominated loss window — the backpressure watermarks in
        :class:`repro.service.slo.SLOPolicy` trip on either this or
        :attr:`pending`, whichever crosses first.
        """
        return self._pending_bytes

    def commit(self) -> None:
        """Make every buffered record durable now (no-op when none pending)."""
        if self._fh is not None and self._pending:
            self._sync()

    def record(self, index: int, value: Any) -> None:
        """Journal one completed cell.

        Durable before return under the ``always`` policy; under ``batch``
        the record stays in the user-space buffer until :meth:`commit`,
        and under ``interval:<ms>`` until the interval elapses.
        """
        blob = _frames.frame_bytes(
            _frames.FRAME_PICKLE,
            pickle.dumps((int(index), value), protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._write(blob)
        self._pending += 1
        self._pending_bytes += len(blob)
        if self._policy == "always":
            self._sync()
        elif self._policy == "interval":
            self._maybe_interval_sync()

    def _encode_many(self, items: list[tuple[int, Any]]) -> bytes:
        """Frame a batch: each contiguous run of ``{"record": ...}``
        payloads whose records fit the columnar schema becomes one
        ``FRAME_BATCH`` (extras such as checkpoint riders follow as
        ``FRAME_ATTACH``); everything else gets a pickle frame per item."""
        out = bytearray()
        i, n = 0, len(items)
        while i < n:
            # The longest run of consecutive indices with record payloads.
            first = items[i][0]
            j = i
            for index, payload in items[i:]:
                if (
                    index != first + j - i
                    or type(payload) is not dict
                    or "record" not in payload
                ):
                    break
                j += 1
            run = items[i:j]
            blob = (
                _frames.encode_wire_records([p["record"] for _, p in run])
                if run else None
            )
            if blob is None:
                index, payload = items[i]
                out += _frames.frame_bytes(
                    _frames.FRAME_PICKLE,
                    pickle.dumps(
                        (int(index), payload), protocol=pickle.HIGHEST_PROTOCOL
                    ),
                )
                i += 1
                continue
            out += _frames.frame_bytes(_frames.FRAME_BATCH, _I64.pack(first) + blob)
            for index, payload in run:
                if len(payload) > 1:
                    extra = {k: v for k, v in payload.items() if k != "record"}
                    out += _frames.frame_bytes(
                        _frames.FRAME_ATTACH,
                        pickle.dumps(
                            (index, extra), protocol=pickle.HIGHEST_PROTOCOL
                        ),
                    )
            i = j
        return bytes(out)

    def record_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """Group-commit a batch of cells: one write, one flush, one fsync.

        Under ``always`` and ``batch`` the whole batch (plus anything
        already pending) is durable before return — this is *the*
        group-commit primitive, amortising the per-record ``fsync`` that
        dominates journaled stream ingest.  Under ``interval:<ms>`` the
        batch is buffered and synced only when the interval has elapsed.
        """
        items = list(items)
        if not items:
            return
        blob = self._encode_many(items)
        self._write(blob)
        self._pending += len(items)
        self._pending_bytes += len(blob)
        if self._policy == "interval":
            self._maybe_interval_sync()
        else:
            self._sync()

    def completed(self) -> dict[int, Any]:
        """Cell index -> result for every cell on disk at open, read from
        the file on each call: the journal keeps no decoded record, so the
        caller holds the only copy.

        Records written since (by :meth:`record` or :meth:`record_many`)
        are left out.  A cell recorded twice resolves last-wins.  The
        first call is the opening pass (see :meth:`records`).
        """
        if self._opened is None:
            return dict(self._opening_pass())
        return dict(self._read_records(self._opened))

    def close(self) -> None:
        """Commit anything pending, then close the file handle."""
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None
        self._closed = True

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
