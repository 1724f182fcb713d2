"""Journaled checkpoint/resume: append-only journals of indexed payloads.

A :class:`CheckpointJournal` is an append-only file of ``(index,
payload)`` records: the events of a journaled
:class:`~repro.service.session.AllocationSession`, whose payloads are
plain JSON-shaped dicts.  A :class:`CellJournal` records the result of
every completed cell of a sweep (or any other bag of independent work
items), whatever Python object it is.  When the coordinating process dies
— SIGKILL, OOM, a pulled plug — the journal survives, and the next run
replays completed cells from it instead of recomputing them.  Because
the executors in :mod:`repro.sim.parallel` spawn every cell's RNG stream
*before* dispatch, a resumed run produces **bit-identical** final
results to an uninterrupted one: the journal only short-circuits work,
never changes it.

On disk the journal is a magic prefix and CRC-checked binary frames
(:mod:`repro.sim.frames`)::

    b"RJF4\\x00"
    [u32 len | u8 kind | u32 crc32] header-JSON           (FRAME_HEADER)
    [u32 len | u8 kind | u32 crc32] record [+ i64 index]  (FRAME_RECORD)
    [u32 len | u8 kind | u32 crc32] i64 first + records   (FRAME_BATCH)
    [u32 len | u8 kind | u32 crc32] i64 index + JSON      (FRAME_JSON)
    [u32 len | u8 kind | u32 crc32] i64 index + riders    (FRAME_ATTACH)
    ...

A torn tail is detected *structurally* — a frame whose length prefix
runs past EOF or whose payload fails its CRC — and a group commit of
session records is a single batch frame of tagged records.  A session
record with a whole time, a 32-bit id, a power-of-two size and unit work
takes the narrow layout (10 bytes for an arrival, 9 for a departure),
and a lone record frame names no index when it holds the record after
the previous one: the journal's encoder starts a new file at index -1
and, after the opening pass, at the last index the pass read.  This is
the only format: a v1 JSONL journal (its first byte is ``{``), a v2
journal (magic ``RJF2``) or a v3 journal (magic ``RJF3``) written by an
older build is refused with a :class:`~repro.errors.CheckpointError`
and left untouched.

Nothing a :class:`CheckpointJournal` reads is unpickled, so a hostile
journal file cannot run code in a session, ``repro journal dump`` or
``repro verify --journal``.  The one exception is local: a
:class:`CellJournal` pickles each cell's result into a ``FRAME_CELL``,
under its own header kind.  Only a :class:`CellJournal` — which the
caller of a ``--resume``/``checkpoint=`` run constructs for the file it
named — unpickles those frames; the header never selects the codec, a
session refuses a cell-bag header, and every other reader cuts a cell
frame as a corrupt tail.

* The **header** pins a fingerprint of the workload (callable identity,
  cell parameters, seed streams).  Resuming against a different workload
  is a hard :class:`~repro.errors.CheckpointError` — silently mixing
  results from two different sweeps would be far worse than recomputing.
* Each **record** is one completed cell.  Durability is governed by the
  **fsync policy**: ``always`` (the default) writes and ``fsync``-s
  every record before :meth:`~CheckpointJournal.record` returns, so a
  crash loses at most the record being written; ``batch`` holds records
  in user space until an explicit :meth:`~CheckpointJournal.commit` (or
  a :meth:`~CheckpointJournal.record_many` group commit, or close),
  trading a bounded loss window — everything since the last commit — for
  one ``fsync`` per batch instead of per record; ``interval:<ms>`` holds
  them and syncs whenever at least that much wall time has passed since
  the last sync.
* **Group commit inside the journal.**  Under ``batch`` and
  ``interval:<ms>`` the records held between two syncs are one *group*:
  packed as they are recorded, and written as one ``FRAME_BATCH`` (a
  group of one stays a ``FRAME_RECORD``) followed by the
  ``FRAME_ATTACH`` riders of its records.  The group is written out at
  every sync, :meth:`~CheckpointJournal.flush` and
  :meth:`~CheckpointJournal.content_digest`, at a payload that takes a
  frame of its own (a JSON payload, a cell), at
  :meth:`~CheckpointJournal.record_many` (which takes the group as the
  head of its batch), and once it holds :data:`GROUP_LIMIT` (8 KiB) —
  where the buffered writer it replaced spilled to the OS.  The group is
  the only user-space buffer: the file handle is unbuffered.  A kill of
  the process loses at most the group (under 8 KiB of records); a power
  loss, everything since the last ``fsync``.
* A **corrupt tail** (whatever partial write a crash leaves behind) is
  detected by the opening pass over the file, reported with a warning,
  and truncated away; every record before it is kept.

The journal is a private working file, not an interchange format — the
schema version exists so a build refuses a journal it cannot read
exactly, instead of misreading it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import CheckpointError
from repro.sim import frames as _frames

__all__ = ["CellJournal", "CheckpointJournal", "workload_fingerprint"]

#: Header version of the framed journal; bump on an incompatible change.
JOURNAL_VERSION = 4
#: Read buffer of a pass over the journal file.
_READ_BUFFER = 1 << 16
#: Bytes of held records at which the group is written out without a
#: sync: where the buffered writer the group replaced spilled to the OS.
GROUP_LIMIT = io.DEFAULT_BUFFER_SIZE


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


def legacy_refusal(path: Any, head: bytes) -> Optional[str]:
    """The error text for a journal of an older format, which this build
    refuses without decoding it — judged by the file's first bytes
    ``head`` — or None for any other file."""
    if head.startswith(b"{"):
        name = "a v1 JSONL journal"
    elif head.startswith(_frames.JOURNAL_MAGIC_V2):
        name = "a v2 (RJF2, pickle-framed) journal"
    elif head.startswith(_frames.JOURNAL_MAGIC_V3):
        name = "a v3 (RJF3, wide-record) journal"
    else:
        return None
    return (
        f"{path} is {name} from an older build; this build reads only "
        f"v{JOURNAL_VERSION} (RJF4) journals, which hold no pickles. Delete "
        "it and run again (--resume journals are caches: their cells are "
        "recomputed)"
    )


def _fingerprint_digest(fingerprint: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True, default=repr).encode()
    ).hexdigest()


class CheckpointJournal:
    """Append-only journal of ``(index, payload)`` records.

    ``fsync_policy`` governs the durability/throughput trade (module
    docstring): ``always`` syncs per record, ``batch`` syncs on
    :meth:`commit` / :meth:`record_many` / :meth:`close`, and
    ``interval:<ms>`` syncs at a record once that much wall time has
    elapsed since the last sync.  Under both of the latter the records
    between two syncs are held as one group (module docstring).

    The journal keeps no decoded record: :meth:`completed` and
    :meth:`records` read the file, one frame in memory at a time.  The
    constructor reads only the header of an existing file; the first
    :meth:`completed`, :meth:`records` pass or write is its *opening
    pass*, which ends by truncating a corrupt tail and opening the file
    for appending (a session resume consumes it as it replays).

    Payloads must survive JSON exactly (dicts with string keys, lists,
    strings, numbers, booleans, None); :meth:`record` raises
    :class:`TypeError` for any other, before writing.  ``{"record":
    ...}`` payloads of the session schema take tagged-record frames
    (:mod:`repro.sim.frames`).
    """

    #: The header ``kind`` this opener writes and accepts.
    header_kind = "repro-checkpoint"
    #: The ``FRAME_CELL`` decoder its reads pass; only cell bags have one.
    _cells: Optional[Callable[[bytes], tuple[int, Any]]] = None
    #: The encoder of the group of held records.
    _encoder: Callable[[], _frames.PayloadEncoder] = _frames.PayloadEncoder

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
        # The records held in user space, as the frames they will take.
        self._group = self._encoder()
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
                "kind": self.header_kind,
                "version": JOURNAL_VERSION,
                "fingerprint": self._digest,
                "workload": self._fingerprint,
            }
            self._fh = open(self.path, "ab", buffering=0)
            self._write(
                _frames.JOURNAL_MAGIC
                + _frames.frame_bytes(
                    _frames.FRAME_HEADER,
                    json.dumps(header, sort_keys=True, default=repr).encode("utf-8"),
                )
            )
            self._sync()
            self._opened = self._size
            self._group.last = -1  # what a reader infers before record 0
            # The header is durable; make the new directory entry durable
            # too, or a power loss could drop the whole file.
            _fsync_dir(self.path.parent)

    # -- Opening / recovery -------------------------------------------------

    def _read_header(self) -> dict:
        with open(self.path, "rb") as fh:
            refusal = legacy_refusal(self.path, fh.read(len(_frames.JOURNAL_MAGIC)))
            if refusal is not None:
                raise CheckpointError(refusal)
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
                fh, os.fstat(fh.fileno()).st_size, self._content, self._cells
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
        self._group.last = reader.last
        self._fh = open(self.path, "ab", buffering=0)

    def _read_records(self, end: Optional[int]) -> Iterator[tuple[int, Any]]:
        """Stream the records of the file's first ``end`` bytes (all of
        them when None)."""
        with open(self.path, "rb", buffering=_READ_BUFFER) as fh:
            size = os.fstat(fh.fileno()).st_size
            reader = _frames.JournalReader(
                fh, size if end is None else min(end, size), cells=self._cells
            )
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
            header.get("kind") != self.header_kind
            or header.get("version") != JOURNAL_VERSION
        ):
            raise CheckpointError(
                f"checkpoint {self.path} has kind={header.get('kind')!r} "
                f"version={header.get('version')!r}; this opener expects "
                f"{self.header_kind!r} v{JOURNAL_VERSION}"
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
        fh = self._appender()
        view = memoryview(blob)
        while view:  # an unbuffered write may take only part of it
            view = view[fh.write(view):]
        self._content.update(blob)
        self._size += len(blob)

    def _hand_on(self) -> None:
        """Write the group out: the one point records reach the OS."""
        if self._group.count:
            blob = self._group.take()
            self._write(blob)
            self._pending_bytes += len(blob)

    def content_digest(self) -> tuple[int, str]:
        """``(length, sha256)`` of the file's content so far — what a
        state sidecar pins its journal prefix with.  The group is handed
        to the OS first, so the bytes pinned are in the file.  During the
        opening pass: of the bytes read so far (up to the end of the
        record just yielded)."""
        if self._scan is not None:
            return self._scan.end, self._content.hexdigest()
        self.flush()
        return self._size, self._content.hexdigest()

    def flush(self) -> None:
        """Hand every held record to the OS, without an fsync: from here
        they survive a kill of this process (not a power loss)."""
        if self._fh is not None:
            self._hand_on()

    def _sync(self) -> None:
        self._hand_on()
        os.fsync(self._appender().fileno())
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
        """Records journaled but not yet fsynced (the loss window), held
        in the group or handed to the OS."""
        return self._pending

    @property
    def pending_bytes(self) -> int:
        """The bytes on disk of the :attr:`pending` records.

        The byte-denominated loss window — the backpressure watermarks in
        :class:`repro.service.slo.SLOPolicy` trip on either this or
        :attr:`pending`, whichever crosses first.
        """
        return self._pending_bytes + self._group.size

    def sync_due(self) -> Optional[float]:
        """Seconds until the ``interval:<ms>`` policy owes the pending
        records a sync (at most 0 once it is overdue); None under the
        other policies or with nothing pending.  :meth:`record` syncs
        only when it is called, so a quiet writer syncs at this time
        through :meth:`commit`."""
        if self._policy != "interval" or not self._pending:
            return None
        return self._last_sync + self._interval_s - time.monotonic()

    def commit(self) -> None:
        """Make every pending record durable now (no-op when none pending)."""
        if self._fh is not None and self._pending:
            self._sync()

    def record(self, index: int, value: Any) -> None:
        """Journal one record (a session event, or a completed cell).

        Durable before return under the ``always`` policy.  Under
        ``batch`` and ``interval:<ms>`` the record joins the group, which
        reaches the OS at the next sync, :meth:`flush`, :meth:`commit`,
        :meth:`content_digest` or :meth:`record_many`, at a payload that
        cannot join it, or once it holds :data:`GROUP_LIMIT` bytes.  A
        payload the journal cannot hold raises :class:`TypeError` with
        the group and the file unchanged.
        """
        self._appender()
        grouped = self._group.add(index, value)
        self._pending += 1
        if self._policy == "always":
            self._sync()
            return
        if not grouped or self._group.size >= GROUP_LIMIT:
            self._hand_on()
        if self._policy == "interval":
            self._maybe_interval_sync()

    def record_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """Group-commit a batch of records: one write, one fsync.

        The batch joins the group held so far (a run of consecutive
        tagged records is one batch frame) and the whole group is written
        at once.  Under ``always`` and ``batch`` it is durable before
        return — this is *the* group-commit primitive, amortising the
        per-record ``fsync`` that dominates journaled stream ingest.
        Under ``interval:<ms>`` it is synced only when the interval has
        elapsed.  A payload the journal cannot hold raises
        :class:`TypeError` before any record of the batch is held.
        """
        items = list(items)
        if not items:
            return
        self._appender()
        self._group.add_many(items)
        self._pending += len(items)
        if self._policy == "interval":
            self._hand_on()
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


def _load_cell(payload: bytes) -> tuple[int, Any]:
    index, value = pickle.loads(payload)
    return int(index), value


class _CellEncoder(_frames.PayloadEncoder):
    """Frames every result alone, as a ``FRAME_CELL``."""

    def _parts(self, index: int, value: Any) -> tuple[None, bytes]:
        return None, _frames.frame_bytes(
            _frames.FRAME_CELL,
            pickle.dumps((int(index), value), protocol=pickle.HIGHEST_PROTOCOL),
        )


class CellJournal(CheckpointJournal):
    """A :class:`CheckpointJournal` of cell-bag results: any picklable
    value, one ``FRAME_CELL`` (a pickle of ``(index, value)``) per cell,
    under the header kind ``repro-cells``.

    This is the one journal that unpickles, so it stays local: the runs
    that resume from it (:mod:`repro.sim.parallel`, the
    :mod:`repro.verify.harness` fuzzers) construct it for the checkpoint
    file they were given, and its frames are read only through it.  It
    refuses a session journal's header, as a session refuses its header.
    """

    header_kind = "repro-cells"
    _cells = staticmethod(_load_cell)
    _encoder = _CellEncoder
