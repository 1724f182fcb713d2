"""The session state sidecar: a restorable checkpoint beside the journal.

At each full checkpoint an :class:`~repro.service.session.AllocationSession`
with a journal writes ``<journal>.state``: the kernel snapshot whose
sha256 the journal rider at that point carries, the algorithm's
:meth:`~repro.core.base.AllocationAlgorithm.state`, the SLO controller's
state, the session cursor and the journal index it covers.  On resume the
session restores that state and replays only the journal records after
the index, instead of the whole journal — in one streaming pass that
decodes the records before the index without applying them and hashes
the journal bytes as they go by.  It also pins the journal bytes
up to that index by length and sha256, so a sidecar binds to one journal
file, not merely to one configuration.

The file is ``MAGIC``, the sha256 hex digest of the body and a newline,
then the zlib-compressed body: one JSON object, never a pickle.  It is
written to a temp file and renamed over the old one, without an fsync —
the sidecar only saves time — but after the journal's buffered records
have been flushed to the OS, so a process kill cannot lose bytes it
pins.  The session trusts it only when its own hash holds, its
fingerprint is the journal's, the journal's bytes up to its index are
the ones it pinned, the journal holds a state digest rider at its index,
and (checked by the session after restoring) that digest equals the
digest of the restored kernel and the restored algorithm's ``state()``
equals the saved one.  Any other sidecar
— torn, stale, foreign, past a truncated tail, malformed — is ignored
with a :class:`SidecarWarning`, and the session replays the whole
journal, which is the same loop started at index 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

from repro.errors import CheckpointError

__all__ = [
    "SIDECAR_SUFFIX",
    "SidecarReport",
    "SidecarWarning",
    "encode_sidecar",
    "inspect_sidecar",
    "past_the_journal",
    "read_sidecar",
    "rider_digest",
    "sidecar_index",
    "sidecar_path",
    "state_json",
    "write_sidecar",
]

#: Appended to the journal's file name.
SIDECAR_SUFFIX = ".state"
#: First bytes of every sidecar; the version is in it.
MAGIC = b"repro-session-state 1\n"
#: Largest decompressed body read back (a bound, not an expected size).
_MAX_BODY = 1 << 28


class SidecarWarning(UserWarning):
    """A state sidecar was ignored; the session replays the whole journal."""


def sidecar_path(journal: Union[str, Path]) -> Path:
    journal = Path(journal)
    return journal.with_name(journal.name + SIDECAR_SUFFIX)


def state_json(state: Mapping[str, Any]) -> bytes:
    """A kernel snapshot's compact JSON encoding: the bytes a journal's
    ``state_sha256`` rider hashes and the sidecar embeds.

    :meth:`~repro.kernel.AllocationKernel.snapshot` emits every dict in a
    fixed order, so the encoding is canonical without ``sort_keys``.  A
    snapshot is a tree, so the encoder's cycle check is skipped.
    """
    return json.dumps(state, separators=(",", ":"), check_circular=False).encode()


def encode_sidecar(fields: Mapping[str, Any], kernel_json: bytes) -> bytes:
    """The sidecar body: ``fields`` plus the kernel snapshot's own bytes
    (the ones the journal's ``state_sha256`` hashes) under ``"kernel"``."""
    head = json.dumps(dict(fields), separators=(",", ":")).encode()
    return head[:-1] + b',"kernel":' + kernel_json + b"}"


def write_sidecar(path: Path, body: bytes) -> None:
    """Write ``body`` to a temp file, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    tmp.write_bytes(MAGIC + digest + b"\n" + zlib.compress(body, 1))
    os.replace(tmp, path)


def read_sidecar(path: Path) -> dict[str, Any]:
    """The sidecar's body object; :class:`~repro.errors.CheckpointError`
    if the file is not one, is torn, or fails its hash."""
    data = path.read_bytes()
    start = len(MAGIC) + 65
    if not data.startswith(MAGIC) or data[start - 1 : start] != b"\n":
        raise CheckpointError("not a session state file")
    inflate = zlib.decompressobj()
    try:
        body = inflate.decompress(data[start:], _MAX_BODY)
    except zlib.error as exc:
        raise CheckpointError(f"body does not decompress ({exc})") from exc
    if inflate.unconsumed_tail or not inflate.eof:
        raise CheckpointError("body is truncated or oversized")
    if hashlib.sha256(body).hexdigest().encode("ascii") != data[len(MAGIC) : start - 1]:
        raise CheckpointError("body fails its sha256")
    try:
        image = json.loads(body)
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"body is not JSON ({exc})") from exc
    if not isinstance(image, dict):
        raise CheckpointError("body is not a JSON object")
    return image


def sidecar_index(image: Mapping[str, Any], fingerprint: str) -> int:
    """The journal index a sidecar covers, once it names the journal's
    ``fingerprint`` digest: the count of records it restores."""
    if image.get("fingerprint") != fingerprint:
        raise CheckpointError("written for a different journal fingerprint")
    index = image.get("index")
    if type(index) is not int or index <= 0:
        raise CheckpointError(f"index {index!r} is not a journal position")
    return index


def past_the_journal(index: int, records: int) -> CheckpointError:
    return CheckpointError(
        f"index {index} is past the journal's {records} record(s)"
    )


def rider_digest(
    image: Mapping[str, Any],
    prefix_digest: Callable[[int], Optional[str]],
    payload: Any,
) -> str:
    """The journal's ``state_sha256`` rider at the sidecar's index.

    Checks the journal-side half of the trust rule for a sidecar whose
    index (:func:`sidecar_index`) lies within the journal: the journal's
    first ``journal_bytes`` bytes hash (``prefix_digest``) to the
    sidecar's ``journal_sha256``, and ``payload``, the record at the
    index, carries a state digest.  The caller compares that digest with
    the state it restores.
    """
    length = image.get("journal_bytes")
    if type(length) is not int or length < 0 or (
        prefix_digest(length) != image.get("journal_sha256")
    ):
        raise CheckpointError("written beside different journal bytes")
    digest = payload.get("state_sha256") if isinstance(payload, dict) else None
    if not isinstance(digest, str):
        raise CheckpointError(
            f"journal record {image['index'] - 1} carries no state digest"
        )
    return digest


@dataclass(frozen=True)
class SidecarReport:
    """What ``repro journal dump --stats`` says about a sidecar."""

    path: Path
    size: int
    index: Optional[int]
    reason: Optional[str]  # None when it verifies

    @property
    def verifies(self) -> bool:
        return self.reason is None


def inspect_sidecar(
    journal: Union[str, Path], data: bytes, fingerprint: str, completed: Mapping[int, Any]
) -> Optional[SidecarReport]:
    """Check the sidecar beside ``journal`` (whose bytes are ``data``)
    without a session; None when there is none.  This is the trust rule,
    with the digest taken over the sidecar's own kernel snapshot instead
    of a restored one."""
    path = sidecar_path(journal)
    if not path.exists():
        return None

    def prefix_digest(length: int) -> Optional[str]:
        return hashlib.sha256(data[:length]).hexdigest() if length <= len(data) else None

    index: Optional[int] = None
    try:
        image = read_sidecar(path)
        raw = image.get("index")
        index = raw if type(raw) is int else None
        covered = sidecar_index(image, fingerprint)
        if covered > len(completed):
            raise past_the_journal(covered, len(completed))
        rider = rider_digest(image, prefix_digest, completed.get(covered - 1))
        if rider != hashlib.sha256(state_json(image["kernel"])).hexdigest():
            raise CheckpointError("kernel state does not match the journal's digest")
        reason = None
    except (CheckpointError, OSError, KeyError, TypeError, ValueError) as exc:
        reason = str(exc)
    return SidecarReport(path, path.stat().st_size, index, reason)
