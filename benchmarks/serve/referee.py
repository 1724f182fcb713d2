"""Correctness referee: what the server should have replied.

The reference is an in-process :class:`~repro.service.session.
AllocationSession` fed the same records through ``push`` / ``offer``.
Its replies are encoded here, independently of the server's wire codec,
in the exact format the socket protocol promises: one compact JSON
decision per event, typed ``"slo"`` records for admission outcomes,
``"dequeued": true`` riders for drained arrivals and an ``overloaded``
notice whenever the journal lag trips the backpressure watermark.

Single-connection workloads compare the sha256 of all reply lines.  The
two-connection workload has no fixed interleaving, so it reads the
served order back from the journal, replays it through a fresh session
and compares every reply by ``(kind, task id)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from streams import N

_COMPACT = (",", ":")


@dataclass(frozen=True)
class ServerConfig:
    """The allocation settings one workload serves with."""

    algorithm: str
    fsync: str
    d: Optional[float] = None
    slo_target: Optional[float] = None
    slo_queue: Optional[int] = None

    def flags(self) -> list[str]:
        """``repro serve`` flags (the journal path is added by the runner)."""
        out = ["--n", str(N), "--seed", "0", "--algorithm", self.algorithm,
               "--fsync", self.fsync]
        if self.d is not None:
            out += ["--d", repr(self.d)]
        if self.slo_target is not None:
            out += ["--slo-target", repr(self.slo_target),
                    "--slo-queue", str(self.slo_queue)]
        return out


def make_session(cfg: ServerConfig, journal_path=None):
    """A fresh session configured as ``repro serve`` would build it."""
    from repro.core.registry import make_algorithm
    from repro.machines.tree import TreeMachine
    from repro.service.session import AllocationSession
    from repro.service.slo import SLOPolicy

    machine = TreeMachine(N)
    slo = None
    if cfg.slo_target is not None:
        slo = SLOPolicy(slowdown_target=cfg.slo_target,
                        queue_capacity=cfg.slo_queue)
    algorithm = make_algorithm(
        cfg.algorithm, machine, d=2.0 if cfg.d is None else cfg.d,
        lazy=False, moves=4, seed=0,
        load_target=None if slo is None else slo.load_target,
    )
    return AllocationSession(machine, algorithm, journal_path=journal_path,
                             fsync_policy=cfg.fsync, slo=slo)


def _decision(decision, **extra) -> str:
    payload = decision.to_dict()
    payload.update(extra)
    return json.dumps(payload, separators=_COMPACT)


def outcome_lines(outcome) -> list[str]:
    """Reply lines for one typed admission outcome."""
    verdict = outcome.verdict
    if verdict == "admit":
        lines = [_decision(outcome.decision)]
    elif verdict == "queue":
        lines = [json.dumps({"slo": "queued", "id": outcome.task_id,
                             "position": outcome.position,
                             "queued": outcome.queued}, separators=_COMPACT)]
    elif verdict == "reject":
        lines = [json.dumps({"slo": "rejected", "id": outcome.task_id,
                             "reason": outcome.reason,
                             "retry_after": outcome.retry_after},
                            separators=_COMPACT)]
    else:
        lines = [json.dumps({"slo": "cancelled", "id": outcome.task_id,
                             "dequeued": outcome.dequeued}, separators=_COMPACT)]
    lines.extend(_decision(d, dequeued=True)
                 for d in getattr(outcome, "drained", ()))
    return lines


class Reference:
    """Replies of an in-process session, one request at a time."""

    def __init__(self, cfg: ServerConfig, journal_path=None):
        self.session = make_session(cfg, journal_path)
        self.slo = cfg.slo_target is not None

    def reply(self, record: dict) -> list[str]:
        session = self.session
        if not self.slo:
            return [_decision(session.push(dict(record)))]
        lines = outcome_lines(session.offer(dict(record)))
        if session.overloaded:
            lines.append(json.dumps({
                "overloaded": True,
                "journal_pending": session.journal_pending,
                "retry_after": session.slo_policy.retry_after,
            }))
            session.flush()
        return lines

    def close(self) -> None:
        self.session.close()


def lines_digest(lines: Iterable) -> str:
    """sha256 over reply lines (str or bytes), each newline-terminated."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() if isinstance(line, str) else line)
        h.update(b"\n")
    return h.hexdigest()


def rejected_id(line) -> Optional[int]:
    """Task id of an ``{"slo":"rejected",...}`` reply line, else None."""
    text = line.decode() if isinstance(line, bytes) else line
    if not text.startswith('{"slo":"rejected"'):
        return None
    return int(json.loads(text)["id"])


def primary_key(line: bytes) -> tuple:
    """``(kind, task id)`` of a primary reply line (errors key as such)."""
    obj = json.loads(line)
    if "error" in obj:
        return ("error", obj.get("line"))
    if "slo" in obj:
        return (obj["slo"], obj["id"])
    return (obj["kind"], obj.get("task_id"))


def request_key(record: dict) -> tuple:
    return (record["kind"], record["id"])


def journal_replay(cfg: ServerConfig, journal_path) -> tuple[list[dict], dict]:
    """Served records in journal order and the reference reply of each,
    keyed by ``(kind, task id)``."""
    from repro.sim.frames import iter_journal_payloads

    records = [dict(payload["record"])
               for _index, payload in iter_journal_payloads(journal_path)]
    ref = Reference(cfg)
    try:
        by_key = {}
        for record in records:
            (line,) = ref.reply(record)
            by_key[request_key(record)] = line.encode()
    finally:
        ref.close()
    return records, by_key
