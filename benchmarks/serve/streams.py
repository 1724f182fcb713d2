"""Seeded request streams for the serving benchmark.

The benchmark makes its own inputs instead of calling ``repro.workloads``,
so a change to the code under test can never change what it is fed.  Each
stream is a pure function of ``(workload, seed, scale)``: the same
arguments give the same records, and :meth:`Stream.digest` pins them.

Every task carries an explicit ``id`` and no ``time``: the session clock
auto-advances by one per record, so replies depend on the records alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

#: Machine size every workload runs at (a tree machine, ``--n``).
N = 4096
#: Records per second per connection in open_pair.
OPEN_RATE = 1000.0


def encode(record: dict) -> bytes:
    """One wire line, compact, newline-terminated."""
    return json.dumps(record, separators=(",", ":")).encode() + b"\n"


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    # String seeds hash through sha512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{part}/{seed}")


class _Churn:
    """Arrivals and departures that random-walk around a target count.

    The departure probability rises with the active count above
    ``target`` (clipped to ``[0.1, 0.9]``), so the active set stays near
    the target instead of drifting.  Task ids start at ``first_id`` and
    step by ``id_step``, which keeps several generators' ids disjoint.
    """

    def __init__(self, rng: random.Random, *, max_exp: int, target: int,
                 first_id: int = 0, id_step: int = 1):
        self.rng = rng
        self.max_exp = max_exp
        self.target = target
        self.next_id = first_id
        self.id_step = id_step
        self.active: list[int] = []

    def arrive(self) -> dict:
        tid = self.next_id
        self.next_id += self.id_step
        self.active.append(tid)
        return {"kind": "arrival", "id": tid,
                "size": 1 << self.rng.randint(0, self.max_exp)}

    def depart(self) -> dict:
        i = self.rng.randrange(len(self.active))
        self.active[i], self.active[-1] = self.active[-1], self.active[i]
        return {"kind": "departure", "id": self.active.pop()}

    def step(self, p_depart: float | None = None) -> dict:
        n = len(self.active)
        if n == 0:
            return self.arrive()
        if p_depart is None:
            p_depart = 0.5 + (n - self.target) / (4.0 * self.target)
        p_depart = min(0.9, max(0.1, p_depart))
        return self.depart() if self.rng.random() < p_depart else self.arrive()


@dataclass
class Life:
    """What one server process is sent.

    ``warmup`` goes out untimed on connection 0; ``conns`` are the timed
    records, one list per connection.  ``fresh`` lives start on a new
    journal; the others restart the server on the previous life's
    journal, so it resumes by replay.
    """

    warmup: list[dict]
    conns: list[list[dict]]
    fresh: bool = True


@dataclass
class Stream:
    """The records of one workload run, as a sequence of server lives."""

    workload: str
    seed: int
    lives: list[Life]
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over every encoded record: per life, the warm-up, then
        each connection in order."""
        h = hashlib.sha256()
        for life in self.lives:
            for records in [life.warmup, *life.conns]:
                for record in records:
                    h.update(encode(record))
        return h.hexdigest()


def durable_churn(seed: int, scale: float = 1.0) -> Stream:
    """Churn around 48 (at most 64) active tasks, sizes 1..N/4."""
    warm, measured = 2000, int(30000 * scale)
    churn = _Churn(_rng("durable_churn", seed), max_exp=10, target=48)
    records = []
    for _ in range(warm + measured):
        records.append(churn.depart() if len(churn.active) >= 64 else churn.step())
    return Stream("durable_churn", seed, [Life(records[:warm], [records[warm:]])],
                  {"warmup": warm, "measured": measured})


def open_pair(seed: int, scale: float = 1.0) -> Stream:
    """A fill of 1,200 tasks (sizes 1..256), then two connections each
    churning their own half of the tasks at OPEN_RATE records/s for
    ``10 * scale`` seconds.

    Connection ``c`` owns the even (``c = 0``) or odd (``c = 1``) task
    ids, so it never departs a task the other placed: the server keeps
    each connection's order but interleaves the two freely.
    """
    fill = 1200
    per_conn = int(OPEN_RATE * 10 * scale)
    rng = _rng("open_pair", seed, "fill")
    warmup = [{"kind": "arrival", "id": tid, "size": 1 << rng.randint(0, 8)}
              for tid in range(fill)]
    conns = []
    for c in range(2):
        churn = _Churn(_rng("open_pair", seed, f"conn{c}"), max_exp=8,
                       target=fill // 2, first_id=fill + c, id_step=2)
        churn.active = list(range(c, fill, 2))
        conns.append([churn.step() for _ in range(per_conn)])
    return Stream("open_pair", seed, [Life(warmup, conns)],
                  {"fill": fill, "per_conn": per_conn, "rate": OPEN_RATE})


def slo_flash(seed: int, scale: float = 1.0) -> Stream:
    """Calm churn alternating with flash crowds, sizes 1..64.

    A calm phase churns around 220 active tasks; a flash phase arrives
    with probability 0.85 per record, far past what the load target
    admits, so arrivals queue and, once the queue is full, are rejected.
    The next calm phase departs back down and drains the queue.
    Departures name every generated task; the client drops the ones
    whose arrival was rejected (see ``run.py``).
    """
    calm_len, flash_len, calm = 600, 400, 220
    warm, total = 1000, int(30000 * scale)
    churn = _Churn(_rng("slo_flash", seed), max_exp=6, target=calm)
    records = [churn.step() for _ in range(warm)]
    i = 0
    while i < total:
        for _ in range(min(calm_len, total - i)):
            records.append(churn.step())
            i += 1
        for _ in range(min(flash_len, total - i)):
            records.append(churn.step(p_depart=0.15))
            i += 1
    return Stream("slo_flash", seed, [Life(records[:warm], [records[warm:]])],
                  {"warmup": warm, "measured": total, "calm": calm,
                   "calm_len": calm_len, "flash_len": flash_len})


def realloc_restart(seed: int, scale: float = 1.0) -> Stream:
    """Churn around 1,200 active tasks of sizes 1..16 in two timed phases,
    the second on a server restarted on the first one's journal.

    With ``--d 0.0625`` the periodic algorithm repacks after every 256
    PE-arrivals, about every 70 records at this size mix.
    """
    fill, per_phase = 2000, int(8000 * scale)
    churn = _Churn(_rng("realloc_restart", seed), max_exp=4, target=1200)
    warmup = [churn.arrive() for _ in range(1400)]
    warmup += [churn.step() for _ in range(fill - 1400)]
    first = [churn.step() for _ in range(per_phase)]
    second = [churn.step() for _ in range(per_phase)]
    return Stream("realloc_restart", seed,
                  [Life(warmup, [first]), Life([], [second], fresh=False)],
                  {"fill": fill, "per_phase": per_phase})


BUILDERS = {
    "durable_churn": durable_churn,
    "open_pair": open_pair,
    "slo_flash": slo_flash,
    "realloc_restart": realloc_restart,
}
