"""Decision pins: every algorithm's decisions and served replies, by sha256.

These hashes were taken before the algorithms stopped keeping their own
load trackers and started reading the driving kernel's.  A refactor of
how an algorithm reads loads must not move a single decision, so each
pin covers whole streams:

* every registered algorithm (plus lazy A_M) on three seeded churn
  streams, each decision's ``(kind, time, task_id, node, max_load,
  reallocated, moves)`` — per event and through chunked ``apply_batch``,
  which must agree;
* the final ``kernel.snapshot()`` of each of those runs with leaf
  snapshots collected, so the peak per-PE load vector and its time are
  covered too — again per event and through chunked ``apply_batch``;
* the reply lines of a plain greedy session over a churn stream;
* the reply lines of fault-tolerant greedy and two-choice sessions over
  ``tests/service/data/fault_resize.jsonl`` (failures, repairs, a kill,
  a grow and a shrink);
* the reply lines of a gated two-choice SLO session (admits, queues,
  rejects and drains).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.registry import algorithm_names, make_algorithm
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, SLOPolicy, sequence_records
from repro.service.shard.server import StdioServer
from repro.sim.engine import Simulator
from repro.workloads.generators import churn_sequence

DATA = Path(__file__).parents[1] / "service" / "data"
N = 64
EVENTS = 200
SEEDS = (0, 1, 2)

#: sha256 over the decisions of ``churn_sequence(64, 200, default_rng(seed))``.
DECISION_PINS = {
    "basic": (
        "5d3abccad9fa2f82296a20642429329c05ffa76ebec325b77ff42a159e7e73c9",
        "63664d825ebca40d4ebf53e0f76c09d1f3eaf2e4081fc79dadfa07864f5c3a80",
        "c019bb1a54e320dabbcffad31d40ad3699decb1c91dc885bb7e6ba24d426dd88",
    ),
    "firstfit": (
        "5d8a8927312aa8ca92dcda65a6efd9725f8a67da1043375c8c5974bb277b03aa",
        "a68483b6ebb3a336f137168369d94f18a9bcbfd0634222d937674d344522984a",
        "4b7922692a01713c217962456e7f74db6933c844d36a8e614e12602dd04fec92",
    ),
    "greedy": (
        "5d8a8927312aa8ca92dcda65a6efd9725f8a67da1043375c8c5974bb277b03aa",
        "a68483b6ebb3a336f137168369d94f18a9bcbfd0634222d937674d344522984a",
        "4b7922692a01713c217962456e7f74db6933c844d36a8e614e12602dd04fec92",
    ),
    "hybrid": (
        "cf019ef78400c2aa2c6ed6307dea1629bf973a2eed3e45d7af8d25c09bfe2f28",
        "499ee46b6499ba16b905e106fa8ad82c15d97ad78c0aa74f568c420448767892",
        "7a403b54d70080e3a8ffaf4b8f0434caedcda63eae4f8871ac818feea5bb93a4",
    ),
    "incremental": (
        "fed80987a75356d74a9886e2fe9e78ade23417e8fc7b72b92cc5711c710a9e45",
        "63ad09f03a1e75a7f70d01fd02271be7d3638c96fd1bfbd7a4de5319252d806a",
        "4935002a9cb2dfa2aa12efdec2698d4adcc1d77847f8dafc2c20bdfd915cd5c8",
    ),
    "optimal": (
        "1cb8832de48d0bd3f7d54b45be4ac8587b62e439c56f72f07d78495109506570",
        "0d24f3b7b0b72704c92994136cfdc8ba44d5ec2d1d2b01a70f75a16c24334f1f",
        "ab402eb987a4d52382a357d72c4bb89ef8c1742e73e242abfa1f8dd058e947f1",
    ),
    "periodic": (
        "502a1b8cf71011c3268981882aafbc42db152f093089e3be6d3505118c523c3a",
        "49977282f5dda5335b27fb220c7528cca443f479c2ce2682fba5c3da9b5f17ab",
        "947a792823d380f67c02e9a497389622e8cf84f2edeccb9e258dbdfb713f64ba",
    ),
    "random": (
        "cec7a06ce585aebf53071cc313732ce19cf0d4d1153e001a588404e65cdcf8c7",
        "c42055486197cbc662a737c8286b66d9bc5508e5365ba3bfaa7bf511d280dc22",
        "bf8e87f45d94da09b7e675f1841311b5abc97f575f2db32e8442cdfea64ca540",
    ),
    "roundrobin": (
        "b28b6a5f4710582343a5f2c34b3408ad1a786bb670a37999aa327b09b1f8f553",
        "dfc389dffed770dfaa2910eb1651bf4289cfda213cf31486e681d30028b30f09",
        "9e363a2ff394f4bc561a80296bf2b26f54a30327c84f09106c16d6cdcdbe2e65",
    ),
    "twochoice": (
        "d926409009e3c3f02fa6f57372bfc26810bd65ddfe416523cfc154018d48e8e9",
        "e1d3b9dd4fedf4757dbcb18a1c1dac37720b7687a31935b23d766e12aa75b81d",
        "eb2067abb176f9c431c771d92151fa9276356ab89533dbe73575b51e87bab875",
    ),
    "worstfit": (
        "5a62c7e10332f73adf9a05b88fc7a9c1766b3d66c664de91b599c6afc7ca9d4f",
        "48d8f6e4b8131701d3108e1ee2765ddcf5714daddc0b8ece40bb8ab502259ac5",
        "003248171fc98a1c999207a5514b6191e74eb3c0530f0b1ba2d85895b61e2db1",
    ),
    "periodic-lazy": (
        "34237c78ba26b760471defff06230803013cd7fb6f512e6a35c676b4d9e0ca1a",
        "d58c62728af047f6ec304a957edf740c628f76845bb739fa0b9e4778ede33b4b",
        "01f2d9b24004be6186077130fc0900c76e5e0ffc2c088e23abf79e427132eb4f",
    ),
}

#: sha256 over the final ``kernel.snapshot()`` of the same runs with leaf
#: snapshots collected (``metrics.peak_snapshot`` and its time included).
STATE_PINS = {
    "basic": (
        "56176852f8deca6dfdf0fd414eba98b985660b8e4565e7cbce1d39692c427237",
        "d2c7f4f9a8f745f7e9c5c165e9f1b40a60b1886e6443507d25a17326976e1870",
        "ff2275189ad4c9fd77296569a3041576c58d91998ca48fbd20e718bd06009c03",
    ),
    "firstfit": (
        "f9adc7997b15423b84c03b2d94c46ee0fa53cd6c7110c1edffc81eba61ca6f90",
        "4f44d80215dae699ac0882803088b2c1cce3793664fe787c648ecb8218e880e9",
        "4c5e0210b6c7c1bb0e71731a4e382407da962bf7f11ab583c9a648ebccc7f8be",
    ),
    "greedy": (
        "204e0f9c49b829df73439bf1bd57d863797f5c36aa4f1cd15e9dc6f9eeb492fb",
        "c25371af93b762ca67bab163ae320f31ea099046b5310024a5cf7c2d6590fb40",
        "12a4e3e8387fd470ef6bcd6fae25ff1d923b9de803eeb5042e5e8b3871603c33",
    ),
    "hybrid": (
        "9600b12fbfb96a5377cb2e861e94d678cdad5446b03337a1295a0e5ee5ddffc4",
        "9387f027261adeb5104a7f2f3b2f7df24b1b3628473522b3b11fea8ed91739d4",
        "ddc3098165adeacbd82cee6a256949afc502ace00f52295472f31b4dcbf4619a",
    ),
    "incremental": (
        "e24a8f2389e0c0f6098f74393e63d13ca790905fe7ae70f9babc90c88a103f28",
        "73744485ad16f987ee69d83a4f6dae85f6a05884fc6d79cc5c8022ee6b24578c",
        "005376903aefb2e580ef8be72d505ae8464776bbbf2e62d87c051a2520242cdf",
    ),
    "optimal": (
        "bb8d7137be9ba0071448ad39854438a9a686de0064e5095b78d7a13361ba0b0d",
        "c5af5d204c98890d069e4031311eaa4d05ca67b0fe2a4c900ce9102abf7f63d4",
        "2c3a471c136b4836a0657bf0c23bbe1fbe797d30618c610eeb86931180e0af4b",
    ),
    "periodic": (
        "c72cbf99e48e656ead18eeff7f26e1e4adb44241e3a300f14b2893faaf132251",
        "bfaf153ebcc639f1b6386dbb717b02e8c47a45fb4ad799d139d76ef7c05d3a8f",
        "920cfef696380288b34146db1579beed5f5177f097a551312ddc2f81d7b435c1",
    ),
    "random": (
        "b16eff68d4378879c0aeb7e0435aecd5968946689456a1b12efa26fd89a7ab1f",
        "71e537adaf28d783627794800fa2805573d7aa7e4ef5b75ccb3589b9766d66bf",
        "cc92a8f17532ab516a5383b4f0e2443e7fbec9e0039beaa986a7731c956251d3",
    ),
    "roundrobin": (
        "9a7a7ef0486b96b238c4e01f26b835cc03bcbd297c753cb5ba31842e1fe1bedb",
        "bbb7cf6d96cd48fd2d94bcf8389e42fddad7cb3b4f78532ddedb07cfe8060215",
        "53ba9646d912e2e078e5d36953aa69120d115725921df8f5c4243ed61dfe91d6",
    ),
    "twochoice": (
        "101481d9a97ea63c1f4c3c1a7be62e4ce9270a7c287b2325a381bb6615122aa1",
        "09e8d5e864bcac72cc5ed219f9aa3eb8dea2f64266b83b9e22e5a07f0bcd029c",
        "78ffc1b54065a96c8af49730649ecef0d4181ff8de6f9f807140eaed0adc01a7",
    ),
    "worstfit": (
        "9c3f48bd3aea1e518b906ab39961129f490a3f5a7b0c2476b78abb6dd14dee09",
        "04536b9b827d58e8ce193973c3d02112c0156d32979a89614afc55ff9fbafbdf",
        "21e6f08ba7125a1dfb032b5fb5a4fb3d8636a3d283b71eb4f35160e291aa1215",
    ),
    "periodic-lazy": (
        "2269ef038da81b34184620c531118794c38c47d0284ce9b1ac729ec0757d52b2",
        "3a901100ccf119f5c640cb0d3b932e4892e81d3b624b54bf8a030ffc04f59734",
        "eb28e091585326c2323fe241ba9823d0c729c68c91671fa9661434c7996f9802",
    ),
}

#: sha256 over the reply lines of the served sessions below.
REPLY_PINS = {
    "greedy": "36f6addfa3a46c597fd900bebb194fa75cc394fa6a66eb9ee021eff29d9fd7f9",
    "ft-greedy": "c0c2eeea5e6da23b07490fab976df8f41aec9a87a19e03070ead3e08a822a59b",
    "ft-twochoice": "02ded25b9ff86f6508dd6dd5e6941bc431347a1bdbf178e4ecd8e0ef89ddd805",
    "slo-twochoice": "c5b9920cef792005b804c1e4029abe4cd1efb893aff2a21de7b62be0d6d50465",
}


def _build(name, machine, seed):
    if name == "periodic-lazy":
        return make_algorithm("periodic", machine, d=0.5, lazy=True, seed=seed)
    return make_algorithm(name, machine, d=0.5, seed=seed)


def _digest(decisions):
    h = hashlib.sha256()
    for d in decisions:
        row = [d.kind, d.time, d.task_id, d.node, d.max_load, d.reallocated,
               [list(m) for m in d.moves]]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def _run(name, seed, *, batch=None):
    """Drive one churn stream; return the decisions and the kernel."""
    sequence = churn_sequence(N, EVENTS, np.random.default_rng(seed))
    machine = TreeMachine(N)
    sim = Simulator(machine, _build(name, machine, seed))
    events = list(sequence)
    if batch is None:
        return [sim.kernel.apply(event) for event in events], sim.kernel
    out = []
    for start in range(0, len(events), batch):
        out.extend(sim.kernel.apply_batch(events[start : start + batch]).decisions)
    return out, sim.kernel


def _decisions(name, seed, *, batch=None):
    return _run(name, seed, batch=batch)[0]


def _state_digest(name, seed, *, batch=None):
    kernel = _run(name, seed, batch=batch)[1]
    return hashlib.sha256(json.dumps(kernel.snapshot(), sort_keys=True).encode()).hexdigest()


def _replies(session, lines):
    with session:
        return list(StdioServer(session).serve_lines(lines))


def _fault_session(name):
    machine = TreeMachine(N)
    session = AllocationSession(
        machine, make_algorithm(name, machine, d=1.0, seed=0), fault_tolerant=True
    )
    return _replies(session, (DATA / "fault_resize.jsonl").read_text().splitlines())


def _slo_session():
    machine = TreeMachine(N)
    slo = SLOPolicy(slowdown_target=1.5, queue_capacity=4)
    session = AllocationSession(
        machine,
        make_algorithm("twochoice", machine, load_target=slo.load_target, seed=4),
        slo=slo,
    )
    records = sequence_records(churn_sequence(N, 300, np.random.default_rng(4)))
    return _replies(session, [json.dumps(r) for r in records])


def _greedy_session():
    machine = TreeMachine(N)
    session = AllocationSession(machine, make_algorithm("greedy", machine, seed=0))
    records = sequence_records(churn_sequence(N, 300, np.random.default_rng(5)))
    return _replies(session, [json.dumps(r) for r in records])


SESSIONS = {
    "greedy": _greedy_session,
    "ft-greedy": lambda: _fault_session("greedy"),
    "ft-twochoice": lambda: _fault_session("twochoice"),
    "slo-twochoice": _slo_session,
}


def _reply_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", algorithm_names() + ["periodic-lazy"])
def test_decisions_are_pinned(name):
    got = tuple(_digest(_decisions(name, seed)) for seed in SEEDS)
    assert got == DECISION_PINS[name]


@pytest.mark.parametrize("name", algorithm_names() + ["periodic-lazy"])
def test_batched_decisions_match_the_pins(name):
    got = tuple(_digest(_decisions(name, seed, batch=16)) for seed in SEEDS)
    assert got == DECISION_PINS[name]


@pytest.mark.parametrize("name", algorithm_names() + ["periodic-lazy"])
def test_final_states_are_pinned(name):
    got = tuple(_state_digest(name, seed) for seed in SEEDS)
    assert got == STATE_PINS[name]


@pytest.mark.parametrize("name", algorithm_names() + ["periodic-lazy"])
def test_batched_final_states_match_the_pins(name):
    got = tuple(_state_digest(name, seed, batch=16) for seed in SEEDS)
    assert got == STATE_PINS[name]


@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_replies_are_pinned(session):
    assert _reply_digest(SESSIONS[session]()) == REPLY_PINS[session]
