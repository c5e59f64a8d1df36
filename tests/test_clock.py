"""The next-event clock: a node is stepped only when its `on_tick` has work due.

`EveryTick` steps every live node on every tick, as the run loop did before
the clock.  On every golden case, churn seeds 500-599, the first scenarios
of each benchmark workload's plan and a set of edge scenarios no pool
reaches, the clocked run must write the same log text and payload sidecar,
byte for byte; a golden case compares through its pinned digest.  The unit tests ask `next_due` about hand-built node states
and call `on_tick` at the ticks it skips.
"""

import functools
import random

import pytest

import corpus
from corpus import GOLDEN, digest
from manetsec.crypto import make_provider
from manetsec.keymgmt import CertificateAuthority, LeaderKeyService
from manetsec.messages import Envelope, MessageKind, msg, open_sealed, seal_plain
from manetsec.node import AdversaryNode, ProtocolNode
from manetsec.runtime import Ctx
from manetsec.sim import SimParams, Simulation
from topologies import workloads


class EveryTick(Simulation):
    """Steps every live node on every tick: each node is due at tick 0 and
    at the tick after each step."""

    def __init__(self, scenario):
        super().__init__(scenario)
        for node in self.nodes.values():
            node.next_due = lambda now: now + 1

    def _setup(self):
        super()._setup()
        for node in self.nodes.values():
            node.wake_by(0)


def _assert_same_artifacts(clocked, stepped) -> None:
    """The two logs and payload sidecars are equal byte for byte; a failure
    names the first line that differs rather than diffing whole logs."""
    lines, expected = clocked.to_text().splitlines(), stepped.to_text().splitlines()
    if lines != expected:
        at = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b), min(len(lines), len(expected)))
        pytest.fail(f"line {at + 1}: clocked {lines[at:at + 1]}, stepped every tick {expected[at:at + 1]}")
    if clocked.payload_blob() != stepped.payload_blob():
        pytest.fail("the payload sidecars differ")


@functools.cache
def _stepped_digest(case_id) -> str:
    """The digest of the case's run stepped every tick, simulated once per
    session: the golden, churn and planned differentials share churn seeds.
    Its own run, not the corpus's, since the stepped side is the point."""
    return digest(corpus.fresh(case_id, EveryTick))


def _assert_same_run(case_id) -> None:
    clocked = corpus.log(case_id)
    if digest(clocked) != _stepped_digest(case_id):
        # Run the stepped side again to name the first line that differs.
        _assert_same_artifacts(clocked, corpus.fresh(case_id, EveryTick))
        pytest.fail("the stepped run's digest differs from the clocked run's, though a fresh one does not")


# -- differential: the clock against stepping every node every tick ------------


@pytest.mark.parametrize("case_id", corpus.PINNED)
def test_golden_case_runs_the_same_stepped_every_tick(case_id):
    # `test_golden_digest` pins each clocked run to its digest in GOLDEN.
    assert _stepped_digest(case_id) == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", [f"churn:{seed}:plain" for seed in range(500, 600)], ids=lambda c: c.split(":")[1])
def test_churn_runs_the_same_stepped_every_tick(case_id):
    _assert_same_run(case_id)


PLANNED = [f"{name}:{seed}:plain" for name, w in sorted(workloads.WORKLOADS.items()) for seed in w.plan(1, 20)[:3]]


@pytest.mark.parametrize("case_id", PLANNED, ids=lambda case_id: case_id.removesuffix(":plain"))
def test_planned_workload_runs_the_same_stepped_every_tick(case_id):
    _assert_same_run(case_id)


EDGES = [
    "late_joiner", "late_member_set", "leader_crash", "replay_later", "replay_now",
    "short_discovery", "short_liveness", "short_liveness_election",
]


@pytest.mark.parametrize("edge", EDGES)
def test_edge_scenario_runs_the_same_stepped_every_tick(edge):
    _assert_same_run(edge)


def _lines(log, kind, detail_prefix=""):
    return [e for e in log.events if e.kind == kind and e.detail.startswith(detail_prefix)]


def test_edge_scenarios_reach_their_edges():
    # Each edge scenario does what it is there for, so the differential
    # test above exercises that edge.
    logs = {name: corpus.log(name) for name in EDGES}
    for name, joiner in (("short_liveness", "J"), ("late_joiner", "N"), ("late_member_set", "J")):
        assert [e.about for e in _lines(logs[name], "verdict", "joined")] == [joiner], name
    to_j = [e for e in logs["late_member_set"].events if e.kind == "deliver" and e.recipient == "J"]
    [member_set] = [e for e in to_j if e.word == "MEMBER_SET" and e.actor == "L"]
    assert [e for e in to_j if e.word == "REKEY"][0].seq < member_set.seq
    assert [e.about for e in _lines(logs["short_liveness"], "remove", "silent_timeout")] == ["A", "B", "C", "J"]
    assert _lines(logs["short_liveness"], "alert", "group_dissolved")
    [elected] = _lines(logs["short_liveness_election"], "elect", "group=g1:cause=leader_departure")
    removed = _lines(logs["short_liveness_election"], "remove", "silent_timeout")
    assert removed and {e.actor for e in removed} == {elected.actor} and removed[0].tick < 20
    negatives = _lines(logs["short_discovery"], "send", "GROUP_NEG:")
    assert [e.actor for e in negatives] == ["b2"] and negatives[0].tick < 20
    assert [e.actor for e in _lines(logs["leader_crash"], "elect", "group=g1:cause=leader_departure")]
    for name in ("replay_now", "replay_later"):
        assert [e for e in logs[name].events if e.kind == "send" and e.actor == "X"], name


# -- on_tick call counts --------------------------------------------------------


# Stepping every live node every tick made 2,646 calls on churn seed 500
# (417 of them left something in the step context) and 3,776 on grid_static
# seed 700 (319 did).
COUNTED = {"churn:500:plain": 425, "grid_static:700:plain": 319}


@pytest.mark.parametrize("case_id", sorted(COUNTED), ids=lambda case_id: case_id.removesuffix(":plain"))
def test_on_tick_call_counts(case_id, monkeypatch):
    calls = []
    for cls in (ProtocolNode, AdversaryNode):

        def counted(self, ctx, original=cls.on_tick):
            calls.append(self.name)
            return original(self, ctx)

        monkeypatch.setattr(cls, "on_tick", counted)
    corpus.fresh(case_id)  # counted as it runs, so a fresh run
    assert len(calls) == COUNTED[case_id]


# -- next_due on hand-built nodes -------------------------------------------------


def _node(name="n", **params) -> ProtocolNode:
    provider = make_provider("test_double")
    rng = random.Random(name)
    keypair = provider.generate_keypair(rng)
    certificate = CertificateAuthority(provider, rng).issue(name, keypair.public)
    return ProtocolNode(name, keypair, certificate, provider, rng, SimParams(**params))


def _leader(name="L", members=(), **params) -> ProtocolNode:
    """A leader of g1 whose `members` each last beat at the tick given."""
    node = _node(name, **params)
    service = node.leader_service = LeaderKeyService(
        name, "g1", "g1-1", node.keypair, node.provider, node.rng, b"authority", 8, node.params
    )
    for member, last in dict(members).items():
        service.member_view[member] = node.provider.generate_keypair(random.Random(member)).public
        service.heartbeats[member] = last
    return node


def _member(name="m", leader="L", **params) -> ProtocolNode:
    node = _node(name, **params)
    node.member.lineage, node.member.epoch = "g1-1", 1
    node.member.keyring[("g1-1", 1)] = b"k" * 16
    node.member.leader = leader
    return node


def _is_empty(ctx) -> bool:
    return not (ctx.outbound or ctx.notes or ctx.secrets or ctx.signals)


def _assert_due(node, now, deadlines, expected):
    """`next_due(now)` is `expected`, later than `now` and no later than any
    deadline; a deadline already past makes the node due on the next tick.
    Each tick it skips, `on_tick` leaves the step context empty."""
    due = node.next_due(now)
    assert due == expected
    assert due > now and all(due <= max(deadline, now + 1) for deadline in deadlines)
    for tick in range(now + 1, due):
        ctx = Ctx(node.name, tick, node.rng)
        node.on_tick(ctx)
        assert _is_empty(ctx), tick


def test_a_leader_is_due_at_its_next_beat_or_its_earliest_member_expiry():
    leader = _leader(members={"m1": 20, "m2": 14}, heartbeat_period=10, liveness_deadline=30)
    _assert_due(leader, 25, [30, 45, 51], 30)
    _assert_due(leader, 0, [10, 45, 51], 10)
    short = _leader(members={"m1": 20, "m2": 23}, heartbeat_period=10, liveness_deadline=4)
    _assert_due(short, 21, [30, 25, 28], 25)
    # On its due tick the expired member goes.
    ctx = Ctx("L", 25, short.rng)
    short.on_tick(ctx)
    assert [(note.kind, note.about) for note in ctx.notes][:1] == [("remove", "m1")]


def test_a_member_is_due_at_its_next_beat_or_its_leader_expiry():
    member = _member(heartbeat_period=10, liveness_deadline=3)
    _assert_due(member, 12, [20], 20)  # no leader heard yet: only its beat
    member.leader_last_seen = 13
    _assert_due(member, 13, [20, 17], 17)
    ctx = Ctx("m", 17, member.rng)
    member.on_tick(ctx)
    assert ctx.signals == [(None, "L")] and member.leader_last_seen is None
    # A member that knows no leader never beats; only a heard one can expire.
    member.member.leader = None
    assert member.next_due(20) is None
    member.leader_last_seen = 21
    _assert_due(member, 21, [25], 25)


def test_a_remote_job_ends_at_its_deadline():
    # At its deadline a job is answered as a request is on arrival: with
    # the route its leader holds by then, else as missing.  Either way it
    # leaves `remote_jobs`, so it wakes its leader no more.
    leader = _leader(heartbeat_period=10, liveness_deadline=30)
    leader.ring_key = leader.provider.generate_symmetric_key(random.Random(0))
    leader.remote_jobs = {"d": [["r", 1, "o", 12]], "e": [["r", 2, "o", 17]]}
    _assert_due(leader, 8, [10, 12, 17], 10)
    _assert_due(leader, 10, [20, 12, 17], 12)
    leader.router.install("d", ["L", "d"], 1)
    answers = ((12, MessageKind.GROUP_REP, "d", ["e"], [20, 17], 17), (17, MessageKind.GROUP_NEG, "e", [], [20], 20))
    for tick, kind, dest, left, deadlines, due in answers:
        ctx = Ctx("L", tick, leader.rng)
        leader.on_tick(ctx)
        [envelope] = ctx.outbound
        assert (envelope.message.kind, envelope.to, envelope.channel) == (kind, "o", "ring")
        answer = open_sealed(kind, leader.provider.sym_decrypt(leader.ring_key, envelope.message["sealed"]))
        assert (answer["dest"], answer["requester"]) == (dest, "r")
        assert answer.get("route", ["L", "d"]) == ["L", "d"]
        assert sorted(leader.remote_jobs) == left
        _assert_due(leader, tick, deadlines, due)


def test_a_node_with_no_role_is_never_due():
    node = _node(heartbeat_period=10)
    node.leader_last_seen = 3  # heard a leader once, then left its group
    assert node.next_due(0) is None and node.next_due(-1) is None
    for tick in range(0, 60):
        ctx = Ctx("n", tick, node.rng)
        node.on_tick(ctx)
        assert _is_empty(ctx), tick


def test_an_adversary_is_due_at_its_earliest_replay():
    provider = make_provider("test_double")
    rng = random.Random("x")
    keypair = provider.generate_keypair(rng)
    adversary = AdversaryNode("x", keypair, provider, rng, SimParams(), "replay", {"delay": 5}, {})
    assert adversary.next_due(0) is None
    heard = Envelope(message=msg(MessageKind.LEAVE, who="a"), sender="a", to="*", channel="radio")
    adversary.replay_buffer = [(30, heard), (22, heard)]
    _assert_due(adversary, 20, [22, 30], 22)
    ctx = Ctx("x", 22, rng)
    adversary.on_tick(ctx)
    assert len(ctx.outbound) == 1 and [due for due, _ in adversary.replay_buffer] == [30]
    _assert_due(adversary, 22, [30], 30)


def test_a_handler_that_adds_a_deadline_lowers_the_wakeup():
    # A remote job queued by a delivery wakes its leader at the job's
    # deadline, which may come before the leader's next beat.
    woken = []
    leader = _leader(heartbeat_period=10, discovery_timeout=3)
    leader.wake_by = woken.append
    leader.known_leaders["o"] = ("g2", b"")
    leader.ring_key = leader.provider.generate_symmetric_key(random.Random(0))
    leader.leader_service.member_view["d"] = b"d-public"
    plain = seal_plain(MessageKind.GROUP_REQ, tag="route_query", requester="r", dest="d", seq=1, origin="o")
    sealed = leader.provider.sym_encrypt(leader.ring_key, plain, random.Random(0))
    request = msg(MessageKind.GROUP_REQ, from_leader="o", sealed=sealed)
    ctx = Ctx("L", 21, leader.rng)
    leader.handle(Envelope(message=request, sender="o", to="*", channel="ring"), ctx)
    assert woken == [24] and leader.next_due(21) == 24
