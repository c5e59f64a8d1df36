"""Every named run of the suite, each simulated at most once per session.

``CASES`` maps a case id to a scenario builder and the fault its leaders
commit; a list of runs in a test module is a selection of these ids, so a
case is added here alone.  ``log`` and ``audit`` hand each caller its own
copy of a case's log and audit report, so no test changes what another sees.
A test whose point is a fresh run (a determinism check, the clock
differential's stepped side, one that patches the simulator or reads a
``Simulation``'s internals) makes its own and says why.
"""

import copy
import hashlib
import json
import os
from collections import Counter, namedtuple
from dataclasses import fields, replace
from functools import partial
from operator import attrgetter

from manetsec.audit import AuditReport, audit as audit_log
from manetsec.scenariofile import parse_scenario
from manetsec.sim import Action, AdversarySpec, EventLog, GroupSpec, NodeSpec, Scenario, SimEvent, SimParams, Simulation
from topologies import (
    LEADERS, churn_scenario, line_scenario, placed, random_group_scenario, run_led_by, stealth_family_scenario,
    stealth_link_scenario, stealth_node_scenario, two_group_scenario, workloads,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
with open(os.path.join(os.path.dirname(__file__), "golden_digests.json")) as fh:
    GOLDEN = json.load(fh)  # pinned case id -> `digest` of its log


Case = namedtuple("Case", "build fault")  # a zero-argument scenario builder, a key of LEADERS


ADVERSARY_ARGS = {
    "drop_all": {}, "drop_probabilistic": {"p": 0.5}, "modify_field": {"field": "seq", "op": "add", "value": 1},
    "replay": {"delay": 4}, "mitm_relay": {}, "impersonate": {"strategy": "replay"},
}

# A discovery, a pairwise session, a routed unicast and a group broadcast.
ADVERSARY_SCRIPT = [
    Action(2, "discover", ("S", "D")), Action(14, "session", ("S", "D")),
    Action(24, "send_data", ("S", "D", "unicast")), Action(28, "send_data", ("A", "*", "broadcast")),
]


def fixture(name):
    with open(os.path.join(SCENARIOS, name)) as handle:
        return parse_scenario(handle.read())


def adversary_line_scenario(kind, placement, args=None):
    """S-A-B-D with one adversary of `kind` on the A-B link ("link"), at the
    node X that bridges a gap between A and B ("bridge", the geometry of
    ``stealth_node_scenario``), or at a node X beside an A-B link that works
    without it ("bystander").  The adversary takes `args`, by default its
    entry in ADVERSARY_ARGS."""
    if placement == "link":
        scenario, where = stealth_link_scenario(seed=3, with_adversary=False), ("link", "A", "B")
    else:
        scenario, where = stealth_node_scenario(seed=3), ("node", "X")
    if placement == "bystander":
        for spec, point in zip(scenario.nodes[2:], [(150.0, 40.0), (200.0, 0.0), (300.0, 0.0)]):
            spec.trace = [point]
    scenario.params.duration, scenario.script = 40, list(ADVERSARY_SCRIPT)
    scenario.adversaries = [AdversarySpec(kind, where, dict(ADVERSARY_ARGS[kind] if args is None else args))]
    return scenario


def active_adversary_scenario(kind):
    """The bridge placement of `kind`, where X also joins g1 with the
    certificate it signed itself and opens two sessions, so its own random
    stream reaches the log."""
    scenario = adversary_line_scenario(kind, "bridge")
    scenario.script += [
        Action(5, "join", ("X", "g1")),
        Action(8, "session", ("X", "D")),
        Action(30, "session", ("X", "A")),
    ]
    scenario.script.sort(key=lambda action: action.tick)
    return scenario


def impostor_scenario(args, overheard):
    """A line L-M (group g1) and an impostor X that N joins through; when
    `overheard`, P joins g1 first within X's hearing, so X holds a recorded
    handshake to replay."""
    script = [Action(15, "join_via", ("N", "X"))]
    if overheard:
        script.insert(0, Action(3, "join", ("P", "g1")))
    scenario = line_scenario(["L", "M"], seed=45, script=script, duration=40)
    scenario.nodes += placed(("N", 50.0, 40.0, 0.5), ("X", 60.0, 60.0, 0.5), ("P", 30.0, -40.0, 0.5))
    scenario.adversaries.append(AdversarySpec("impersonate", ("node", "X"), dict(args)))
    return scenario


def leader_session_scenario(seed):
    """Two groups; g1's founding leader a1 opens a session with a node of g2,
    so its key query is a unicast addressed to itself."""
    scenario, _, dest = two_group_scenario(seed)
    scenario.script.append(Action(20, "session", ("a1", dest)))
    return scenario


def self_session_scenario():
    """The two-group fixture, where leaders a2 and b0 and member a1 each open
    a session with themselves, a2 both before and after it answers a
    member's session: a leader's session directory holds every other
    member's key, never its own."""
    scenario = fixture("two_groups.scn")
    sessions = [(3, "a2", "a2"), (6, "a0", "a2"), (9, "a2", "a0"), (14, "a2", "a2"), (18, "b0", "b0"), (20, "a1", "a1")]
    scenario.script = [Action(tick, "session", (source, dest)) for tick, source, dest in sessions]
    return scenario


def ring_data_scenario(seed):
    """Two groups; a0 sends b0 a unicast over the composed route, so DATA is
    relayed hop by hop and forwarded across the leader ring."""
    scenario, source, dest = two_group_scenario(seed)
    scenario.script.append(Action(30, "send_data", (source, dest)))
    return scenario


def unknown_destination_scenario():
    """Two groups and a node in neither: the remote leader answers the
    gateway query with a route_missing GROUP_NEG."""
    scenario, source, _ = two_group_scenario(seed=4)
    scenario.nodes.append(NodeSpec("zz", [(900.0, 900.0)], 0.5))
    scenario.script = [Action(3, "discover", (source, "zz"))]
    return scenario


def strict(scenario):
    scenario.params.strict_chain = True
    return scenario


def short_liveness():
    """A line L-A-B-C (g1) beating every 10 ticks with a liveness deadline of
    13, so every expiry falls between two beats: J, in no group, joins by
    handshake, A, B and C crash at tick 25 and J at 34, L drops each in
    turn, and after L crashes no member is left to elect."""
    crashes = [Action(25, "crash", (name,)) for name in "ABC"] + [Action(34, "crash", ("J",))]
    script = [Action(4, "join", ("J", "g1")), *crashes, Action(55, "crash_leader", ("g1",))]
    scenario = line_scenario(["L", "A", "B", "C"], seed=11, script=script, duration=70)
    scenario.params.heartbeat_period, scenario.params.liveness_deadline = 10, 13
    scenario.nodes.append(NodeSpec("J", [(50.0, 60.0)], 0.5))
    return scenario


def short_liveness_election():
    """The line L-A-B-C beating every 5 ticks with a liveness deadline of 7:
    L crashes at tick 2, its members elect a successor as soon as they
    notice, between two beats, and the successor drops C, which crashes at
    tick 12, between two of its own."""
    script = [Action(2, "crash_leader", ("g1",)), Action(12, "crash", ("C",))]
    scenario = line_scenario(["L", "A", "B", "C"], seed=11, script=script, duration=50)
    scenario.params.heartbeat_period, scenario.params.liveness_deadline = 5, 7
    return scenario


def short_discovery():
    """Two groups with a discovery timeout (3) far shorter than the
    heartbeat period (20): b0 crashes, a0 asks for it, and g2's leader,
    which still lists b0, searches for it in vain and answers route_missing
    at its deadline, before its next beat."""
    scenario, _, _ = two_group_scenario(seed=1)
    scenario.params.duration, scenario.params.discovery_timeout, scenario.params.heartbeat_period = 50, 3, 20
    scenario.script = [Action(2, "crash", ("b0",)), Action(5, "discover", ("a0", "b0"))]
    return scenario


def late_joiner():
    """A line L-M (g1) and N, in no group, which joins by script."""
    scenario = line_scenario(["L", "M"], seed=7, script=[Action(6, "join", ("N", "g1"))], duration=60)
    scenario.nodes.append(NodeSpec("N", [(50.0, 50.0)], 0.5))
    return scenario


def late_member_set():
    """L leads P and Q (g1); J, in range of P and Q only, joins.  A relaying
    tap on the link P-J holds everything crossing it a tick, so the
    admission's group REKEY, re-flooded by Q, reaches J before the
    MEMBER_SET, unicast on the path L-P-J, that makes J a member."""
    return Scenario(
        seed=9,
        nodes=placed(("L", 0.0, 0.0, 0.9), ("P", 80.0, -50.0, 0.6), ("Q", 80.0, 50.0, 0.6), ("J", 160.0, 0.0, 0.5)),
        groups=[GroupSpec("g1", 8, ["L", "P", "Q"])],
        params=SimParams(radio_radius=110.0, duration=60),
        script=[Action(3, "join", ("J", "g1"))],
        adversaries=[AdversarySpec("mitm_relay", ("link", "P", "J"))],
    )


def leader_crash():
    """A line A-B-C-D (g1) whose leader crashes; its members notice its
    silence at different ticks and elect a successor."""
    return line_scenario(["A", "B", "C", "D"], seed=5, script=[Action(6, "crash_leader", ("g1",))], duration=90)


def replay_lockout():
    """M replays the founding REKEY that A sealed to C while C rejoins."""
    return Scenario(
        seed=3,
        nodes=placed(("A", 0.0, 0.0, 1.0), ("B", 100.0, 0.0, 0.5), ("C", 200.0, 0.0, 0.5), ("M", 50.0, 20.0, 0.5)),
        groups=[GroupSpec("g1", 8, ["A", "B", "C"])],
        params=SimParams(radio_radius=110.0, duration=80),
        script=[Action(5, "leave", ("C",)), Action(20, "join", ("C", "g1"))],
        adversaries=[AdversarySpec("replay", ("node", "M"), {"delay": 32})],
    )


CASES = {}


def _add(case_id, build, fault="plain"):
    assert case_id not in CASES, case_id
    CASES[case_id] = Case(build, fault)


# The golden cases (PINNED): the fixtures; the stealth (also strict), family,
# two-group, churn and random-group builders; sessions across groups and with
# oneself, a unicast across the leader ring, a discovery of a node in no group;
# each adversary on a link, bridging and as a bystander; every behavior
# default; a tap that changes a unicast; and 121- and 256-node grids, static
# and walking.
FIXTURES = [f"fixture:{name}" for name in sorted(os.listdir(SCENARIOS)) if name.endswith(".scn")]
for case_id in FIXTURES:
    _add(case_id, partial(fixture, case_id.removeprefix("fixture:")))
for seed in (1, 2, 3):
    _add(f"stealth_link:{seed}", partial(stealth_link_scenario, seed=seed))
    _add(f"stealth_node:{seed}", partial(stealth_node_scenario, seed=seed))
    _add(f"two_group:{seed}", lambda s=seed: two_group_scenario(s)[0])
    _add(f"leader_session:{seed}", partial(leader_session_scenario, seed))
    _add(f"ring_data:{seed}", partial(ring_data_scenario, seed))
    _add(f"strict_link:{seed}", lambda s=seed: strict(stealth_link_scenario(seed=s)))
    _add(f"strict_node:{seed}", lambda s=seed: strict(stealth_node_scenario(seed=s)))
_add("unknown_destination", unknown_destination_scenario)
_add("self_session", self_session_scenario)
for hops in (2, 3, 4):
    for position in range(hops):
        _add(f"family:{hops}:{position}", partial(stealth_family_scenario, hops, position, seed=hops * 10 + position))
for seed in range(500, 505):
    for fault in LEADERS:
        _add(f"churn:{seed}:{fault}", partial(churn_scenario, seed), fault)
for seed in range(700, 710):
    _add(f"random_group:{seed}", lambda s=seed: random_group_scenario(s)[0])
for kind in ADVERSARY_ARGS:
    for placement in ("link", "bridge", "bystander"):
        _add(f"adversary:{kind}:{placement}", partial(adversary_line_scenario, kind, placement))
    _add(f"active:{kind}", partial(active_adversary_scenario, kind))
# Behaviors left to their default arguments.
for kind in ("replay", "drop_probabilistic"):
    for placement in ("link", "bridge", "bystander"):
        _add(f"defaults:{kind}:{placement}", partial(adversary_line_scenario, kind, placement, {}))
impostors = [("plain", {}, False), ("plain_overheard", {}, True), ("random_overheard", {"strategy": "random"}, True)]
for label, args, overheard in impostors:
    _add(f"defaults:impersonate:{label}", partial(impostor_scenario, args, overheard))
# A tap that changes a unicast REKEY's header on the link A-B, so the
# addressee is delivered bytes that no send logged.
_add("modify_unicast", partial(adversary_line_scenario, "modify_field", "link", {"field": "epoch", "op": "add", "value": 1}))
for recipe in (workloads.grid_static, workloads.grid_mobile):
    for side in (11, 16):
        _add(f"{recipe.__name__}:{side}x{side}:1", partial(recipe, 1, side=side))
PINNED = list(CASES)

for seed in range(505, 600):
    _add(f"churn:{seed}:plain", partial(churn_scenario, seed))
for seed in range(710, 800):
    _add(f"random_group:{seed}", lambda s=seed: random_group_scenario(s)[0])
for fault in LEADERS:
    _add(f"churn:100:{fault}", partial(churn_scenario, 100), fault)
# A benchmark workload's scenario `seed` is "<workload>:<seed>:plain"; the
# churn pool lies within seeds 500-599, added above.
for name in ("grid_static", "grid_mobile"):
    for seed in workloads.WORKLOADS[name].pool:
        _add(f"{name}:{seed}:plain", partial(workloads.WORKLOADS[name].make, seed))
for build in (short_liveness, short_liveness_election, short_discovery, late_joiner, late_member_set, leader_crash):
    _add(build.__name__, build)
_add("replay_now", partial(adversary_line_scenario, "replay", "bridge", {"delay": 0}))
_add("replay_later", partial(adversary_line_scenario, "replay", "bridge", {"delay": 3}))
_add("replay_lockout", replay_lockout)


SIMULATED = Counter()  # case id -> the runs the corpus has made of it
_RUNS = {}  # case id -> what `_keep` keeps of its run
_FIELDS = [attrgetter(f.name) for f in fields(SimEvent)]


def digest(log) -> str:
    """The hash of a log's text followed by its payload sidecar."""
    return hashlib.sha256(log.to_text().encode() + log.payload_blob()).hexdigest()


def fresh(case_id, simulation=Simulation):
    """A new run of the case under its leaders, by `simulation`."""
    case = CASES[case_id]
    return run_led_by(case.fault, case.build(), simulation)


def _rest(log) -> EventLog:
    """A copy of the log's payloads, registry and completeness, with no events."""
    registry = log.registry
    registry = replace(registry, **{f.name: copy.copy(getattr(registry, f.name)) for f in fields(registry)})
    return EventLog([], dict(log.payloads), registry, log.complete)


def _keep(case_id) -> EventLog:
    """Simulate and audit the case, keep its report and a copy of its log,
    and return the log.  The copy's events are kept as one tuple per field,
    which, unlike an object per event, the cycle collector need not walk."""
    run = fresh(case_id)
    _RUNS[case_id] = tuple(tuple(map(field, run.events)) for field in _FIELDS), _rest(run), audit_log(run)
    SIMULATED[case_id] += 1
    return run


def log(case_id) -> EventLog:
    """The case's log, simulated once per session; each call gets its own."""
    if case_id not in _RUNS:
        return _keep(case_id)
    columns, kept, _ = _RUNS[case_id]
    copied = _rest(kept)
    copied.events = [SimEvent(*row) for row in zip(*columns)]
    return copied


def audit(case_id) -> AuditReport:
    """The audit of the case's log, made once per session; each call gets a copy."""
    if case_id not in _RUNS:
        _keep(case_id)
    report = _RUNS[case_id][2]
    results = [replace(result, counterexamples=list(result.counterexamples)) for result in report.results]
    return AuditReport(results, list(report.met))
