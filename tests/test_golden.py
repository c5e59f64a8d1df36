"""Golden digests: the simulator's output, pinned byte for byte.

Each case runs one scenario and hashes its log text followed by its payload
sidecar, and reads the log text back into the events that were logged.  The
committed table in ``golden_digests.json`` was generated from
the simulator before any refactoring of its hot path, so a refactoring that
claims to keep behaviour must reproduce every digest.  The cases cover the
fixtures, the stealth (also with the chain checked at every hop), family,
two-group, churn (plain and with faulty leaders) and random-group builders, a
leader's session with a node outside its group (a unicast addressed to the
sender itself), sessions a leader and a member open with themselves, a
routed unicast across the leader ring, a discovery of a node no group
holds, plus every adversary kind placed on a link, at a node that bridges
a gap and at a bystander node, so
overhearing, taps and out-of-range drops are all exercised; each bridging
adversary also forges a join and opens rogue sessions.  The replay
and probabilistic-drop behaviors are pinned again with no arguments, and an
impostor that a node joins through with none (with and without a recorded
handshake to replay) and with only ``strategy=random``, so every default a
behavior declares is read by some case.  Two 121-node
grids from the benchmark's recipes (``perfbench/workloads.py``), one static
and one walking every tick, pin radio reach where many nodes share a
neighbourhood; two 256-node ones pin the scale the founding fan-out and the
per-source path search were sped up for.

Each case's audit text is pinned too, in ``golden_audit_digests.json``:
sixteen of the cases FAIL some property, so the table holds failing
verdicts and their counterexamples as well as passing ones, and an auditor
change that drifts any of them fails the suite.  The benchmark's own
reference (``perfbench/reference.json``) is checked here as well, on a
slice of each workload's pool, so the audit text of the benchmarked runs
is pinned in the suite and not only in the benchmark.

No log shows a ring key, so a wrong one would pass every digest of a
single-group run; the ring keys of churn seeds 500-519 and of every
multi-group case are checked against the leaders' chain raised with
builtin ``pow`` alone.

To print the log table for the current code:
``PYTHONPATH=src python tests/test_golden.py``; to print the audit table:
``PYTHONPATH=src python tests/test_golden.py audit``.
"""

import hashlib
import json
import os
import sys

import pytest

from manetsec import encoding, sim as sim_module
from manetsec.audit import audit
from manetsec.crypto import make_provider
from manetsec.keymgmt import RING_GENERATOR, RING_MODULUS, leader_ring_agree
from manetsec.node import ProtocolNode
from manetsec.scenariofile import parse_scenario
from manetsec.sim import (
    Action, AdversarySpec, GroupSpec, NodeSpec, Scenario, SimParams, Simulation, parse_log_text, run,
)
from topologies import (
    LEADERS,
    RADIUS,
    churn_scenario,
    line_scenario,
    random_group_scenario,
    run_led_by,
    stealth_family_scenario,
    stealth_link_scenario,
    stealth_node_scenario,
    two_group_scenario,
    workloads,
)

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "scenarios")
with open(os.path.join(HERE, "golden_digests.json")) as fh:
    GOLDEN = json.load(fh)
with open(os.path.join(HERE, "golden_audit_digests.json")) as fh:
    GOLDEN_AUDIT = json.load(fh)
with open(os.path.join(HERE, "..", "perfbench", "reference.json")) as fh:
    BENCHMARK_REFERENCE = json.load(fh)["workloads"]

ADVERSARY_ARGS = {
    "drop_all": {},
    "drop_probabilistic": {"p": 0.5},
    "modify_field": {"field": "seq", "op": "add", "value": 1},
    "replay": {"delay": 4},
    "mitm_relay": {},
    "impersonate": {"strategy": "replay"},
}

# A discovery, a pairwise session, a routed unicast and a group broadcast.
ADVERSARY_SCRIPT = [
    Action(2, "discover", ("S", "D")),
    Action(14, "session", ("S", "D")),
    Action(24, "send_data", ("S", "D", "unicast")),
    Action(28, "send_data", ("A", "*", "broadcast")),
]


def adversary_line_scenario(kind, placement, args=None):
    """S-A-B-D with one adversary of `kind` on the A-B link ("link"), at a
    node X that bridges a gap between A and B ("bridge"), or at a node X
    beside an A-B link that works without it ("bystander").  The adversary
    takes `args`, by default its entry in ADVERSARY_ARGS."""
    args = dict(ADVERSARY_ARGS[kind] if args is None else args)
    if placement == "link":
        return line_scenario(
            ["S", "A", "B", "D"],
            seed=3,
            script=ADVERSARY_SCRIPT,
            adversaries=[AdversarySpec(kind, ("link", "A", "B"), args)],
            duration=40,
        )
    gap, x = (150.0, (175.0, 0.0)) if placement == "bridge" else (100.0, (150.0, 40.0))
    nodes = [
        NodeSpec("S", [(0.0, 0.0)], 0.6),
        NodeSpec("A", [(100.0, 0.0)], 0.9),
        NodeSpec("X", [x], 0.5),
        NodeSpec("B", [(100.0 + gap, 0.0)], 0.7),
        NodeSpec("D", [(200.0 + gap, 0.0)], 0.6),
    ]
    return Scenario(
        seed=3,
        nodes=nodes,
        groups=[GroupSpec("g1", 8, ["S", "A", "B", "D"])],
        params=SimParams(radio_radius=RADIUS, duration=40),
        script=list(ADVERSARY_SCRIPT),
        adversaries=[AdversarySpec(kind, ("node", "X"), args)],
    )


def active_adversary_scenario(kind):
    """The bridge placement of `kind`, where X also attempts a forged join
    and two rogue sessions, so its own random stream reaches the log."""
    scenario = adversary_line_scenario(kind, "bridge")
    scenario.script += [
        Action(5, "forged_join", ("X", "g1")),
        Action(8, "rogue_session", ("X", "D")),
        Action(30, "rogue_session", ("X", "A")),
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
    scenario.nodes += [
        NodeSpec("N", [(50.0, 40.0)], 0.5),
        NodeSpec("X", [(60.0, 60.0)], 0.5),
        NodeSpec("P", [(30.0, -40.0)], 0.5),
    ]
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
    with open(os.path.join(FIXTURES, "two_groups.scn")) as handle:
        scenario = parse_scenario(handle.read())
    scenario.script = [
        Action(3, "session", ("a2", "a2")),
        Action(6, "session", ("a0", "a2")),
        Action(9, "session", ("a2", "a0")),
        Action(14, "session", ("a2", "a2")),
        Action(18, "session", ("b0", "b0")),
        Action(20, "session", ("a1", "a1")),
    ]
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


def cases():
    """(case id, zero-argument scenario builder) for every pinned run."""
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".scn"):
            path = os.path.join(FIXTURES, name)
            out.append((f"fixture:{name}", lambda p=path: parse_scenario(open(p).read())))
    for seed in (1, 2, 3):
        out.append((f"stealth_link:{seed}", lambda s=seed: stealth_link_scenario(seed=s)))
        out.append((f"stealth_node:{seed}", lambda s=seed: stealth_node_scenario(seed=s)))
        out.append((f"two_group:{seed}", lambda s=seed: two_group_scenario(s)[0]))
        out.append((f"leader_session:{seed}", lambda s=seed: leader_session_scenario(s)))
        out.append((f"ring_data:{seed}", lambda s=seed: ring_data_scenario(s)))
        out.append((f"strict_link:{seed}", lambda s=seed: strict(stealth_link_scenario(seed=s))))
        out.append((f"strict_node:{seed}", lambda s=seed: strict(stealth_node_scenario(seed=s))))
    out.append(("unknown_destination", unknown_destination_scenario))
    out.append(("self_session", self_session_scenario))
    for hops in (2, 3, 4):
        for position in range(hops):
            out.append(
                (
                    f"family:{hops}:{position}",
                    lambda h=hops, p=position: stealth_family_scenario(h, p, seed=h * 10 + p),
                )
            )
    for seed in range(500, 505):
        for fault in LEADERS:
            out.append((f"churn:{seed}:{fault}", lambda s=seed: churn_scenario(s)))
    for seed in range(700, 710):
        out.append((f"random_group:{seed}", lambda s=seed: random_group_scenario(s)[0]))
    for kind in ADVERSARY_ARGS:
        for placement in ("link", "bridge", "bystander"):
            out.append(
                (f"adversary:{kind}:{placement}", lambda k=kind, p=placement: adversary_line_scenario(k, p))
            )
    for kind in ADVERSARY_ARGS:
        out.append((f"active:{kind}", lambda k=kind: active_adversary_scenario(k)))
    # Behaviors left to their default arguments.
    for kind in ("replay", "drop_probabilistic"):
        for placement in ("link", "bridge", "bystander"):
            out.append(
                (f"defaults:{kind}:{placement}", lambda k=kind, p=placement: adversary_line_scenario(k, p, {}))
            )
    for label, args, overheard in (
        ("plain", {}, False),
        ("plain_overheard", {}, True),
        ("random_overheard", {"strategy": "random"}, True),
    ):
        out.append((f"defaults:impersonate:{label}", lambda a=args, o=overheard: impostor_scenario(a, o)))
    for recipe in (workloads.grid_static, workloads.grid_mobile):
        for side in (11, 16):
            out.append((f"{recipe.__name__}:{side}x{side}:1", lambda r=recipe, n=side: r(1, side=n)))
    return out


def run_case(case_id, build):
    """The log of one case; a churn case runs with the leaders of the fault
    its id ends in (``topologies.LEADERS``)."""
    fault = case_id.rsplit(":", 1)[1] if case_id.startswith("churn:") else "plain"
    return run_led_by(fault, build())


def digest(log) -> str:
    return hashlib.sha256(log.to_text().encode() + log.payload_blob()).hexdigest()


def audit_digest(log) -> str:
    return hashlib.sha256(audit(log).to_text().encode()).hexdigest()


CASES = cases()


def test_table_names_every_case():
    assert sorted(GOLDEN) == sorted(GOLDEN_AUDIT) == sorted(case_id for case_id, _ in CASES)


@pytest.mark.parametrize("case_id,build", CASES, ids=[case_id for case_id, _ in CASES])
def test_golden_digest(case_id, build):
    log = run_case(case_id, build)
    assert digest(log) == GOLDEN[case_id]
    # The log reads back as the very events that were logged.
    assert parse_log_text(log.to_text()).events == log.events
    assert audit_digest(log) == GOLDEN_AUDIT[case_id]


# The fixtures, three churn cases, and every adversary kind on a link and
# at a node.
CROSS_RUN_CASES = (
    [case for case in CASES if case[0].startswith("fixture:")]
    + [case for case in CASES if case[0].startswith("churn:")][:3]
    + [case for case in CASES if case[0].startswith("adversary:")]
)


def test_runs_in_one_process_keep_their_digests_in_either_order():
    # Crash, adversary and relay state lives on each Simulation, not on
    # anything shared: a slice of the cases run forward and then in reverse
    # in one process keeps every pinned digest both times.
    for order in (CROSS_RUN_CASES, CROSS_RUN_CASES[::-1]):
        moved = [case_id for case_id, build in order if digest(run_case(case_id, build)) != GOLDEN[case_id]]
        assert moved == []


GATEWAY_CASES = [f"{name}:{seed}" for name in ("two_group", "ring_data", "leader_session") for seed in (1, 2, 3)]


@pytest.mark.parametrize("case_id", GATEWAY_CASES + ["unknown_destination"])
def test_every_gateway_wait_ends(case_id):
    # A gateway job ends when a GROUP_REP answers it or its last GROUP_NEG
    # arrives; a remote job or a composed request ends when answered.
    sim = Simulation(dict(CASES)[case_id]())
    sim.run()
    held = {
        name: (node.gateway_jobs, node.remote_jobs, node.pending_composed)
        for name, node in sim.nodes.items()
        if isinstance(node, ProtocolNode) and (node.gateway_jobs or node.remote_jobs or node.pending_composed)
    }
    assert held == {}


RING_CASES = [(f"churn:{seed}", lambda s=seed: churn_scenario(s)) for seed in range(500, 520)] + [
    (case_id, build) for case_id, build in CASES if len(build().groups) > 1
]


@pytest.mark.parametrize("case_id,build", RING_CASES, ids=[case_id for case_id, _ in RING_CASES])
def test_ring_keys_equal_a_chain_of_builtin_pow(case_id, build, monkeypatch):
    chains = []  # the leaders and secrets of each ring version, in order

    def recorded(leaders, provider):
        chains.append(list(leaders))
        return leader_ring_agree(leaders, provider)

    monkeypatch.setattr(sim_module, "leader_ring_agree", recorded)
    log = run(build())
    provider = make_provider(log.registry.provider_name)
    rekeys = [event for event in log.events if event.kind == "rekey" and event.word == "ring"]
    assert [event.actor.split(",") for event in rekeys] == [[name for name, _ in chain] for chain in chains]
    keys = [(label[1], owner, key) for _, owner, label, key in log.registry.secrets if label[0] == "ring_key"]
    assert sorted((version, owner) for version, owner, _ in keys) == [
        (version, name) for version, chain in enumerate(chains, 1) for name, _ in chain
    ]
    for version, _, key in keys:
        shared = RING_GENERATOR
        for _, secret in chains[version - 1]:
            shared = pow(shared, secret, RING_MODULUS)
        assert key == provider.hash(encoding.encode("ring-key", shared))[: provider.sym_key_size]


BENCHMARK_SLICE = [("churn", seed) for seed in range(500, 510)] + [
    (name, seed) for name, first in (("grid_static", 700), ("grid_mobile", 900)) for seed in range(first, first + 3)
]


@pytest.mark.parametrize("workload,seed", BENCHMARK_SLICE, ids=[f"{name}:{seed}" for name, seed in BENCHMARK_SLICE])
def test_benchmark_reference_digests(workload, seed):
    log = run(workloads.WORKLOADS[workload].make(seed))
    artifacts = {
        "log": log.to_text().encode(),
        "payloads": log.payload_blob(),
        "audit": audit(log).to_text().encode(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    assert digests == BENCHMARK_REFERENCE[workload][str(seed)]["digests"]


if __name__ == "__main__":
    pin = audit_digest if sys.argv[1:] == ["audit"] else digest
    table = {case_id: pin(run_case(case_id, build)) for case_id, build in CASES}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
