"""Golden digests: the simulator's output, pinned byte for byte.

Each case runs one scenario and hashes its log text followed by its payload
sidecar, and reads the log text back into the events that were logged.  The
committed table in ``golden_digests.json`` was generated from
the simulator before any refactoring of its hot path, so a refactoring that
claims to keep behaviour must reproduce every digest.  The cases cover the
fixtures, the stealth (also with the chain checked at every hop), family,
two-group, churn (plain and fault-injected) and random-group builders, a
leader's session with a node outside its group (a unicast addressed to the
sender itself), a routed unicast across the leader ring, a discovery of a
node no group holds, plus every adversary kind placed
on a link, at a node that bridges a gap and at a bystander node, so
overhearing, taps and out-of-range drops are all exercised.  Two 121-node
grids from the benchmark's recipes (``perfbench/workloads.py``), one static
and one walking every tick, pin radio reach where many nodes share a
neighbourhood; two 256-node ones pin the scale the founding fan-out and the
per-source path search were sped up for.

To print the table for the current code: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from manetsec.scenariofile import parse_scenario
from manetsec.sim import Action, AdversarySpec, GroupSpec, NodeSpec, Scenario, SimParams, parse_log_text, run
from topologies import (
    RADIUS,
    churn_scenario,
    line_scenario,
    random_group_scenario,
    stealth_family_scenario,
    stealth_link_scenario,
    stealth_node_scenario,
    two_group_scenario,
)

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "scenarios")
# The benchmark's recipes, loaded by path; registered in sys.modules so that
# their dataclasses can resolve the module they live in.
_WORKLOADS = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(HERE, "..", "perfbench", "workloads.py")
)
workloads = sys.modules[_WORKLOADS.name] = importlib.util.module_from_spec(_WORKLOADS)
_WORKLOADS.loader.exec_module(workloads)
with open(os.path.join(HERE, "golden_digests.json")) as fh:
    GOLDEN = json.load(fh)

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


def adversary_line_scenario(kind, placement):
    """S-A-B-D with one adversary of `kind` on the A-B link ("link"), at a
    node X that bridges a gap between A and B ("bridge"), or at a node X
    beside an A-B link that works without it ("bystander")."""
    if placement == "link":
        return line_scenario(
            ["S", "A", "B", "D"],
            seed=3,
            script=ADVERSARY_SCRIPT,
            adversaries=[AdversarySpec(kind, ("link", "A", "B"), dict(ADVERSARY_ARGS[kind]))],
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
        adversaries=[AdversarySpec(kind, ("node", "X"), dict(ADVERSARY_ARGS[kind]))],
    )


def leader_session_scenario(seed):
    """Two groups; g1's founding leader a1 opens a session with a node of g2,
    so its key query is a unicast addressed to itself."""
    scenario, _, dest = two_group_scenario(seed)
    scenario.script.append(Action(20, "session", ("a1", dest)))
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
    for hops in (2, 3, 4):
        for position in range(hops):
            out.append(
                (
                    f"family:{hops}:{position}",
                    lambda h=hops, p=position: stealth_family_scenario(h, p, seed=h * 10 + p),
                )
            )
    for seed in range(500, 505):
        for fault in ("", "leak_key", "skip_rekey", "forge_admit"):
            faults = frozenset({fault}) if fault else frozenset()
            out.append((f"churn:{seed}:{fault or 'plain'}", lambda s=seed, f=faults: churn_scenario(s, f)))
    for seed in range(700, 710):
        out.append((f"random_group:{seed}", lambda s=seed: random_group_scenario(s)[0]))
    for kind in ADVERSARY_ARGS:
        for placement in ("link", "bridge", "bystander"):
            out.append(
                (f"adversary:{kind}:{placement}", lambda k=kind, p=placement: adversary_line_scenario(k, p))
            )
    for recipe in (workloads.grid_static, workloads.grid_mobile):
        for side in (11, 16):
            out.append((f"{recipe.__name__}:{side}x{side}:1", lambda r=recipe, n=side: r(1, side=n)))
    return out


def digest(log) -> str:
    return hashlib.sha256(log.to_text().encode() + log.payload_blob()).hexdigest()


CASES = cases()


def test_table_names_every_case():
    assert sorted(GOLDEN) == sorted(case_id for case_id, _ in CASES)


@pytest.mark.parametrize("case_id,build", CASES, ids=[case_id for case_id, _ in CASES])
def test_golden_digest(case_id, build):
    log = run(build())
    assert digest(log) == GOLDEN[case_id]
    # The log reads back as the very events that were logged.
    assert parse_log_text(log.to_text()).events == log.events


if __name__ == "__main__":
    json.dump({case_id: digest(run(build())) for case_id, build in CASES}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
