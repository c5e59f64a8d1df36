"""Scenario builders shared by the simulator tests and the acceptance suite."""

import importlib.util
import math
import os
import random
import sys
from unittest import mock

from manetsec import sim
from manetsec.keymgmt import LeaderKeyService
from manetsec.messages import MessageKind, seal_plain
from manetsec.sim import Action, AdversarySpec, GroupSpec, NodeSpec, Scenario, SimParams

# The benchmark's recipes, loaded by path; registered in sys.modules so that
# their dataclasses can resolve the module they live in.
_WORKLOADS = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
)
workloads = sys.modules[_WORKLOADS.name] = importlib.util.module_from_spec(_WORKLOADS)
_WORKLOADS.loader.exec_module(workloads)

RADIUS = 110.0
SPACING = 100.0


def placed(*rows):
    """A node standing still at (x, y) for each (name, x, y, battery)."""
    return [NodeSpec(name, [(x, y)], battery) for name, x, y, battery in rows]


def verdicts(log, node=None, prefix=""):
    """The verdicts `node` (any node, when None) logs whose detail starts with `prefix`."""
    return [
        e for e in log.events
        if e.kind == "verdict" and node in (None, e.principals.split(":", 1)[0]) and e.detail.startswith(prefix)
    ]


def line_nodes(names, spacing=SPACING, battery=None):
    battery = battery or {}
    return [
        NodeSpec(name, [(i * spacing, 0.0)], battery.get(name, 0.8 - 0.01 * i))
        for i, name in enumerate(names)
    ]


def line_scenario(names, seed=1, script=(), adversaries=(), lifetime=8, duration=None, **extra):
    params = SimParams(radio_radius=RADIUS, rreq_lifetime=lifetime)
    if duration is not None:
        params.duration = duration
    return Scenario(
        seed=seed,
        nodes=line_nodes(list(names)),
        groups=[GroupSpec("g1", max(8, len(names) + 2), list(names))],
        params=params,
        script=list(script),
        adversaries=list(adversaries),
        **extra,
    )


def stealth_link_scenario(seed=1, lifetime=8, with_adversary=True, extra_script=()):
    """The worked detection example: S-A-(relay)-B-D, budget 8."""
    adv = [AdversarySpec("mitm_relay", ("link", "A", "B"))] if with_adversary else []
    return line_scenario(
        ["S", "A", "B", "D"],
        seed=seed,
        lifetime=lifetime,
        script=[Action(2, "discover", ("S", "D"))] + list(extra_script),
        adversaries=adv,
        duration=20,
    )


def stealth_node_scenario(seed=1, lifetime=8):
    """Same attack with a physically placed relay bridging an A-B gap."""
    nodes = placed(
        ("S", 0.0, 0.0, 0.6), ("A", 100.0, 0.0, 0.9), ("X", 175.0, 0.0, 0.5), ("B", 250.0, 0.0, 0.7),
        ("D", 350.0, 0.0, 0.6),
    )
    params = SimParams(radio_radius=RADIUS, rreq_lifetime=lifetime, duration=20)
    return Scenario(
        seed=seed,
        nodes=nodes,
        groups=[GroupSpec("g1", 8, ["S", "A", "B", "D"])],
        params=params,
        script=[Action(2, "discover", ("S", "D"))],
        adversaries=[AdversarySpec("mitm_relay", ("node", "X"))],
    )


def stealth_family_scenario(hops, position, seed, lifetime=8):
    """A line of `hops` hops S..D with a stealth relay on link `position`."""
    names = ["S"] + [f"n{i}" for i in range(1, hops)] + ["D"]
    u, v = names[position], names[position + 1]
    return line_scenario(
        names,
        seed=seed,
        lifetime=lifetime,
        script=[Action(2, "discover", ("S", "D"))],
        adversaries=[AdversarySpec("mitm_relay", ("link", u, v))],
        duration=6 + 3 * hops,
    )


def connected_random_positions(rng, count, radius=RADIUS, box=None):
    """Uniform positions resampled until the disk graph is connected."""
    box = box or (radius * max(2.0, math.sqrt(count) * 0.9))
    while True:
        positions = [(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(count)]
        if _connected(positions, radius):
            return positions


def _neighbors(positions, radius):
    adjacency = [[] for _ in positions]
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if math.dist(positions[i], positions[j]) <= radius:
                adjacency[i].append(j)
                adjacency[j].append(i)
    return adjacency


def _connected(positions, radius):
    adjacency = _neighbors(positions, radius)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(positions)


def _hops_from(adjacency, start):
    """Hop count from `start` to every node it reaches."""
    frontier, dist = [start], {start: 0}
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def hop_distance(positions, radius, start, goal):
    return _hops_from(_neighbors(positions, radius), start).get(goal)


def diameter(positions, radius):
    """Largest hop distance between two nodes of a connected disk graph: one
    breadth-first search per node over one adjacency."""
    adjacency = _neighbors(positions, radius)
    return max((max(_hops_from(adjacency, start).values()) for start in range(len(positions))), default=0)


def random_group_scenario(seed, count=None, discover=True):
    """One connected random single-group topology with one discovery.

    The request budget equals the network diameter and the discovery waits
    for the founding key material to reach every member first.
    """
    rng = random.Random(seed)
    count = count or rng.randint(8, 32)
    positions = connected_random_positions(rng, count)
    names = [f"n{i:02d}" for i in range(count)]
    nodes = [NodeSpec(names[i], [positions[i]], 0.5 + 0.5 * rng.random()) for i in range(count)]
    source, dest = rng.sample(range(count), 2)
    span = hop_distance(positions, RADIUS, source, dest)
    diam = diameter(positions, RADIUS)
    start = diam + 4
    params = SimParams(
        radio_radius=RADIUS,
        rreq_lifetime=max(diam, 1),
        # Heartbeats cross up to `diam` hops; keep liveness slack above the
        # beat period plus worst-case propagation.
        liveness_deadline=30 + 3 * diam,
        duration=start + 3 * diam + 12,
    )
    script = [Action(start, "discover", (names[source], names[dest]))] if discover else []
    scenario = Scenario(
        seed=seed,
        nodes=nodes,
        groups=[GroupSpec("g1", count + 4, names)],
        params=params,
        script=script,
    )
    return scenario, names[source], names[dest], span


def two_group_scenario(seed, per_group=4):
    """Two laterally adjacent groups; leaders bridge over the ring channel."""
    rng = random.Random(seed)
    left, right = [], []
    left_names, right_names = [], []
    for i in range(per_group):
        left_names.append(f"a{i}")
        left.append((rng.uniform(0, 180), rng.uniform(0, 180)))
        right_names.append(f"b{i}")
        right.append((rng.uniform(320, 500), rng.uniform(0, 180)))
    while not _connected(left, RADIUS):
        left = [(rng.uniform(0, 180), rng.uniform(0, 180)) for _ in range(per_group)]
    while not _connected(right, RADIUS):
        right = [(rng.uniform(320, 500), rng.uniform(0, 180)) for _ in range(per_group)]
    nodes = [NodeSpec(n, [p], 0.5 + 0.5 * rng.random()) for n, p in zip(left_names, left)]
    nodes += [NodeSpec(n, [p], 0.5 + 0.5 * rng.random()) for n, p in zip(right_names, right)]
    source, dest = left_names[0], right_names[0]
    params = SimParams(radio_radius=RADIUS, rreq_lifetime=8, duration=60)
    return (
        Scenario(
            seed=seed,
            nodes=nodes,
            groups=[
                GroupSpec("g1", per_group + 4, left_names),
                GroupSpec("g2", per_group + 4, right_names),
            ],
            params=params,
            script=[Action(3, "discover", (source, dest))],
        ),
        source,
        dest,
    )


# The benchmark's churn recipe: randomized joins, leaves, and a leader crash
# with chat in between, for at least ten group-key epochs per run.
churn_scenario = workloads.churn


# Leaders that break the protocol, for the auditor to catch.


class ForgeAdmitLeader(LeaderKeyService):
    """Admits a joiner without checking its certificate."""

    def _check_certificate(self, cert, session, ctx):
        return True


class SkipRekeyLeader(LeaderKeyService):
    """Keeps the group key when members are removed."""

    def _rekey_removal(self, ctx):
        pass


class LeakKeyLeader(LeaderKeyService):
    """Sends a removal's new group key to the removed members as well, after
    the remaining ones, in the order they were named."""

    def remove_members(self, names, reason, ctx):
        self.departed = {name: self.member_view[name] for name in names if name in self.heartbeats}
        super().remove_members(names, reason, ctx)

    def _rekey_removal(self, ctx):
        super()._rekey_removal(ctx)
        inner = seal_plain(
            MessageKind.REKEY, "public", **self._keyset_fields(self.directory_rows()), member_key=b"", member_id=0
        )
        for name, public in self.departed.items():
            self._send_keyset(name, public, inner, ctx)


# Each leader a run can have, by the fault it commits ("plain" for none).
LEADERS = {
    "plain": LeaderKeyService,
    "leak_key": LeakKeyLeader,
    "skip_rekey": SkipRekeyLeader,
    "forge_admit": ForgeAdmitLeader,
}


def run_led_by(fault, scenario, simulation=sim.Simulation):
    """The log of `scenario` run by `simulation` with every leader one of
    `LEADERS[fault]`."""
    with mock.patch.object(sim, "LeaderKeyService", LEADERS[fault]):
        return simulation(scenario).run()


def held_labels(log, knowledge):
    """The registry labels of the keys a knowledge set holds."""
    return {label for _, _, label, value in log.registry.secrets if value in knowledge.sym_keys}
