"""Scenario generators for the benchmark's workloads.

Each generator takes one scenario seed and returns a ``Scenario``; the
simulator sees nothing else.  The recipes live here rather than in
``tests/`` so that editing a test cannot silently change what the benchmark
measures, and the grids have their diameter known by construction (no
all-pairs hop search is needed to size the request budget).

A workload's scenario seeds come from a fixed pool (``Workload.pool``) so
that every (workload, scenario seed) pair the benchmark can run has
committed reference digests in ``reference.json``.  The workload seed given
on the command line picks and orders scenario seeds from that pool.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from manetsec.sim import Action, GroupSpec, NodeSpec, Scenario, SimParams

RADIUS = 110.0
SPACING = 100.0
GRID_SIDE = 8  # 64 nodes; diameter 2 * (GRID_SIDE - 1) hops
MOBILE_CELL = 30.0  # a mobile node stays within +-30 units of its grid point
MOBILE_STEP = 8.0  # per-tick displacement bound on each axis
# At radius 110 the walk breaks most axis links and discoveries die at the
# source corner; at 140 the grid stays connected while the diagonal links
# (141 units at rest) flicker in and out of range every tick.
MOBILE_RADIUS = 140.0


# ---------------------------------------------------------------------------
# churn: copied from the acceptance suite's churn recipe (criterion 5)
# ---------------------------------------------------------------------------


def _connected(positions, radius):
    adjacency = [[] for _ in positions]
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            if math.dist(positions[i], positions[j]) <= radius:
                adjacency[i].append(j)
                adjacency[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(positions)


def _connected_random_positions(rng, count, box):
    """Uniform positions resampled until the disk graph is connected."""
    while True:
        positions = [(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(count)]
        if _connected(positions, RADIUS):
            return positions


def churn(seed: int) -> Scenario:
    """11 nodes in one group: 5 joins, 4 founder leaves, a leader crash,
    and group chat between the steps (at least ten group-key epochs)."""
    rng = random.Random(seed)
    founders = [f"m{i}" for i in range(6)]
    joiners = [f"j{i}" for i in range(5)]
    positions = _connected_random_positions(rng, len(founders) + len(joiners), box=200.0)
    batteries = {name: 0.4 + 0.6 * rng.random() for name in founders + joiners}
    nodes = [
        NodeSpec(name, [positions[i]], batteries[name])
        for i, name in enumerate(founders + joiners)
    ]
    params = SimParams(
        radio_radius=RADIUS,
        rreq_lifetime=8,
        heartbeat_period=4,
        liveness_deadline=12,
    )
    script = []
    tick = 4
    present_founders = list(founders)
    waiting = list(joiners)
    speakers = list(founders)
    plan = ["join", "join", "leave", "join", "leave", "crash", "join", "leave", "join", "leave"]
    for step in plan:
        if step == "join" and waiting:
            node = waiting.pop(0)
            script.append(Action(tick, "join", (node, "g1")))
            tick += 24  # multi-hop handshakes take a dozen-plus ticks
        elif step == "leave" and len(present_founders) > 2:
            node = present_founders.pop(rng.randrange(len(present_founders)))
            speakers.remove(node)
            script.append(Action(tick, "leave", (node,)))
            tick += 10
        elif step == "crash":
            script.append(Action(tick, "crash_leader", ("g1",)))
            tick += params.liveness_deadline + 12
        speaker = speakers[rng.randrange(len(speakers))]
        script.append(Action(tick, "send_data", (speaker, "*", f"chat{tick}")))
        tick += 4
    params.duration = tick + 24
    return Scenario(
        seed=seed,
        nodes=nodes,
        groups=[GroupSpec("g1", 16, founders)],
        params=params,
        script=script,
    )


# ---------------------------------------------------------------------------
# grids: spacing 100; at radius 110 only the four axis neighbours are in
# range, so the hop diameter is 2 * (side - 1) by construction
# ---------------------------------------------------------------------------


def _grid_names(side: int) -> list:
    return [f"r{r}c{c}" for r in range(side) for c in range(side)]


def _corner_pairs(rng: random.Random, side: int, names: list) -> list:
    """Both diagonals as (source, dest) pairs, seeded order and direction."""
    last = side * side - 1
    pairs = [(0, last), (side - 1, last - (side - 1))]
    rng.shuffle(pairs)
    out = []
    for a, b in pairs:
        if rng.random() < 0.5:
            a, b = b, a
        out.append((names[a], names[b]))
    return out


def grid_static(seed: int, side: int = GRID_SIDE) -> Scenario:
    """A static grid, one corner-to-corner discovery, heartbeats throughout."""
    rng = random.Random(seed)
    names = _grid_names(side)
    diameter = 2 * (side - 1)
    nodes = [
        NodeSpec(name, [((i % side) * SPACING, (i // side) * SPACING)], 0.5 + 0.5 * rng.random())
        for i, name in enumerate(names)
    ]
    source, dest = _corner_pairs(rng, side, names)[0]
    # Founding key material crosses the diameter before the discovery starts;
    # the request and the reply each take `diameter` ticks.
    start = diameter + 4
    params = SimParams(
        radio_radius=RADIUS,
        rreq_lifetime=diameter,
        liveness_deadline=30 + 3 * diameter,
        duration=start + 2 * diameter + 12,
    )
    return Scenario(
        seed=seed,
        nodes=nodes,
        groups=[GroupSpec("g1", len(names) + 4, names)],
        params=params,
        script=[Action(start, "discover", (source, dest))],
    )


def _random_walk(rng: random.Random, home: tuple, ticks: int) -> list:
    hx, hy = home
    x, y = hx, hy
    trace = []
    for _ in range(ticks):
        x = min(hx + MOBILE_CELL, max(hx - MOBILE_CELL, x + rng.uniform(-MOBILE_STEP, MOBILE_STEP)))
        y = min(hy + MOBILE_CELL, max(hy - MOBILE_CELL, y + rng.uniform(-MOBILE_STEP, MOBILE_STEP)))
        trace.append((x, y))
    return trace


def grid_mobile(seed: int, side: int = GRID_SIDE) -> Scenario:
    """The same grid with every node walking inside its cell each tick: two
    discoveries (both diagonals) and one routed data message.  Diagonal
    links shorten paths and broken axis links lengthen them, so the
    request budget keeps some slack over the static diameter."""
    rng = random.Random(seed)
    names = _grid_names(side)
    diameter = 2 * (side - 1)
    budget = diameter + 4  # moving links can force detours
    start = diameter + 4
    send_at = start + 2 * diameter + 4
    duration = send_at + diameter + 6
    nodes = []
    for i, name in enumerate(names):
        home = ((i % side) * SPACING, (i // side) * SPACING)
        trace = _random_walk(rng, home, duration + 1)
        nodes.append(NodeSpec(name, trace, 0.5 + 0.5 * rng.random()))
    (s1, d1), (s2, d2) = _corner_pairs(rng, side, names)
    params = SimParams(
        radio_radius=MOBILE_RADIUS,
        rreq_lifetime=budget,
        liveness_deadline=30 + 3 * budget,
        duration=duration,
    )
    script = [
        Action(start, "discover", (s1, d1)),
        Action(start + 1, "discover", (s2, d2)),
        Action(send_at, "send_data", (s1, d1, f"data{seed}")),
    ]
    return Scenario(
        seed=seed,
        nodes=nodes,
        groups=[GroupSpec("g1", len(names) + 4, names)],
        params=params,
        script=script,
    )


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Scenario]
    why: str  # the one-line reason this workload is in the benchmark
    pool: range  # scenario seeds with committed reference digests
    per_second: float  # scenarios run per second of --seconds
    traced: int  # scenarios in a traced run (spans are kept in memory)

    def plan(self, workload_seed: int, seconds: float) -> list:
        """Scenario seeds for one run: the seed orders the pool, the run
        length sets how many are taken (cycling if it exceeds the pool)."""
        order = list(self.pool)
        random.Random(f"{self.name}:{workload_seed}").shuffle(order)
        count = max(1, round(seconds * self.per_second))
        return [order[i % len(order)] for i in range(count)]


# Each pool is a little larger than one run's plan at the benchmark's run
# length, so any two workload seeds share most of their scenarios and the
# run-to-run spread reflects the host more than the scenario mix.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "churn",
            churn,
            "11-node group churn (joins, leaves, leader crash, chat): key management, "
            "message encoding and the auditor dominate; radio search is trivial",
            range(500, 584),
            3.5,
            8,
        ),
        Workload(
            "grid_static",
            grid_static,
            "static 64-node grid, one corner-to-corner discovery with heartbeats: "
            "radio path search dominates and audit is about 5 percent",
            range(700, 744),
            1.8,
            3,
        ),
        Workload(
            "grid_mobile",
            grid_mobile,
            "the same grid with every node walking each tick, two discoveries and a "
            "routed send: topology changes every tick, so no neighbour reuse across ticks",
            range(900, 936),
            1.5,
            3,
        ),
    )
}
