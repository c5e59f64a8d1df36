import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from manetsec.audit import audit, knowledge_set
from manetsec.group import WeightConfig
from manetsec.sim import (
    EVENT_KINDS,
    PAYLOAD_MAGIC,
    Action,
    AdversarySpec,
    EventLog,
    Expectation,
    GroupSpec,
    NodeSpec,
    Scenario,
    SimParams,
    SimEvent,
    Simulation,
    SimulationError,
    parse_log_text,
    parse_payload_blob,
    run,
    validate_scenario,
)
from topologies import (
    churn_scenario,
    line_scenario,
    stealth_link_scenario,
    stealth_node_scenario,
    two_group_scenario,
)


def verdicts(log, node=None, prefix=""):
    out = []
    for e in log.events:
        if e.kind != "verdict":
            continue
        principal = e.principals.split(":", 1)[0]
        if node is not None and principal != node:
            continue
        if e.detail.startswith(prefix):
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validation_catches_structural_problems():
    scenario = Scenario(
        seed=1,
        nodes=[NodeSpec("A", [(0, 0)]), NodeSpec("A", [(1, 1)]), NodeSpec("bad name", [(0, 0)])],
        groups=[GroupSpec("g1", 1, ["A", "Z"])],
        script=[Action(5, "discover", ("A", "Q")), Action(3, "join", ("A", "g9"))],
    )
    problems = "\n".join(validate_scenario(scenario))
    assert "duplicate node name" in problems
    assert "unknown member 'Z'" in problems
    assert "capacity" in problems
    assert "unknown node 'Q'" in problems
    assert "unknown group 'g9'" in problems
    assert "decreases" in problems
    assert "alphanumeric" in problems


def test_validation_rejects_a_name_with_a_trailing_line_break():
    # A name is logged as it is, so a line break after it would split the log.
    scenario = line_scenario(["A", "B"])
    scenario.nodes[0].name = scenario.groups[0].members[0] = "A\n"
    scenario.groups[0].group_id = "g1\n"
    problems = validate_scenario(scenario)
    assert "node name 'A\\n' must be alphanumeric/underscore/dot" in problems
    assert "group id 'g1\\n' must be alphanumeric/underscore/dot" in problems


def test_validation_accepts_smallest_join_and_liveness_params():
    scenario = line_scenario(["A", "B"])
    params = scenario.params
    params.challenge_bits = params.challenge_rounds = params.liveness_deadline = params.discovery_timeout = 1
    params.freshness_window = 0
    assert validate_scenario(scenario) == []


def test_validation_rejects_bad_weights():
    scenario = line_scenario(["A", "B"], weights=WeightConfig.__new__(WeightConfig))
    object.__setattr__(scenario.weights, "w0", 0.5)
    object.__setattr__(scenario.weights, "w1", 0.3)
    object.__setattr__(scenario.weights, "w2", 0.3)
    object.__setattr__(scenario.weights, "invert_battery_trust", True)
    object.__setattr__(scenario.weights, "mobility_scale", None)
    problems = "\n".join(validate_scenario(scenario))
    assert "w0 + w1 + w2 = 1" in problems


def test_validation_rejects_adversarial_group_member():
    scenario = line_scenario(
        ["A", "B"], adversaries=[AdversarySpec("mitm_relay", ("node", "B"))]
    )
    problems = "\n".join(validate_scenario(scenario))
    assert "adversarial node B" in problems


def test_invalid_scenario_refuses_to_run():
    scenario = line_scenario(["A", "B"], script=[Action(1, "discover", ("A", "nope"))])
    with pytest.raises(SimulationError):
        run(scenario)


# ---------------------------------------------------------------------------
# Determinism and log format
# ---------------------------------------------------------------------------


def test_identical_seeds_identical_logs():
    a = run(stealth_link_scenario(seed=42))
    b = run(stealth_link_scenario(seed=42))
    assert a.to_text() == b.to_text()
    assert a.payload_blob() == b.payload_blob()


def test_different_seeds_different_payloads():
    a = run(stealth_link_scenario(seed=1))
    b = run(stealth_link_scenario(seed=2))
    assert a.to_text() != b.to_text() or a.payload_blob() != b.payload_blob()


def test_log_text_roundtrip():
    log = run(line_scenario(["A", "B", "C"], script=[Action(2, "discover", ("A", "C"))], duration=15))
    parsed = parse_log_text(log.to_text())
    assert parsed.complete
    assert parsed.events == log.events
    payloads = parse_payload_blob(log.payload_blob())
    assert payloads == log.payloads


# A piece of event text: any character but the separators, a tab or a line
# break (control characters and line separators are left out altogether).
_PIECE_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters=">:="), min_size=1, max_size=4
)


@st.composite
def _event(draw, tick, seq):
    """An event of any shape the grammar allows: principals `actor`,
    `actor>recipient` (the recipient may be empty) or `actor:about`, and a
    detail of words and `name=value` pairs (the value may be empty)."""
    shape = draw(st.sampled_from(("actor", "recipient", "about")))
    recipient = draw(_PIECE_TEXT | st.just("")) if shape == "recipient" else None
    about = draw(_PIECE_TEXT) if shape == "about" else ""
    part = _PIECE_TEXT | st.tuples(_PIECE_TEXT, _PIECE_TEXT | st.just(""))
    return SimEvent(
        tick,
        seq,
        draw(st.sampled_from(sorted(EVENT_KINDS))),
        draw(_PIECE_TEXT),
        recipient,
        about,
        draw(st.sampled_from(("-", "0f" * 32))),
        tuple(draw(st.lists(part, min_size=1, max_size=5))),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_rendered_events_parse_back_to_themselves(data):
    ticks = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
    events = [data.draw(_event(tick, seq)) for seq, tick in enumerate(sorted(ticks))]
    text = EventLog(events=events, complete=True).to_text()
    parsed = parse_log_text(text)
    assert parsed.events == events
    assert parsed.to_text() == text


@pytest.mark.parametrize(
    "principals, detail, error",
    [
        ("a>b>c", "x", "principals 'a>b>c' are not"),
        ("a>b:c", "x", "principals 'a>b:c' are not"),
        ("a:b:c", "x", "principals 'a:b:c' are not"),
        ("a=b", "x", "principals 'a=b' are not"),
        (">b", "x", "principals '>b' are not"),
        ("", "x", "principals '' are not"),
        ("a:b>c", "x", "does not render back to itself"),
        ("a:", "x", "does not render back to itself"),
        ("a", "x::y", "part '' that is neither"),
        ("a", "", "part '' that is neither"),
        ("a", "x:", "part '' that is neither"),
        ("a", "=v", "part '=v' that is neither"),
        ("a", "x:n=v=w", "part 'n=v=w' that is neither"),
        ("a", "x:n>v", "part 'n>v' that is neither"),
    ],
)
def test_log_parse_rejects_what_does_not_follow_the_grammar(principals, detail, error):
    good = "0\t0\talert\tA\t-\tnode_crashed"
    text = f"#manetsec-log v1\n{good}\n1\t1\talert\t{principals}\t-\t{detail}\n#complete\n"
    with pytest.raises(SimulationError, match=f"^line 3: .*{re.escape(error)}"):
        parse_log_text(text)


@pytest.mark.parametrize("tick", ["01", "+1", " 1", "1_0"])
def test_log_parse_rejects_numbers_that_do_not_render_back(tick):
    text = f"#manetsec-log v1\n{tick}\t0\talert\tA\t-\tnode_crashed\n#complete\n"
    with pytest.raises(SimulationError, match="^line 2: does not render back to itself"):
        parse_log_text(text)


def test_log_parse_rejects_garbage():
    with pytest.raises(SimulationError):
        parse_log_text("not a log\n")
    with pytest.raises(SimulationError):
        parse_log_text("#manetsec-log v1\nbroken line\n#complete\n")


def test_log_parse_rejects_unknown_kind():
    with pytest.raises(SimulationError, match="line 2: unknown event kind 'bogus'"):
        parse_log_text("#manetsec-log v1\n0\t0\tbogus\tA\t-\tx\n#complete\n")


def test_log_parse_rejects_swapped_lines():
    lines = run(line_scenario(["A", "B"], duration=10)).to_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(SimulationError, match="line 3: sequence 0 does not follow 1"):
        parse_log_text("\n".join(lines) + "\n")


def test_log_parse_rejects_tick_going_back():
    text = "#manetsec-log v1\n5\t0\talert\tA\t-\tx\n4\t1\talert\tA\t-\tx\n#complete\n"
    with pytest.raises(SimulationError, match="line 3: tick 4 is before tick 5"):
        parse_log_text(text)


def _sidecar():
    log = run(line_scenario(["A", "B", "C"], script=[Action(2, "discover", ("A", "C"))], duration=15))
    return log.payload_blob()


def test_payload_blob_rejects_truncated_body():
    with pytest.raises(SimulationError, match="payload sidecar byte .*: payload is 10 bytes short"):
        parse_payload_blob(_sidecar()[:-10])


def test_payload_blob_rejects_truncated_header():
    with pytest.raises(SimulationError, match="payload sidecar byte 7: truncated entry header"):
        parse_payload_blob(_sidecar()[:50])


def test_payload_blob_rejects_non_hex_digest():
    blob = bytearray(_sidecar())
    blob[len(PAYLOAD_MAGIC) + 3] = ord("Z")
    with pytest.raises(SimulationError, match="payload sidecar byte 7: digest is not 64"):
        parse_payload_blob(bytes(blob))


def test_payload_blob_rejects_repeated_digest():
    blob = _sidecar()
    first = len(PAYLOAD_MAGIC)
    end = first + 72 + int.from_bytes(blob[first + 64 : first + 72], "big")
    digest = blob[first : first + 64].decode("ascii")
    with pytest.raises(SimulationError, match=f"payload sidecar byte {len(blob)}: digest {digest} repeats an earlier entry"):
        parse_payload_blob(blob + blob[first:end])


# ---------------------------------------------------------------------------
# Benign runs
# ---------------------------------------------------------------------------


def test_benign_discovery_one_accept_one_install():
    log = run(
        line_scenario(
            ["S", "A", "B", "C", "D"],
            script=[Action(2, "discover", ("S", "D"))],
            duration=25,
        )
    )
    accepts = verdicts(log, "D", "accept:")
    installs = verdicts(log, "S", "route_installed:dest=D")
    assert len(accepts) == 1
    assert len(installs) == 1
    assert audit(log).passed


def test_group_chat_reaches_multihop_members():
    # A broadcast sealed under the group key must be readable by a member
    # three hops from the speaker (cooperative re-flooding).
    log = run(
        line_scenario(
            ["S", "A", "B", "D"],
            script=[Action(3, "send_data", ("S", "*", "hello"))],
            duration=12,
        )
    )
    k = knowledge_set("D", log)
    chat_digests = [
        e.digest
        for e in log.events
        if e.kind == "send" and e.detail.startswith("DATA") and e.principals == "S"
    ]
    assert chat_digests and all(d in k.opened for d in chat_digests)


def test_crash_mid_tick_cuts_relay_out_of_cached_reach():
    # Line C-B-A, C leads.  A's broadcast computes A's radio reach early in
    # tick 20, B then crashes in the same tick, and A's heartbeat to C at the
    # end of that tick must find no path: B is in A's reach but dead.
    log = run(
        line_scenario(
            ["C", "B", "A"],
            script=[Action(20, "send_data", ("A", "*", "hello")), Action(20, "crash", ("B",))],
            duration=22,
        )
    )
    assert [e.principals for e in log.events if e.kind == "elect"] == ["C"]
    tick20 = [e for e in log.events if e.tick == 20]
    kinds = [(e.kind, e.principals, e.detail.split(":", 1)[0]) for e in tick20]
    broadcast = kinds.index(("send", "A", "DATA"))
    crash = kinds.index(("alert", "B", "node_crashed"))
    beat = next(e for e in tick20 if e.kind == "send" and e.detail.startswith("HEARTBEAT:to=C:"))
    assert broadcast < crash < tick20.index(beat)
    tx = beat.detail.rsplit("tx=", 1)[1]
    assert any(e.kind == "drop" and e.principals == "A>C" and e.detail == f"out_of_range:tx={tx}" for e in tick20)
    assert not [e for e in log.events if e.kind == "deliver" and e.detail.endswith(f":tx={tx}")]


def test_crash_mid_tick_cuts_relay_out_of_kept_path_search():
    # Line C-B-A, C leads; A's trace runs to tick 20, so every search of
    # earlier ticks is gone when tick 20 begins.  A's session with C builds
    # A's path search through B early in tick 20, B then crashes, and A's
    # heartbeat to C at the end of that tick must find no path.
    scenario = line_scenario(
        ["C", "B", "A"],
        script=[Action(20, "session", ("A", "C")), Action(20, "crash", ("B",))],
        duration=22,
    )
    scenario.nodes[2].trace *= 21
    log = run(scenario)
    tick20 = [e for e in log.events if e.tick == 20]
    session = next(e for e in tick20 if e.kind == "send" and e.principals == "A" and ":to=C:" in e.detail)
    session_tx = session.detail.rsplit("tx=", 1)[1]
    # The search ran through B before the crash: the message takes two hops.
    assert any(e.kind == "deliver" and e.principals == "A>C" and e.detail.endswith(f":hops=2:tx={session_tx}")
               for e in log.events)
    crash = next(e for e in tick20 if e.kind == "alert" and e.principals == "B")
    beat = next(e for e in tick20 if e.kind == "send" and e.detail.startswith("HEARTBEAT:to=C:"))
    assert tick20.index(session) < tick20.index(crash) < tick20.index(beat)
    tx = beat.detail.rsplit("tx=", 1)[1]
    assert any(e.kind == "drop" and e.principals == "A>C" and e.detail == f"out_of_range:tx={tx}" for e in tick20)
    assert not [e for e in log.events if e.kind == "deliver" and e.detail.endswith(f":tx={tx}")]


def _fresh_path(sim, source, target):
    """The path search as it was before searches were kept: a new early-exit
    breadth-first search per call, where only the target may be unable to
    relay."""
    if target == source or target in sim._neighbours(source):
        return [source, target]
    frontier = [source]
    parents = {source: None}
    while frontier:
        nxt = []
        for u in frontier:
            for v in sim._neighbours(u):
                if v in parents or not sim.nodes[v].alive:
                    continue
                if v != target and not sim._relay_capable(v):
                    continue
                parents[v] = u
                if v == target:
                    path = [v]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                nxt.append(v)
        frontier = nxt
    return None


class _CheckedPaths(Simulation):
    """Checks every path the kept searches give against a fresh search."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.paths = []  # (tick, source, target, path)
        self.searches_seen = {}  # addressee -> the searches its paths used, in order

    def _radio_path(self, source, target):
        path = super()._radio_path(source, target)
        assert path == _fresh_path(self, source, target), (self.now, source, target)
        self.paths.append((self.now, source, target, path))
        if target in self._searches:
            seen = self.searches_seen.setdefault(target, [])
            if not seen or seen[-1] is not self._searches[target]:
                seen.append(self._searches[target])
        return path


@st.composite
def _path_scenario(draw):
    count = draw(st.integers(min_value=3, max_value=9))
    names = [f"n{i}" for i in range(count)]
    # Mostly a lattice a little over half a radius apart, so that paths of
    # several hops, with and without adversarial relays, are common.
    spot = st.one_of(st.integers(min_value=0, max_value=4).map(lambda k: 60.0 * k), st.floats(0.0, 240.0))
    step = st.sampled_from([-60.0, 0.0, 60.0])
    moving = draw(st.booleans())
    nodes = []
    for name in names:
        trace = [(draw(spot), draw(spot))]
        for dx, dy in draw(st.lists(st.tuples(step, step), max_size=12)) if moving else ():
            trace.append((trace[-1][0] + dx, trace[-1][1] + dy))
        nodes.append(NodeSpec(name, trace, draw(st.floats(min_value=0.1, max_value=1.0))))
    kinds = st.sampled_from(["mitm_relay", "drop_all", "impersonate", "replay"])
    placed = draw(st.lists(st.sampled_from(names[1:]), unique=True, max_size=count // 2))
    adversaries = [AdversarySpec(draw(kinds), ("node", name)) for name in placed]
    honest = [name for name in names if name not in placed]
    tick = st.integers(min_value=1, max_value=24)
    script = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        op = draw(st.sampled_from(["crash", "session", "discover", "forged_join"]))
        if op == "crash":
            script.append(Action(draw(tick), op, (draw(st.sampled_from(names)),)))
        elif op == "forged_join" and placed:
            script.append(Action(draw(tick), op, (draw(st.sampled_from(placed)), "g1")))
        elif op in ("session", "discover") and len(honest) > 1:
            a, b = draw(st.lists(st.sampled_from(honest), min_size=2, max_size=2, unique=True))
            script.append(Action(draw(tick), op, (a, b)))
    script.sort(key=lambda action: action.tick)
    params = SimParams(radio_radius=110.0, heartbeat_period=3, liveness_deadline=9, duration=28)
    return Scenario(
        seed=draw(st.integers(min_value=0, max_value=1000)),
        nodes=nodes,
        groups=[GroupSpec("g1", count + 2, honest)],
        params=params,
        script=script,
        adversaries=adversaries,
    )


def _bridged(kind):
    """Members A and B, 200 apart, bridged only by an adversarial node X of
    `kind`; C, beside A, crashes at tick 4."""
    nodes = [NodeSpec("A", [(0.0, 0.0)]), NodeSpec("X", [(100.0, 0.0)]), NodeSpec("B", [(200.0, 0.0)]),
             NodeSpec("C", [(0.0, 100.0)], 0.9)]
    return Scenario(
        seed=1,
        nodes=nodes,
        groups=[GroupSpec("g1", 6, ["A", "B", "C"])],
        params=SimParams(radio_radius=110.0, heartbeat_period=3, duration=8),
        script=[Action(4, "crash", ("C",)), Action(5, "forged_join", ("X", "g1"))],
        adversaries=[AdversarySpec(kind, ("node", "X"))],
    )


def _walking_grid():
    """A 3x3 grid 100 apart whose nodes all walk within 30 of their points
    every tick; n4, in the middle, leads, and every member sends it a
    heartbeat every other tick, a corner's often over two hops with a choice
    of relays."""
    offsets = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (-30.0, 0.0), (0.0, -30.0), (30.0, 30.0), (-30.0, -30.0)]
    nodes = []
    for i in range(9):
        x, y = 100.0 * (i % 3), 100.0 * (i // 3)
        trace = [(x + offsets[(i + t) % 7][0], y + offsets[(2 * i + t) % 7][1]) for t in range(14)]
        nodes.append(NodeSpec(f"n{i}", trace, 1.0 if i == 4 else 0.3))
    return Scenario(
        seed=3,
        nodes=nodes,
        groups=[GroupSpec("g1", 11, [node.name for node in nodes])],
        params=SimParams(radio_radius=140.0, heartbeat_period=2, liveness_deadline=9, duration=13),
    )


def _crash_between_senders():
    """P and Q both reach L only through R.  At tick 6, P opens a session
    with L, R crashes, then Q opens one: Q's search toward L must not be
    the one P's session used."""
    nodes = [NodeSpec("L", [(0.0, 0.0)], 1.0), NodeSpec("R", [(100.0, 0.0)], 0.3),
             NodeSpec("P", [(200.0, 0.0)], 0.3), NodeSpec("Q", [(150.0, 80.0)], 0.3)]
    return Scenario(
        seed=2,
        nodes=nodes,
        groups=[GroupSpec("g1", 6, ["L", "P", "Q", "R"])],
        params=SimParams(radio_radius=110.0, heartbeat_period=3, duration=9),
        script=[Action(6, "session", ("P", "L")), Action(6, "crash", ("R",)), Action(6, "session", ("Q", "L"))],
    )


def _forged_join_far():
    """X, which cannot relay, sends a forged join to the leader L three hops
    away, X-M-N-L.  D, a dropper that cannot relay either, is as near to L
    as M and sorts before it."""
    nodes = [NodeSpec("X", [(0.0, 0.0)]), NodeSpec("D", [(100.0, 40.0)]), NodeSpec("M", [(100.0, 0.0)], 0.3),
             NodeSpec("N", [(200.0, 0.0)], 0.3), NodeSpec("L", [(300.0, 0.0)], 1.0)]
    return Scenario(
        seed=4,
        nodes=nodes,
        groups=[GroupSpec("g1", 6, ["L", "M", "N"])],
        params=SimParams(radio_radius=110.0, heartbeat_period=3, duration=12),
        script=[Action(2, "forged_join", ("X", "g1"))],
        adversaries=[AdversarySpec("impersonate", ("node", "X")), AdversarySpec("drop_all", ("node", "D"))],
    )


@settings(max_examples=120, deadline=None)
@given(_path_scenario())
@example(_bridged("drop_all"))
@example(_bridged("mitm_relay"))
@example(_walking_grid())
@example(_crash_between_senders())
@example(_forged_join_far())
def test_kept_path_searches_equal_fresh_searches(scenario):
    _CheckedPaths(scenario).run()


def test_static_run_keeps_one_path_search_per_addressee():
    # No node moves or dies, so the search rooted at an addressee serves
    # every sender that addresses it for the rest of the run, founding
    # keysets included.
    sim = _CheckedPaths(line_scenario(["A", "B", "C", "D", "E"], duration=40))
    sim.run()
    relayed = [(tick, source, target) for tick, source, target, path in sim.paths if path is not None and len(path) > 2]
    addressees = {target for _, _, target in relayed}
    assert len(addressees) >= 2 and len({tick for tick, _, _ in relayed}) >= 2
    assert any(len({source for _, source, t in relayed if t == target}) >= 2 for target in addressees)
    assert len(sim._searches) == len(addressees)
    for target in addressees:
        assert len(sim.searches_seen[target]) == 1 and sim.searches_seen[target][0] is sim._searches[target]


class _CheckedReach(Simulation):
    """Checks every node's reach row against an all-pairs distance test at
    the start of each tick of a real run, after the run loop has decided
    whether the rows of earlier ticks still hold."""

    def _drain_taps(self):
        r = self.params.radio_radius
        where = {name: spec.trace[min(self.now, len(spec.trace) - 1)] for name, spec in self.specs.items()}
        for name, (ax, ay) in where.items():
            brute = [v for v in self.nodes if v != name and math.hypot(ax - where[v][0], ay - where[v][1]) <= r]
            assert self._neighbours(name) == brute, (self.now, name)
        super()._drain_taps()


# Coordinates in half radii put pairs exactly one radius apart, along an
# axis and across a cell boundary (-r/2 and r/2 straddle 0); the free ones
# add negative and irregular positions.  A hair below zero, -1e-300 and r
# are one radius apart in floating point yet straddle two cell boundaries
# of side r; a radius of 1e-300 beside a coordinate of 1e10 overflows x / r.
_RADII = st.sampled_from([0.3, 7.5, 100.0, 110.0, 130.0, 1e4])


@st.composite
def _reach_scenario(draw):
    radius = draw(_RADII)
    coordinate = st.one_of(
        st.integers(min_value=-8, max_value=8).map(lambda k: k * radius / 2),
        st.just(-1e-300),
        st.floats(min_value=-3 * radius, max_value=3 * radius, allow_nan=False),
    )
    point = st.tuples(coordinate, coordinate)
    traces = draw(st.lists(st.lists(point, min_size=1, max_size=5), min_size=2, max_size=9))
    nodes = [NodeSpec(f"n{i}", trace) for i, trace in enumerate(traces)]
    duration = max(len(trace) for trace in traces) + 1
    return Scenario(seed=1, nodes=nodes, groups=[], params=SimParams(radio_radius=radius, duration=duration))


def _still(radius, *points):
    nodes = [NodeSpec(f"n{i}", [p]) for i, p in enumerate(points)]
    return Scenario(seed=1, nodes=nodes, groups=[], params=SimParams(radio_radius=radius, duration=2))


@settings(max_examples=150, deadline=None)
@given(_reach_scenario())
@example(_still(100.0, (-1e-300, 0.0), (100.0, 0.0), (0.0, -1e-300), (0.0, 100.0)))
@example(_still(100.0, (-50.0, 0.0), (50.0, 0.0), (0.0, -50.0), (0.0, 50.0), (150.0, 0.0), (-150.0, 0.0)))
@example(_still(0.3, (-0.15, -0.15), (0.15, -0.15), (-0.15, 0.15), (0.45, 0.15), (-0.45, -0.45)))
@example(_still(1e-300, (0.0, 0.0), (1e-300, 0.0), (1e10, -1e10)))
@example(_still(130.0, (-1e6, -1e6), (-1e6 + 130.0, -1e6), (1e6, 1e6), (1e6 - 130.0, 1e6)))
def test_reach_rows_equal_all_pairs_distance_test(scenario):
    _CheckedReach(scenario).run()


def test_static_run_tests_each_pair_at_most_once(monkeypatch):
    # No node moves, so the rows of tick 0 serve the whole run: radio reach
    # costs at most one distance test per ordered pair.
    calls = []
    in_range = Simulation._in_range

    def counted(self, a, b):
        calls.append((a, b))
        return in_range(self, a, b)

    monkeypatch.setattr(Simulation, "_in_range", counted)
    names = ["A", "B", "C", "D", "E"]
    log = run(
        line_scenario(
            names,
            script=[Action(2, "discover", ("A", "E")), Action(15, "send_data", ("A", "*", "hi"))],
            duration=40,
        )
    )
    assert verdicts(log, "A", "route_installed:dest=E")
    assert 0 < len(calls) == len(set(calls)) <= len(names) * (len(names) - 1)


def test_leader_unicast_to_itself_is_delivered():
    # A leader opening a session with a node outside its group asks its
    # leader, itself, for the peer's key: a zero-hop unicast that arrives
    # next tick like any one-hop message.
    scenario, _, dest = two_group_scenario(seed=1)
    scenario.script.append(Action(20, "session", ("a1", dest)))
    log = run(scenario)
    assert ("a1", "group=g1:cause=founding") in [(e.principals, e.detail) for e in log.events if e.kind == "elect"]
    query = next(e for e in log.events if e.kind == "send" and e.detail.startswith("PUBKEY_QUERY:to=a1:"))
    tx = query.detail.rsplit("tx=", 1)[1]
    assert not [e for e in log.events if e.kind == "drop" and e.detail.endswith(f":tx={tx}")]
    delivered = [e for e in log.events if e.kind == "deliver" and e.detail == f"PUBKEY_QUERY:hops=1:tx={tx}"]
    assert [(e.tick, e.principals) for e in delivered] == [(query.tick + 1, "a1>a1")]


def test_each_message_encoded_once(monkeypatch):
    import manetsec.messages as messages

    encoded = []  # holding the messages keeps their ids unique
    original = messages.encode_message

    def counting(message):
        encoded.append(message)
        return original(message)

    monkeypatch.setattr(messages, "encode_message", counting)
    log = run(churn_scenario(500))
    assert len({id(m) for m in encoded}) == len(encoded)
    # Every encoding is a logged payload and every payload came from one.
    assert {m.encoded for m in encoded} == set(log.payloads.values())


def test_each_payload_hashed_once(monkeypatch):
    from manetsec.crypto import DeterministicProvider
    from manetsec.sim import Simulation

    logging, hashed = [], []
    original_log, original_hash = Simulation._log, DeterministicProvider.hash

    def log_step(self, *args, **kwargs):
        logging.append(True)
        try:
            return original_log(self, *args, **kwargs)
        finally:
            logging.pop()

    def counting(self, data):
        if logging:
            hashed.append(data)
        return original_hash(self, data)

    monkeypatch.setattr(Simulation, "_log", log_step)
    monkeypatch.setattr(DeterministicProvider, "hash", counting)
    log = run(churn_scenario(500))
    assert len(hashed) == len(log.payloads)
    assert set(hashed) == set(log.payloads.values())


def test_leader_opens_each_session1_once(monkeypatch):
    from manetsec.crypto import DeterministicProvider
    from manetsec.messages import MessageKind, decode_message

    opened = []
    original = DeterministicProvider.pk_decrypt

    def counting(self, private, ciphertext):
        opened.append(ciphertext)
        return original(self, private, ciphertext)

    monkeypatch.setattr(DeterministicProvider, "pk_decrypt", counting)
    # A, the best-charged node of the line, leads; B opens a session with it.
    log = run(line_scenario(["A", "B", "C"], script=[Action(3, "session", ("B", "A"))], duration=20))
    firsts = [
        m for m in map(decode_message, log.payloads.values()) if m.kind == MessageKind.SESSION_1
    ]
    assert len(firsts) == 1
    assert opened.count(firsts[0]["sealed"]) == 1
    confirms = [e.principals for e in log.events if e.detail == "session_confirmed"]
    assert confirms == ["A:B-A", "B:B-A"]


def test_scripted_expel_removes_member_and_rekeys():
    # A, the best-charged node of the line, founds and leads the group.
    scenario = line_scenario(["A", "B", "C", "D"], script=[Action(5, "expel", ("A", "C"))], duration=30)
    log = run(scenario)
    assert [e.principals for e in log.events if e.kind == "elect"] == ["A"]
    removals = [(e.tick, e.principals, e.detail) for e in log.events if e.kind == "remove"]
    assert removals == [(5, "A:C", "misbehavior")]
    rekeys = [e.detail for e in log.events if e.kind == "rekey" and e.tick == 5]
    assert rekeys == ["leave:lineage=g1-1:epoch=2"]
    assert audit(log).passed


def test_scripted_expel_by_non_leader_is_logged():
    scenario = line_scenario(["A", "B", "C", "D"], script=[Action(5, "expel", ("B", "C"))], duration=20)
    log = run(scenario)
    assert not [e for e in log.events if e.kind == "remove"]
    alerts = [(e.principals, e.detail) for e in log.events if e.kind == "alert"]
    assert alerts == [("B", "expel_failed:not_leader:C")]


def test_heartbeat_keeps_connected_members_alive():
    log = run(line_scenario(["A", "B", "C", "D"], duration=80))
    assert not [e for e in log.events if e.kind == "remove"]


def test_drifting_node_times_out_and_is_removed():
    # D wanders far outside everyone's reach and goes silent.
    trace = [(300.0, 0.0)] * 10 + [(2000.0, 2000.0)]
    scenario = line_scenario(["A", "B", "C"], duration=80)
    scenario.nodes.append(NodeSpec("D", trace, 0.5))
    scenario.groups[0].members.append("D")
    log = run(scenario)
    removals = [e for e in log.events if e.kind == "remove" and e.principals.endswith(":D")]
    assert removals and removals[0].detail == "silent_timeout"
    rekeys = [e for e in log.events if e.kind == "rekey" and e.detail.startswith("leave")]
    assert rekeys
    assert audit(log).passed


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------


def test_stealth_link_relay_rejected_at_destination():
    log = run(stealth_link_scenario(seed=5))
    rejects = verdicts(log, "D", "reject:chain_mismatch")
    assert len(rejects) == 1
    assert not verdicts(log, "D", "accept:")
    assert not verdicts(log, "S", "route_installed")
    assert audit(log).passed


def test_stealth_node_relay_rejected_at_destination():
    log = run(stealth_node_scenario(seed=6))
    assert verdicts(log, "D", "reject:chain_mismatch")
    assert not verdicts(log, "D", "accept:")
    assert audit(log).passed


def test_clean_variant_installs_route():
    log = run(stealth_link_scenario(seed=5, with_adversary=False))
    assert verdicts(log, "D", "accept:")
    assert verdicts(log, "S", "route_installed:dest=D")
    assert audit(log).passed


def test_field_mutating_adversary_detected():
    scenario = line_scenario(
        ["S", "A", "B", "D"],
        script=[Action(2, "discover", ("S", "D"))],
        adversaries=[AdversarySpec("modify_field", ("link", "A", "B"), {"field": "seq", "op": "add", "value": 1})],
        duration=20,
    )
    log = run(scenario)
    assert not verdicts(log, "D", "accept:")
    assert audit(log).passed


def test_route_list_swap_detected():
    scenario = line_scenario(
        ["S", "A", "B", "D"],
        script=[Action(2, "discover", ("S", "D"))],
        adversaries=[AdversarySpec("modify_field", ("link", "B", "D"), {"field": "route", "op": "swap"})],
        duration=20,
    )
    log = run(scenario)
    assert not verdicts(log, "D", "accept:")
    rejected = verdicts(log, "D", "reject:") + [
        e for e in log.events if e.kind == "verdict" and "rreq_discard" in e.detail
    ]
    assert rejected


def test_dropping_adversary_blackholes_link():
    scenario = line_scenario(
        ["S", "A", "B", "D"],
        script=[Action(2, "discover", ("S", "D"))],
        adversaries=[AdversarySpec("drop_all", ("link", "A", "B"))],
        duration=20,
    )
    log = run(scenario)
    assert not verdicts(log, "D", "accept:")
    assert not verdicts(log, "D", "reject:")  # nothing ever arrived


def test_replayed_request_suppressed_by_dedup():
    scenario = line_scenario(
        ["S", "A", "B", "D"],
        script=[Action(2, "discover", ("S", "D"))],
        adversaries=[AdversarySpec("replay", ("link", "S", "A"), {"delay": 6})],
        duration=25,
    )
    log = run(scenario)
    assert len(verdicts(log, "D", "accept:")) == 1
    duplicates = [e for e in log.events if e.kind == "drop" and e.detail.startswith("duplicate")]
    assert duplicates  # the replayed copy died at the first honest hop
    report = audit(log)
    assert report.result("duplicate_suppression").passed
    assert report.passed


def test_mitm_relay_learns_no_keys_from_join():
    nodes = [
        NodeSpec("L", [(0.0, 0.0)], 1.0),
        NodeSpec("M", [(100.0, 0.0)], 0.8),
        NodeSpec("X", [(50.0, 50.0)], 0.5),
        NodeSpec("N", [(0.0, 100.0)], 0.6),
    ]
    scenario = Scenario(
        seed=31,
        nodes=nodes,
        groups=[GroupSpec("g1", 8, ["L", "M"])],
        params=SimParams(radio_radius=130.0, duration=30),
        script=[Action(2, "join", ("N", "g1"))],
        adversaries=[AdversarySpec("mitm_relay", ("node", "X"))],
    )
    log = run(scenario)
    assert [e for e in log.events if e.kind == "admit" and e.detail == "handshake"]
    k = knowledge_set("X", log)
    assert k.sym_keys == {}
    assert k.opened == set()
    assert audit(log).passed


def test_eavesdropper_sees_only_ciphertexts():
    scenario = line_scenario(
        ["S", "A", "B"],
        script=[Action(3, "send_data", ("S", "*", "secret")), Action(6, "send_data", ("A", "*", "more"))],
        duration=15,
    )
    scenario.nodes.append(NodeSpec("E", [(50.0, 50.0)], 0.5))
    scenario.adversaries.append(AdversarySpec("drop_all", ("node", "E")))
    log = run(scenario)
    k = knowledge_set("E", log)
    heard = [e for e in log.events if e.kind == "deliver" and e.principals.endswith(">E")]
    assert heard  # it was in range of the chatter
    assert k.opened == set() and k.sym_keys == {}


def test_departed_member_knowledge_is_frozen():
    scenario = line_scenario(
        ["L", "M1", "M2"],
        script=[
            Action(5, "send_data", ("M1", "*", "one")),
            Action(10, "leave", ("M2",)),
            Action(20, "send_data", ("M1", "*", "two")),
        ],
        duration=30,
    )
    log = run(scenario)
    k = knowledge_set("M2", log)
    labels = sorted(v for v in k.sym_keys.values() if v.startswith("group_key"))
    assert labels == ["group_key:g1-1:1"]


# ---------------------------------------------------------------------------
# Leadership
# ---------------------------------------------------------------------------


def test_leader_leave_triggers_election_and_new_lineage():
    scenario = line_scenario(["A", "B", "C"], script=[Action(5, "leave", ("A",))], duration=60)
    # Founding battery ordering makes A the first leader.
    scenario.nodes[0].battery = 1.0
    log = run(scenario)
    elects = [e for e in log.events if e.kind == "elect"]
    assert len(elects) == 2
    assert elects[1].principals in ("B", "C")
    lineages = {
        e.detail.split("lineage=")[1].split(":")[0]
        for e in log.events
        if e.kind == "rekey" and "lineage=" in e.detail
    }
    assert lineages == {"g1-1", "g1-2"}
    assert audit(log).passed


def test_leader_crash_detected_by_beacon_silence():
    scenario = line_scenario(["A", "B", "C"], script=[Action(5, "crash_leader", ("g1",))], duration=80)
    scenario.nodes[0].battery = 1.0
    log = run(scenario)
    elects = [e for e in log.events if e.kind == "elect"]
    assert len(elects) == 2
    crash_tick = next(e.tick for e in log.events if e.detail == "node_crashed")
    assert elects[1].tick > crash_tick
    assert audit(log).passed


def test_old_leader_cannot_read_new_lineage():
    scenario = line_scenario(
        ["A", "B", "C"],
        script=[
            Action(5, "crash_leader", ("g1",)),
            Action(50, "send_data", ("C", "*", "post-crash")),
        ],
        duration=70,
    )
    scenario.nodes[0].battery = 1.0
    log = run(scenario)
    old = knowledge_set("A", log)
    assert not old.has_key_labelled("group_key:g1-2")
    assert audit(log).passed


def test_single_member_group_dissolves():
    scenario = line_scenario(["A", "B"], script=[Action(5, "crash_leader", ("g1",)), Action(40, "leave", ("B",))], duration=90)
    scenario.nodes[0].battery = 1.0
    log = run(scenario)
    # B becomes leader of a one-node group; when it leaves there is nobody.
    dissolved = [e for e in log.events if e.kind == "alert" and e.detail == "group_dissolved"]
    elects = [e for e in log.events if e.kind == "elect"]
    assert len(elects) == 2
    assert dissolved


def test_capacity_join_rejected():
    scenario = line_scenario(["A", "B"], script=[Action(3, "join", ("N", "g1"))], duration=25)
    scenario.groups[0].capacity = 2
    scenario.nodes.append(NodeSpec("N", [(50.0, 40.0)], 0.5))
    log = run(scenario)
    assert verdicts(log, None, "join_rejected:capacity")
    assert not [e for e in log.events if e.kind == "admit" and e.detail == "handshake"]


# ---------------------------------------------------------------------------
# Cross-group
# ---------------------------------------------------------------------------


def test_two_group_composed_route():
    scenario, source, dest = two_group_scenario(seed=3)
    log = run(scenario)
    installs = verdicts(log, source, f"route_installed:dest={dest}")
    assert installs and installs[0].detail.endswith(":composed")
    assert audit(log).passed


def test_unknown_destination_gets_negative_reply():
    scenario, source, _ = two_group_scenario(seed=4)
    scenario.nodes.append(NodeSpec("zz", [(900.0, 900.0)], 0.5))
    scenario.script = [Action(3, "discover", (source, "zz"))]
    log = run(scenario)
    assert verdicts(log, source, "no_route:dest=zz")


def test_cross_group_rreq_discarded_by_foreign_member():
    # Push the two clusters close enough that broadcasts leak across.
    scenario, source, dest = two_group_scenario(seed=5)
    for spec in scenario.nodes:
        if spec.name.startswith("b"):
            spec.trace = [(spec.trace[0][0] - 180.0, spec.trace[0][1])]
    log = run(scenario)
    foreign = [e for e in log.events if e.kind == "drop" and "foreign_group" in e.detail]
    assert foreign
    # No foreign node ever processed the request as its own group traffic.
    group_of = {}
    for spec in scenario.groups:
        for member in spec.members:
            group_of[member] = spec.group_id
    for event in log.events:
        if event.kind == "verdict" and event.detail.startswith("rreq_processed:source="):
            processor = event.principals.split(":", 1)[0]
            origin = event.detail.split("source=")[1].split(":")[0]
            assert group_of[processor] == group_of[origin]


# ---------------------------------------------------------------------------
# Real crypto provider
# ---------------------------------------------------------------------------


def test_real_provider_end_to_end():
    scenario = stealth_link_scenario(seed=3)
    scenario.provider_name = "real_crypto"
    log = run(scenario)
    assert verdicts(log, "D", "reject:chain_mismatch")
    assert audit(log).passed


def test_real_provider_is_deterministic_too():
    scenario = stealth_link_scenario(seed=3)
    scenario.provider_name = "real_crypto"
    assert run(scenario).to_text() == run(scenario).to_text()


# ---------------------------------------------------------------------------
# Interception semantics
# ---------------------------------------------------------------------------


def test_adversary_apply_semantics(rng):
    import random

    from manetsec.crypto import DeterministicProvider
    from manetsec.keymgmt import CertificateAuthority
    from manetsec.routing import make_rreq
    from manetsec.sim import adversary_apply

    provider = DeterministicProvider()
    r = random.Random(1)
    pair = provider.generate_keypair(r)
    request = make_rreq(provider, pair, "S", "D", 1, 8)

    outcome, relayed = adversary_apply("mitm_relay", {}, request, r)
    assert outcome == "forward" and relayed["lifetime"] == 7
    assert relayed["chain"] == request["chain"]  # nothing else touched

    outcome, _ = adversary_apply("drop_all", {}, request, r)
    assert outcome == "drop"

    outcome, mutated = adversary_apply(
        "modify_field", {"field": "seq", "op": "add", "value": 1}, request, r
    )
    assert outcome == "mutate" and mutated["seq"] == 2

    outcome, same = adversary_apply("replay", {"delay": 3}, request, r)
    assert outcome == "forward" and same == request

    exhausted = request.replace(lifetime=0)
    outcome, _ = adversary_apply("mitm_relay", {}, exhausted, r)
    assert outcome == "drop"


# ---------------------------------------------------------------------------
# Configuration variants
# ---------------------------------------------------------------------------


def test_multi_round_challenge_join():
    scenario = line_scenario(["L", "M"], seed=44, script=[Action(3, "join", ("N", "g1"))], duration=30)
    scenario.params.challenge_rounds = 3
    scenario.params.challenge_bits = 1
    scenario.nodes.append(NodeSpec("N", [(50.0, 40.0)], 0.5))
    log = run(scenario)
    assert [e for e in log.events if e.kind == "admit" and e.detail == "handshake"]
    params_msgs = [
        e for e in log.events if e.kind == "send" and e.detail.startswith("ZK_PARAMS")
    ]
    assert params_msgs
    from manetsec.messages import decode_message

    message = decode_message(log.payloads[params_msgs[0].digest])
    assert len(message["commitments"]) == 3
    assert audit(log).passed


def test_impostor_with_random_strategy_fails_soundness():
    scenario = line_scenario(
        ["L", "M"],
        seed=45,
        script=[Action(5, "join_via", ("N", "X"))],
        duration=30,
    )
    scenario.nodes.append(NodeSpec("N", [(50.0, 40.0)], 0.5))
    scenario.nodes.append(NodeSpec("X", [(60.0, 60.0)], 0.5))
    scenario.adversaries.append(
        AdversarySpec("impersonate", ("node", "X"), {"strategy": "random"})
    )
    log = run(scenario)
    aborts = verdicts(log, "N", "join_abort:leader_unauthenticated")
    assert aborts
    assert not [e for e in log.events if e.kind == "admit" and e.detail == "handshake"]


def test_probabilistic_dropper_loses_some_heartbeats():
    scenario = line_scenario(
        ["A", "B"],
        seed=46,
        adversaries=[AdversarySpec("drop_probabilistic", ("link", "A", "B"), {"p": 0.5})],
        duration=60,
    )
    log = run(scenario)
    drops = [e for e in log.events if e.kind == "deliver" and ">tap0" in e.principals]
    assert drops  # the tap owned the link and saw traffic


def test_confirmed_session_survives_rekey():
    scenario = line_scenario(
        ["L", "M1", "M2"],
        seed=47,
        script=[
            Action(3, "session", ("M1", "M2")),
            Action(20, "leave", ("M2",)),  # forces a rekey
        ],
        duration=40,
    )
    log = run(scenario)
    confirms = [
        e for e in log.events if e.kind == "verdict" and e.detail.startswith("session_confirmed")
    ]
    assert len(confirms) == 2
    rekeys = [e for e in log.events if e.kind == "rekey" and e.detail.startswith("leave")]
    assert rekeys and rekeys[0].tick > confirms[-1].tick


# ---------------------------------------------------------------------------
# Ill-shaped values
# ---------------------------------------------------------------------------


def test_mutations_leave_empty_values_unchanged(rng):
    from manetsec.messages import MessageKind, msg
    from manetsec.node import mutate_message

    rreq = msg(MessageKind.RREQ, source="S", dest="D", seq=1, lifetime=3, route=[], sigs=[], chain=b"")
    for fieldname, op in (("chain", "flip"), ("chain", "flipbit"), ("sigs", "flip_item"), ("route", "dup_last")):
        assert mutate_message(rreq, fieldname, op, None, rng)[fieldname] == rreq[fieldname]


def test_broadcast_data_through_dup_last_tap_runs():
    # A broadcast DATA carries route=[]; the tap has no last hop to repeat.
    scenario = line_scenario(
        ["A", "B"],
        script=[Action(2, "send_data", ("A", "*"))],
        adversaries=[AdversarySpec("modify_field", ("link", "A", "B"), {"field": "route", "op": "dup_last"})],
        duration=10,
    )
    log = run(scenario)
    tapped = [e for e in log.events if e.kind == "deliver" and ">tap0" in e.principals]
    assert [e for e in tapped if e.detail.startswith("DATA")]
    assert audit(log).passed


@pytest.mark.parametrize("modulus", [0, 1, 3])
def test_joiner_aborts_on_degenerate_zk_modulus(modulus):
    # N hears the leader only through the tap, which rewrites the modulus.
    scenario = line_scenario(
        ["L", "M"],
        seed=44,
        script=[Action(3, "join", ("N", "g1"))],
        adversaries=[
            AdversarySpec("modify_field", ("link", "L", "N"), {"field": "modulus", "op": "set", "value": modulus})
        ],
        duration=30,
    )
    scenario.nodes.append(NodeSpec("N", [(-60.0, 0.0)], 0.5))
    log = run(scenario)
    assert verdicts(log, "N", "join_abort:bad_zk_params")
    assert not verdicts(log, "N", "zk_ok")
    assert not [e for e in log.events if e.kind == "admit" and e.detail == "handshake"]
