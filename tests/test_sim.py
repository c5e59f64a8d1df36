import math
import re
from dataclasses import fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import corpus
from manetsec.audit import audit, knowledge_set
from manetsec.crypto import make_provider
from manetsec.group import NodeAttributes, WeightConfig, mobility, weight
from manetsec.messages import BROADCAST, Envelope, Message, MessageKind, decode_message, encode_message, msg
from manetsec.node import AdversaryNode, ProtocolNode
from manetsec.runtime import render_detail
from manetsec.scenariofile import parse_scenario
from manetsec.sim import (
    EVENT_KINDS,
    LOG_FOOTER,
    LOG_HEADER,
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
    held_labels,
    line_scenario,
    placed,
    stealth_link_scenario,
    stealth_node_scenario,
    two_group_scenario,
    verdicts,
    workloads,
)


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
    params.heartbeat_period = 1
    params.freshness_window = 0
    assert validate_scenario(scenario) == []


def test_validation_rejects_a_liveness_deadline_shorter_than_the_heartbeat_period():
    # A leader would drop every member before its first beat could arrive.
    scenario = line_scenario(["A", "B"])
    scenario.params.heartbeat_period, scenario.params.liveness_deadline = 30, 3
    assert validate_scenario(scenario) == ["liveness_deadline 3 is shorter than the heartbeat_period 30"]
    scenario.params.liveness_deadline = 30
    assert validate_scenario(scenario) == []


def test_validation_rejects_bad_weights():
    scenario = line_scenario(["A", "B"], weights=WeightConfig.__new__(WeightConfig))
    object.__setattr__(scenario.weights, "w0", 0.5)
    object.__setattr__(scenario.weights, "w1", 0.3)
    object.__setattr__(scenario.weights, "w2", 0.3)
    problems = "\n".join(validate_scenario(scenario))
    assert "w0 + w1 + w2 = 1" in problems


def test_validation_rejects_adversarial_group_member():
    scenario = line_scenario(
        ["A", "B"], adversaries=[AdversarySpec("mitm_relay", ("node", "B"))]
    )
    problems = "\n".join(validate_scenario(scenario))
    assert "adversarial node B" in problems


@pytest.mark.parametrize(
    "placements, problem",
    [
        ([("link", "A")], "adversary 0: placement ('link', 'A') is neither ('node', NAME) nor ('link', U, V)"),
        (
            [("link", "A", "B", "C")],
            "adversary 0: placement ('link', 'A', 'B', 'C') is neither ('node', NAME) nor ('link', U, V)",
        ),
        ([("node",)], "adversary 0: placement ('node',) is neither ('node', NAME) nor ('link', U, V)"),
        ([()], "adversary 0: unknown placement kind None"),
        ([("node", "C"), ("node", "C")], "adversary 1: node C already has an adversary"),
        ([("link", "A", "C"), ("link", "C", "A")], "adversary 1: link C-A already has an adversary"),
        ([("link", "A", "A")], "adversary 0: link A-A joins a node to itself"),
    ],
)
def test_validation_rejects_malformed_and_doubled_placements(placements, problem):
    # A malformed placement would crash the run; a second adversary on one
    # node or link, or one on a link from a node to itself, would never act.
    adversaries = [AdversarySpec("drop_all", placement) for placement in placements]
    scenario = line_scenario(["A", "B"], adversaries=adversaries)
    scenario.nodes.append(NodeSpec("C", [(50.0, 60.0)], 0.5))
    assert validate_scenario(scenario) == [problem]



@pytest.mark.parametrize(
    "placements, names, problems",
    [
        ([("link", "A", "B")], ["A", "B", "tap0"], ["adversary 0: its link tap is named 'tap0', like a node"]),
        (
            [("node", "C"), ("link", "A", "B")],
            ["A", "B", "tap1"],
            ["adversary 1: its link tap is named 'tap1', like a node"],
        ),
        # A node adversary makes no tap, so its position names none.
        ([("node", "C"), ("link", "A", "B")], ["A", "B", "tap0"], []),
    ],
)
def test_validation_rejects_a_node_named_like_a_link_tap(placements, names, problems):
    # The link adversary at position i of the scenario's adversaries is the
    # pseudo-principal `tap{i}`; a node of that name would be handed the
    # tap's copies and be both an honest node and a tap to the audit.
    scenario = line_scenario(names, adversaries=[AdversarySpec("drop_all", where) for where in placements])
    scenario.nodes.append(NodeSpec("C", [(50.0, 60.0)], 0.5))
    assert validate_scenario(scenario) == problems

@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda s: setattr(s.groups[0], "members", []), "group g1: needs at least one member"),
        (lambda s: setattr(s.groups[0], "group_id", 7), "groups[0].group_id must be a string, not 7"),
        (lambda s: setattr(s.groups[0], "capacity", "8"), "groups[0].capacity must be an integer, not '8'"),
        (lambda s: setattr(s.groups[0], "capacity", 2.5), "groups[0].capacity must be an integer, not 2.5"),
        (lambda s: setattr(s.nodes[0], "battery", "x"), "nodes[0].battery must be a number, not 'x'"),
        (
            lambda s: (setattr(s.nodes[0], "name", 5), s.groups[0].members.remove("A")),
            "nodes[0].name must be a string, not 5",
        ),
        (
            lambda s: setattr(s.nodes[0], "trace", [(0.0, 0.0, 1.0)]),
            "node A: trace point (0.0, 0.0, 1.0) is not an (x, y) pair of finite numbers",
        ),
        (
            lambda s: setattr(s.nodes[0], "trace", [(0.0, math.nan)]),
            "node A: trace point (0.0, nan) is not an (x, y) pair of finite numbers",
        ),
        (
            lambda s: setattr(s.nodes[0], "trace", None),
            "nodes[0].trace must be a list, not None",
        ),
        (
            lambda s: setattr(s.groups[0], "members", None),
            "groups[0].members must be a list, not None",
        ),
        (lambda s: s.script.append(Action(1, "leave", None)), "script[0].args must be a tuple, not None"),
        (
            lambda s: s.expectations.append(Expectation("admitted", None)),
            "expectations[0].args must be a tuple, not None",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("drop_all", ("link", "A", "B"), None)),
            "adversaries[0].args must be a dict, not None",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("replay", ("link", "A", "B"), {"dealy": 3})),
            "adversary 0: replay reads no argument 'dealy'",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("drop_all", ("link", "A", "B"), {"p": 0.5})),
            "adversary 0: drop_all reads no argument 'p'",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("mitm_relay", ("link", "A", "B"), {"delay": 1})),
            "adversary 0: mitm_relay reads no argument 'delay'",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("impersonate", ("link", "A", "B"), {"p": 0.5})),
            "adversary 0: impersonate reads no argument 'p'",
        ),
        (
            lambda s: s.adversaries.append(
                AdversarySpec("modify_field", ("link", "A", "B"), {"field": "seq", "op": "add", "value": 1, "vlaue": 2})
            ),
            "adversary 0: modify_field reads no argument 'vlaue'",
        ),
        *(
            (lambda s, name=name: setattr(s, name, None), f"{name} must be {what}, not None")
            for name, what in (
                ("nodes", "a list"),
                ("groups", "a list"),
                ("script", "a list"),
                ("adversaries", "a list"),
                ("expectations", "a list"),
                ("params", "a SimParams"),
                ("weights", "a WeightConfig"),
            )
        ),
        (lambda s: s.nodes.append(None), "nodes[2] must be a NodeSpec, not None"),
        (lambda s: setattr(s, "provider_name", ["test"]), "provider_name must be a string, not ['test']"),
        (
            lambda s: s.adversaries.append(AdversarySpec("drop_all", None)),
            "adversaries[0].placement must be a tuple, not None",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("drop_all", ("node", ["A"]))),
            "adversaries[0].placement[1] must be a string, not ['A']",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec(["drop_all"], ("link", "A", "B"))),
            "adversaries[0].kind must be a string, not ['drop_all']",
        ),
        (lambda s: s.script.append(Action(1, ["leave"], ("A",))), "script[0].op must be a string, not ['leave']"),
        (lambda s: s.script.append(Action(1, "leave", (["A"],))), "script[0].args[0] must be a string, not ['A']"),
        (
            lambda s: s.expectations.append(Expectation(["route"], ("A", "B"))),
            "expectations[0].kind must be a string, not ['route']",
        ),
        (lambda s: s.groups[0].members.append(["B"]), "groups[0].members[2] must be a string, not ['B']"),
        (
            lambda s: s.adversaries.append(
                AdversarySpec("modify_field", ("link", "A", "B"), {"field": "seq", "op": ["add"], "value": 1})
            ),
            "adversary 0: modify_field op must be a string, not ['add']",
        ),
        # A member listed twice is no member of a second group.
        (lambda s: setattr(s.groups[0], "members", ["A", "A"]), "group g1: lists member A twice"),
        # A number too large for a float would overflow in the run, or in
        # the validator itself.
        (
            lambda s: setattr(s.nodes[0], "trace", [(10**400, 0.0)]),
            f"node A: trace point {(10**400, 0.0)!r} is not an (x, y) pair of finite numbers",
        ),
        (lambda s: object.__setattr__(s.weights, "w0", 10**400), "weight factors must be finite"),
        (
            lambda s: setattr(s.params, "radio_radius", 10**400),
            f"radio_radius must be finite and positive, not {10**400!r}",
        ),
        # Each problem below has a check of its own that no other test reaches.
        (lambda s: setattr(s.nodes[0], "trace", []), "node A: empty position trace"),
        (
            lambda s: s.adversaries.append(AdversarySpec("jam", ("link", "A", "B"))),
            "adversary 0: unknown behavior 'jam'",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("drop_probabilistic", ("link", "A", "B"), {"p": 1.5})),
            "adversary 0: drop probability must be within [0, 1]",
        ),
        (
            lambda s: s.adversaries.append(AdversarySpec("replay", ("link", "A", "B"), {"delay": -1})),
            "adversary 0: replay delay must be a non-negative integer, not -1",
        ),
        (lambda s: s.script.append(Action(1, "dance", ("A",))), "unknown action 'dance'"),
        (lambda s: s.expectations.append(Expectation("routed", ("A", "B"))), "unknown expectation 'routed'"),
        (
            lambda s: (
                s.nodes.append(NodeSpec("C", [(50.0, 60.0)], 0.5)),
                s.adversaries.append(AdversarySpec("drop_all", ("node", "C"))),
                s.script.append(Action(1, "leave", ("C",))),
            ),
            "action leave: 'C' is adversarial, not a protocol node",
        ),
        (
            lambda s: (s.nodes.append(NodeSpec("C", [(50.0, 60.0)], 0.5)), s.groups.append(GroupSpec("g1", 4, ["C"]))),
            "duplicate group id 'g1'",
        ),
        (lambda s: s.groups.append(GroupSpec("g2", 4, ["A"])), "node A appears in more than one group"),
    ],
)
def test_validation_names_malformed_groups_and_nodes(edit, problem):
    # Built in code, these either passed and crashed the run (an empty
    # group, a fractional capacity), made the validator itself raise (a
    # value of the wrong type, such as a None where a list belongs or a
    # list where a name belongs), or passed and ran as if a misspelt
    # adversary argument were not there.  A wrong type is named by its path.
    scenario = line_scenario(["A", "B"])
    edit(scenario)
    assert validate_scenario(scenario) == [problem]


@pytest.mark.parametrize("tick", ["x", 1.5, True])
def test_validation_names_a_tick_that_is_not_an_integer(tick):
    # A tick of 1.5 or True does not survive being written out as a
    # scenario file and read back.
    scenario = line_scenario(["A", "B"])
    scenario.script.append(Action(tick, "leave", ("A",)))
    assert validate_scenario(scenario) == [f"script[0].tick must be an integer, not {tick!r}"]


def _typed_fixture():
    """A valid scenario with one spec of every kind (an integer stands for
    a number, as the scenario file reads `p=1`)."""
    return line_scenario(
        ["A", "B"],
        script=[Action(1, "leave", ("A",))],
        adversaries=[AdversarySpec("drop_probabilistic", ("link", "A", "B"), {"p": 1})],
        expectations=[Expectation("admitted", ("B",))],
    )


def _fields_under(spec, path=()):
    """(path, declared type) of every field reachable from `spec`, entering
    the first spec of each list of specs."""
    hints = get_type_hints(type(spec))
    for f in fields(spec):
        value = getattr(spec, f.name)
        yield path + (f.name,), hints[f.name]
        if is_dataclass(value):
            yield from _fields_under(value, path + (f.name,))
        elif isinstance(value, list) and value and is_dataclass(value[0]):
            yield from _fields_under(value[0], path + (f.name, 0))


def _fits(value, kind) -> bool:
    """Whether `value` is itself of the declared type `kind` (an Optional
    also takes None); a NaN fits no float a scenario can use."""
    kinds = get_args(kind) if get_origin(kind) is Union else (kind,)
    return type(value) in kinds and value == value


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(_fields_under(_typed_fixture()))),
    st.sampled_from((None, [None], {None: None}, "x", 1.5, True, math.nan)),
)
def test_a_field_of_the_wrong_type_is_named_not_raised(site, value):
    # One field at a time, anywhere in a scenario built in code, takes a
    # value of another type: the validator names it, and the run refuses.
    (*route, name), kind = site
    assume(not _fits(value, kind))
    scenario = _typed_fixture()
    assert validate_scenario(scenario) == []
    holder = scenario
    for key in route:
        holder = holder[key] if isinstance(key, int) else getattr(holder, key)
    object.__setattr__(holder, name, value)  # WeightConfig is frozen
    assert validate_scenario(scenario)
    with pytest.raises(SimulationError):
        Simulation(scenario)


@pytest.mark.parametrize("fixture", corpus.FIXTURES, ids=lambda case_id: case_id.removeprefix("fixture:"))
def test_each_node_reads_its_group_through_one_view(fixture):
    # A leader's view is its leader service, which holds its own key among
    # the members'; a live member's view of the roster is its leader's.
    # The views are the nodes' own state, so this reads a fresh Simulation.
    sim = Simulation(corpus.CASES[fixture].build())
    sim.run()
    leaders = {name for name in sim.leaders.values() if name is not None}
    checked = 0
    for name, node in sim.nodes.items():
        if not isinstance(node, ProtocolNode):
            continue
        assert (node.keys is node.leader_service) == (name in leaders)
        if name in leaders:
            assert node.keys.member_view[name] == node.keypair.public
        elif name not in sim.crashed and node.member.is_member():
            assert node.keys.member_view == sim.nodes[node.keys.leader].keys.member_view
            checked += 1
    assert leaders and checked


def test_a_simulation_has_no_instance_dict():
    # See the note on Simulation: its attributes live in slots, so every one
    # that `__init__` or `run` sets is declared there, and none turns the
    # instance into a plain dict.  It reads the Simulation, so it runs one.
    sim = Simulation(churn_scenario(500))
    sim.run()
    assert not hasattr(sim, "__dict__")
    assert all(hasattr(sim, name) for name in Simulation.__slots__)


def test_envelopes_and_events_have_no_instance_dict():
    # Both are made once per transmission or event, so each is slotted.
    envelope = Envelope(msg(MessageKind.LEAVE, who="a"), "a")
    event = SimEvent(0, 0, "send", "a", None, "", "-", ("LEAVE",))
    assert not hasattr(envelope, "__dict__") and not hasattr(event, "__dict__")


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
    a, b = corpus.log("stealth_link:1"), corpus.log("stealth_link:2")
    assert a.to_text() != b.to_text() or a.payload_blob() != b.payload_blob()


def test_log_text_roundtrip():
    log = run(line_scenario(["A", "B", "C"], script=[Action(2, "discover", ("A", "C"))], duration=15))
    parsed = parse_log_text(log.to_text())
    assert parsed.complete
    assert parsed.events == log.events
    payloads = parse_payload_blob(log.payload_blob())
    assert payloads == log.payloads


def _reference_text(log) -> str:
    """A log's text rendered event by event: the header, each event's
    `SimEvent.line` and, for a complete log, the footer."""
    lines = [LOG_HEADER, *(event.line() for event in log.events)]
    if log.complete:
        lines.append(LOG_FOOTER)
    return "\n".join(lines) + "\n"


# Every corpus case but the grid workloads' pool seeds past the three that
# `test_golden.py` runs: the grid cases kept cover the writer on a grid, and
# each further seed is a 64-node run that the rest of the suite mostly skips.
_UNRUN_POOL = {f"{name}:{seed}:plain" for name in ("grid_static", "grid_mobile") for seed in workloads.WORKLOADS[name].pool[3:]}


@pytest.mark.parametrize("case_id", [case_id for case_id in corpus.CASES if case_id not in _UNRUN_POOL])
def test_log_text_is_the_line_of_each_event(case_id):
    # The writer renders a tick once, and the tail of a run of events that
    # share one parts tuple and one digest once (the deliveries of one hop).
    log = corpus.log(case_id)
    assert log.to_text() == _reference_text(log)


# Lines that a reader hands one parts tuple, across ticks, kinds and
# digests, with neighbours that differ in their digest alone.
_ONE_DETAIL = "".join(
    f"{tick}\t{seq}\t{kind}\tA>B\t{digest}\tdead:tx=7\n"
    for seq, (tick, kind, digest) in enumerate(
        [(0, "drop", "-"), (0, "deliver", "0f" * 32), (1, "deliver", "0f" * 32), (1, "deliver", "a1" * 32), (2, "drop", "-")]
    )
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_log_text(f"{LOG_HEADER}\n{_ONE_DETAIL}{LOG_FOOTER}\n"),
        lambda: parse_log_text(corpus.log("churn:500:plain").to_text()),
        # A tap changes the unicast, so the addressee's delivery has a digest
        # that the hop's intercepted copy does not.
        lambda: parse_log_text(corpus.log("modify_unicast").to_text()),
        lambda: EventLog(events=corpus.log("modify_unicast").events[:40]),
        EventLog,
        lambda: EventLog(complete=True),
    ],
    ids=["one_detail", "read_back", "modify_unicast_read_back", "incomplete", "empty", "empty_complete"],
)
def test_log_text_is_the_line_of_each_event_read_back_cut_or_empty(build):
    log = build()
    assert log.to_text() == _reference_text(log)


def test_a_read_back_log_hands_one_detail_one_parts_tuple():
    read = parse_log_text(f"{LOG_HEADER}\n{_ONE_DETAIL}")
    assert len({id(event.parts) for event in read.events}) == 1
    assert len({(event.tick, event.kind, event.digest) for event in read.events}) == 5


# A piece of event text: any character but the separators, a tab or a line
# break (control characters and line separators are left out altogether).
_PIECE_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters=">:="), min_size=1, max_size=4
)


@st.composite
def _event(draw, tick, seq):
    """An event of any shape the grammar allows: principals `actor`,
    `actor>recipient` or `actor:about`, and a detail of words and
    `name=value` pairs (an `epoch` or `hops` value is a decimal count)."""
    shape = draw(st.sampled_from(("actor", "recipient", "about")))
    recipient = draw(_PIECE_TEXT) if shape == "recipient" else None
    about = draw(_PIECE_TEXT) if shape == "about" else ""
    counts = ("epoch", "hops")
    part = (
        _PIECE_TEXT
        | st.tuples(_PIECE_TEXT.filter(lambda name: name not in counts), _PIECE_TEXT)
        | st.tuples(st.sampled_from(counts), st.integers(min_value=0, max_value=99).map(str))
    )
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
        ("a>", "x", "principals 'a>' are not"),
        ("", "x", "principals '' are not"),
        ("a:b>c", "x", "does not render back to itself"),
        ("a:", "x", "does not render back to itself"),
        ("a", "x::y", "part '' that is neither"),
        ("a", "", "part '' that is neither"),
        ("a", "x:", "part '' that is neither"),
        ("a", "=v", "part '=v' that is neither"),
        ("a", "x:n=v=w", "part 'n=v=w' that is neither"),
        ("a", "x:to=", "part 'to=' that is neither"),
        ("a", "x:n>v", "part 'n>v' that is neither"),
        ("a", "x:epoch=x", "part 'epoch=x' whose value is not a decimal count"),
        ("a", "x:hops=x", "part 'hops=x' whose value is not a decimal count"),
        ("a", "x:epoch=", "part 'epoch=' whose value"),
        ("a", "x:hops=01", "part 'hops=01' whose value"),
        ("a", "x:epoch=-1", "part 'epoch=-1' whose value"),
        ("a", "x:hops=+1", "part 'hops=+1' whose value"),
        ("a", "x:hops=\u0663", "part 'hops=\u0663' whose value"),
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


def test_log_parse_rejects_a_tick_that_is_not_a_number():
    with pytest.raises(SimulationError, match="^line 2: bad tick/sequence$"):
        parse_log_text("#manetsec-log v1\nx\t0\talert\tA\t-\tnode_crashed\n#complete\n")


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


@pytest.mark.parametrize(
    "tick,seq,error",
    [
        pytest.param("4", "2", "tick 4 is before tick 5", id="4-tick 4 is before tick 5"),
        pytest.param("x", "2", "bad tick/sequence", id="x-bad tick/sequence"),
        pytest.param("05", "2", "does not render back to itself", id="05-does not render back to itself"),
        pytest.param("5", "07", "does not render back to itself", id="seq 07-does not render back to itself"),
        pytest.param("5", "+2", "does not render back to itself", id="seq +2-does not render back to itself"),
        pytest.param("5", " 2", "does not render back to itself", id="seq  2-does not render back to itself"),
    ],
)
def test_log_parse_rejects_a_bad_tick_on_a_line_that_repeats_earlier_fields(tick, seq, error):
    # Line 4 has the principals, the detail and (but in the first three
    # cases) the tick of lines 2 and 3, read already; its tick and its
    # sequence are still checked.
    rest = "\tdrop\tA>B\t-\tdead:hops=2:tx=7"
    text = f"#manetsec-log v1\n5\t0{rest}\n5\t1{rest}\n{tick}\t{seq}{rest}\n#complete\n"
    with pytest.raises(SimulationError, match=f"^line 4: {error}$"):
        parse_log_text(text)


@pytest.mark.parametrize(
    "digest", ["", "xyz", "0" * 63, "0" * 65, "0F" * 32], ids=["empty", "xyz", "63_hex", "65_hex", "uppercase_hex"]
)
def test_log_parse_rejects_a_digest_that_is_neither_a_dash_nor_lowercase_hex(digest):
    # Line 3's tick goes back too: the digest is checked first.  A line that
    # does not render back (principals `A:`) is rejected for that first.
    good = "5\t0\talert\tA\t-\tnode_crashed"
    for principals, error in [
        ("A", f"digest {re.escape(repr(digest))} is neither - nor 64 lowercase hex digits"),
        ("A:", "does not render back to itself"),
    ]:
        text = f"#manetsec-log v1\n{good}\n4\t1\talert\t{principals}\t{digest}\tnode_crashed\n#complete\n"
        with pytest.raises(SimulationError, match=f"^line 3: {error}$"):
            parse_log_text(text)


def _sidecar():
    log = run(line_scenario(["A", "B", "C"], script=[Action(2, "discover", ("A", "C"))], duration=15))
    return log.payload_blob()


def test_payload_blob_rejects_a_file_without_its_magic():
    with pytest.raises(SimulationError, match=r"^not a payload sidecar \(bad magic\)$"):
        parse_payload_blob(_sidecar()[len(PAYLOAD_MAGIC) :])


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
    breadth-first search per call over live nodes."""
    if target == source or target in sim._neighbours(source):
        return [source, target]
    frontier = [source]
    parents = {source: None}
    while frontier:
        nxt = []
        for u in frontier:
            for v in sim._neighbours(u):
                if v in parents or v in sim.crashed:
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
        self.searches_seen = {}  # addressee -> the searches rooted at it when paths toward it were found
        self.fanouts_seen = {}  # sender -> its fan-out searches when paths from it were found

    def _radio_path(self, source, target):
        path = super()._radio_path(source, target)
        assert path == _fresh_path(self, source, target), (self.now, source, target)
        self.paths.append((self.now, source, target, path))
        for seen, kept, root in (
            (self.searches_seen, self._searches, target), (self.fanouts_seen, self._fanouts, source)
        ):
            if root in kept:
                runs = seen.setdefault(root, [])
                if not runs or runs[-1] is not kept[root]:
                    runs.append(kept[root])
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
        op = draw(st.sampled_from(["crash", "session", "discover", "join"]))
        if op == "crash":
            script.append(Action(draw(tick), op, (draw(st.sampled_from(names)),)))
        elif op == "join" and placed:
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
        script=[Action(4, "crash", ("C",)), Action(5, "join", ("X", "g1"))],
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


def _adversary_join_far():
    """X, an impostor, joins g1, whose leader L is three hops away.  D, a
    dropper, is as near to L as M and sorts before it, so the join takes
    the path X-D-N-L and is eaten at D."""
    nodes = [NodeSpec("X", [(0.0, 0.0)]), NodeSpec("D", [(100.0, 40.0)]), NodeSpec("M", [(100.0, 0.0)], 0.3),
             NodeSpec("N", [(200.0, 0.0)], 0.3), NodeSpec("L", [(300.0, 0.0)], 1.0)]
    return Scenario(
        seed=4,
        nodes=nodes,
        groups=[GroupSpec("g1", 6, ["L", "M", "N"])],
        params=SimParams(radio_radius=110.0, heartbeat_period=3, duration=12),
        script=[Action(2, "join", ("X", "g1"))],
        adversaries=[AdversarySpec("impersonate", ("node", "X")), AdversarySpec("drop_all", ("node", "D"))],
    )


def _relay_crash_then_fan_out():
    """A ladder t0..t3 over b0..b3, 100 apart; t0 leads and its founding
    fans out through b2.  b2 crashes at tick 3, then t0 expels t3 and fans
    its REKEYs out around b2; t0 crashes at tick 8, and b3 founds the group
    again with a fan-out of its own."""
    nodes = []
    for i in range(4):
        nodes.append(NodeSpec(f"t{i}", [(100.0 * i, 0.0)], 1.0 if i == 0 else 0.5 - 0.01 * i))
        nodes.append(NodeSpec(f"b{i}", [(100.0 * i, 100.0)], 0.9 if i == 3 else 0.4 - 0.01 * i))
    return Scenario(
        seed=5,
        nodes=nodes,
        groups=[GroupSpec("g1", 10, [node.name for node in nodes])],
        params=SimParams(radio_radius=110.0, heartbeat_period=3, liveness_deadline=9, duration=18),
        script=[Action(3, "crash", ("b2",)), Action(5, "expel", ("t0", "t3")), Action(8, "crash_leader", ("g1",))],
    )


@settings(max_examples=120, deadline=None)
@given(_path_scenario())
@example(_bridged("drop_all"))
@example(_bridged("mitm_relay"))
@example(_walking_grid())
@example(_crash_between_senders())
@example(_adversary_join_far())
@example(_relay_crash_then_fan_out())
def test_kept_path_searches_equal_fresh_searches(scenario):
    _CheckedPaths(scenario).run()


# The golden cases, churn seeds 500-519 and the first seed of each grid pool.
_PATH_CASES = corpus.PINNED + [f"churn:{seed}:plain" for seed in range(505, 520)] + [
    f"{name}:{workloads.WORKLOADS[name].pool[0]}:plain" for name in ("grid_static", "grid_mobile")
]


@pytest.mark.parametrize("case_id", _PATH_CASES)
def test_every_path_equals_a_fresh_search(case_id):
    # A fresh run whose every path is checked, so it cannot be the corpus's.
    corpus.fresh(case_id, _CheckedPaths)


def test_static_run_keeps_one_path_search_per_addressee():
    # No node moves or dies, so every search serves for the rest of the run:
    # the one rooted at an addressee serves every sender toward it, and the
    # founding leader's fan-out of keyset REKEYs is served by one search
    # rooted at the leader.  No search is opened twice.
    sim = _CheckedPaths(line_scenario(["A", "B", "C", "D", "E"], duration=40))
    sim.run()
    relayed = [(tick, source, target) for tick, source, target, path in sim.paths if path is not None and len(path) > 2]
    founding = {target for tick, source, target in relayed if (tick, source) == (0, "A")}
    assert len(founding) >= 3 and len({tick for tick, _, _ in relayed}) >= 2
    assert list(sim._fanouts) == list(sim.fanouts_seen) == ["A"]
    assert len(sim.fanouts_seen["A"]) == 1 and sim.fanouts_seen["A"][0] is sim._fanouts["A"]
    toward = {target for tick, source, target in relayed if (tick, source) != (0, "A")}
    assert any(len({source for _, source, t in relayed if t == target}) >= 2 for target in toward)
    assert set(sim._searches) == toward
    for target in toward:
        assert len(sim.searches_seen[target]) == 1 and sim.searches_seen[target][0] is sim._searches[target]


def test_founding_fan_out_keeps_no_search_at_its_members():
    # A static 5x5 grid: the founding leader seals a REKEY to each of 24
    # members, most of them several hops away.  No search outlives the
    # founding's tick at a member that only the founding addressed, and the
    # members' heartbeats toward the leader still share one search.
    kept = {}  # tick -> the addressees with a kept search when it began

    class Founding(_CheckedPaths):
        def _drain_taps(self):
            kept.setdefault(self.now, set(self._searches))
            super()._drain_taps()

    sim = Founding(workloads.grid_static(1, side=5))
    sim.run()
    [leader] = [e.principals for e in sim.log.events if e.kind == "elect"]
    founding = {target for tick, source, target, path in sim.paths if (tick, source) == (0, leader) and len(path) > 2}
    others = {target for tick, source, target, _ in sim.paths if tick == 0 and source != leader}
    assert len(founding - others) >= 3
    assert not kept[1] & (founding - others)
    beats = {source for tick, source, target, path in sim.paths if tick > 0 and target == leader and len(path) > 2}
    assert len(beats) >= 3
    assert len(sim.searches_seen[leader]) == 1 and sim.searches_seen[leader][0] is sim._searches[leader]


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
@example(corpus.CASES["grid_mobile:900:plain"].build())  # 64 nodes walking every tick
def test_reach_rows_equal_all_pairs_distance_test(scenario):
    _CheckedReach(scenario).run()


def test_static_run_tests_each_pair_at_most_once(monkeypatch):
    # No node moves, so the rows of tick 0 serve the whole run: radio reach
    # costs one `_in_range` call per row, and at most one distance test per
    # ordered pair.
    rows, calls = [], []
    in_range = Simulation._in_range

    def counted(self, name, names):
        rows.append(name)
        calls.extend((name, v) for v in names if v != name)
        return in_range(self, name, names)

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
    assert sorted(rows) == names
    assert 0 < len(calls) == len(set(calls)) <= len(names) * (len(names) - 1)


def test_leader_unicast_to_itself_is_delivered():
    # A leader opening a session with a node outside its group asks its
    # leader, itself, for the peer's key: a zero-hop unicast that arrives
    # next tick like any one-hop message.
    log = corpus.log("leader_session:1")
    assert ("a1", "group=g1:cause=founding") in [(e.principals, e.detail) for e in log.events if e.kind == "elect"]
    query = next(e for e in log.events if e.kind == "send" and e.detail.startswith("PUBKEY_QUERY:to=a1:"))
    tx = query.detail.rsplit("tx=", 1)[1]
    assert not [e for e in log.events if e.kind == "drop" and e.detail.endswith(f":tx={tx}")]
    delivered = [e for e in log.events if e.kind == "deliver" and e.detail == f"PUBKEY_QUERY:hops=1:tx={tx}"]
    assert [(e.tick, e.principals) for e in delivered] == [(query.tick + 1, "a1>a1")]


def test_each_message_encoded_once(monkeypatch):
    import manetsec.messages as messages

    encoded, beats = [], []  # holding the messages keeps their ids unique
    original, with_beat = messages.encode_message, messages.Message.with_beat

    def counting(message):
        encoded.append(message)
        return original(message)

    def beating(self, beat):
        beats.append(with_beat(self, beat))
        return beats[-1]

    monkeypatch.setattr(messages, "encode_message", counting)
    monkeypatch.setattr(messages.Message, "with_beat", beating)
    log = run(churn_scenario(500))  # counted as it runs, so a fresh run
    assert len({id(m) for m in encoded}) == len(encoded)
    # A heartbeat built from its node's last one has its bytes stored when it
    # is built, so it never passes through `encode_message`: the payloads
    # that did not are exactly those heartbeats.  Every encoding is a logged
    # payload, and every payload is its own message's canonical encoding.
    assert beats and {m.kind for m in beats} == {MessageKind.HEARTBEAT}
    assert not {id(m) for m in encoded} & {id(m) for m in beats}
    payloads = set(log.payloads.values())
    through = {m.encoded for m in encoded}
    assert through <= payloads
    assert payloads - through == {m.encoded for m in beats}
    for payload in payloads:
        assert original(messages.decode_message(payload)) == payload


def test_a_node_is_handed_each_group_broadcast_once(monkeypatch):
    # Every member re-floods each group broadcast once, so most copies a
    # node hears are ones it has already relayed: they are logged as
    # delivered and never reach its handler, and the log does not move.
    # The re-flood is the first thing the handling emits, ahead of what the
    # kind's handler emits (a leader's REKEY after a LEAVE, say).
    # The handler is watched as the run makes it, so that run is a fresh one.
    from manetsec.node import refloods

    expected = corpus.log("churn:500:plain").to_text()
    original = ProtocolNode.handle
    calls, repeats, refloods_first = [], [], []
    sim = Simulation(churn_scenario(500))

    def handle(self, envelope, ctx):
        calls.append(self.name)
        reflooded = refloods(envelope)
        if reflooded and envelope.message.encoded in sim.relayed[self.name]:
            repeats.append((ctx.now, self.name, envelope.message.kind.name))
        outbound = ctx.outbound
        original(self, envelope, ctx)
        if reflooded:
            first = outbound[0]
            refloods_first.append(
                (first.message is envelope.message and first.to == BROADCAST and first.sender == self.name, len(outbound))
            )

    monkeypatch.setattr(ProtocolNode, "handle", handle)
    log = sim.run()
    assert calls and repeats == []
    assert refloods_first and all(first for first, _ in refloods_first)
    assert any(emitted > 1 for _, emitted in refloods_first)  # some handler spoke after the re-flood
    assert all(sim.relayed.values())  # every protocol node sent some group broadcast
    assert log.to_text() == expected


# The handler `ProtocolNode.handle` hands each kind to, by name.
HANDLER_OF = {
    **dict.fromkeys(("JOIN_REQ", "ZK_CHALLENGE", "CERT", "NONCE"), "_handle_leader_join"),
    **dict.fromkeys(("ZK_PARAMS", "ZK_RESPONSE", "ADMIT", "MEMBER_SET"), "_handle_member_join"),
    "REKEY": "_handle_rekey",
    "SESSION_1": "_handle_session1",
    "SESSION_2": "_handle_session2",
    "SESSION_3": "_handle_session3",
    "SESSION_4": "_handle_session4",
    "PUBKEY_QUERY": "_handle_pubkey_query",
    "PUBKEY_ANSWER": "_handle_pubkey_answer",
    "MALICIOUS_ALERT": "_handle_alert",
    "HEARTBEAT": "_handle_heartbeat",
    "LEADER_ANNOUNCE": "_handle_leader_announce",
    "RREQ": "_handle_rreq",
    "RREP": "_handle_rrep",
    "DATA": "_handle_data",
    "LEAVE": "_handle_leave",
    **dict.fromkeys(("GROUP_REQ", "GROUP_REP", "GROUP_NEG"), "_handle_ring"),
}


def _hand_built_node(name="n"):
    """A node in no group, with its own provider and key."""
    import random

    from manetsec.keymgmt import CertificateAuthority

    provider = make_provider("test_double")
    rng = random.Random(name)
    keypair = provider.generate_keypair(rng)
    return ProtocolNode(
        name, keypair, CertificateAuthority(provider, rng).issue(name, keypair.public), provider, rng, SimParams()
    )


def _any_message(kind):
    """A `kind` message with a well-typed value in every field."""
    from manetsec.messages import _FIELDS, FIELD_TYPES

    values = {"int": 1, "str": "x", "name": "a", "bytes": b"x", "list[int]": [1], "list[name]": ["a"],
              "list[bytes]": [b"x"]}
    return msg(kind, **{name: values[FIELD_TYPES[name]] for name in _FIELDS[kind]})


def test_each_message_kind_has_its_pinned_handler():
    assert {kind.name: handler.__name__ for kind, handler in ProtocolNode.HANDLERS.items()} == HANDLER_OF
    assert set(HANDLER_OF) == set(MessageKind.__members__)
    assert all(ProtocolNode.HANDLERS[kind] is getattr(ProtocolNode, HANDLER_OF[kind.name]) for kind in MessageKind)


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.name)
def test_handle_hands_each_kind_to_its_table_entry_alone(kind, monkeypatch):
    # One lookup: the kind's entry is called once, with the node, the
    # message, the envelope and the context, and nothing else runs.
    from manetsec.runtime import Ctx

    reached = []
    monkeypatch.setitem(ProtocolNode.HANDLERS, kind, lambda *args: reached.append(args))
    node = _hand_built_node()
    envelope, ctx = Envelope(_any_message(kind), "peer", node.name), Ctx(node.name, 3, node.rng)
    node.handle(envelope, ctx)
    assert reached == [(node, envelope.message, envelope, ctx)]
    assert not (ctx.outbound or ctx.notes or ctx.secrets or ctx.signals)


@pytest.mark.parametrize("to", ["n", BROADCAST])
def test_a_kind_with_no_handler_does_nothing(to, monkeypatch):
    # With no entry, a unicast leaves the node and its context as they
    # were, and a group broadcast is only passed on.
    from manetsec.node import refloods
    from manetsec.runtime import Ctx

    monkeypatch.setattr(ProtocolNode, "HANDLERS", {})
    node = _hand_built_node()
    state = dict(vars(node))
    for kind in MessageKind:
        envelope, ctx = Envelope(_any_message(kind), "peer", to), Ctx(node.name, 3, node.rng)
        node.handle(envelope, ctx)
        passed_on = [(e.message, e.to, e.channel) for e in ctx.outbound]
        assert passed_on == ([(envelope.message, BROADCAST, "radio")] if refloods(envelope) else [])
        assert not (ctx.notes or ctx.secrets or ctx.signals)
    assert vars(node) == state and not node.router.seen


def test_each_payload_hashed_once(monkeypatch):
    from manetsec.crypto import DeterministicProvider
    from manetsec.sim import Simulation

    digesting, hashed = [], []
    original_digest, original_hash = Simulation._digest, DeterministicProvider.hash

    def digest_step(self, payload):
        digesting.append(True)
        try:
            return original_digest(self, payload)
        finally:
            digesting.pop()

    def counting(self, data):
        if digesting:
            hashed.append(data)
        return original_hash(self, data)

    monkeypatch.setattr(Simulation, "_digest", digest_step)
    monkeypatch.setattr(DeterministicProvider, "hash", counting)
    log = run(churn_scenario(500))  # counted as it runs, so a fresh run
    assert len(hashed) == len(log.payloads)
    assert set(hashed) == set(log.payloads.values())


SIDECAR_CASES = [case_id for case_id in corpus.PINNED if case_id.split(":")[0] in ("adversary", "active", "defaults")]


@pytest.mark.parametrize("case_id", SIDECAR_CASES + ["modify_unicast"])
def test_every_delivered_digest_names_a_payload_that_hashes_to_it(case_id):
    # A delivery or drop names its payload by digest, and the sidecar holds
    # the bytes: a send logged them first, or, where a tap changed them on a
    # unicast's way, the delivery itself.
    log = corpus.log(case_id)
    hash_ = make_provider(log.registry.provider_name).hash
    for event in log.events:
        if event.kind in ("deliver", "drop") and event.digest != "-":
            assert hash_(log.payloads[event.digest]).hex() == event.digest, event.line()


def test_a_tap_that_changes_a_unicast_delivers_bytes_no_send_logged():
    log = corpus.log("modify_unicast")
    sent = {event.digest for event in log.events if event.kind == "send"}
    assert any(event.kind == "deliver" and event.digest not in sent for event in log.events)


def test_a_session_with_no_leader_to_ask_sends_nothing():
    # A, in no group, has no leader to ask for B's key: it aborts the session
    # with a verdict and sends no query to the empty name.
    log = run(
        Scenario(
            seed=1,
            nodes=placed(("A", 0.0, 0.0, 0.5), ("B", 100.0, 0.0, 0.8)),
            groups=[GroupSpec("g1", 8, ["B"])],
            params=SimParams(radio_radius=110.0, duration=6),
            script=[Action(2, "session", ("A", "B"))],
        )
    )
    assert [e.line() for e in log.events if e.tick == 2] == ["2\t5\tverdict\tA:A-B\t-\tsession_aborted:no_leader"]


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


def two_groups_moved():
    """The two-group fixture beating every 2 ticks, where member a1 leaves
    g1 at tick 5, walks out of g1's reach into g2's at tick 6 and joins g2
    at tick 8: its beats change group."""
    scenario = corpus.fixture("two_groups.scn")
    scenario.params.heartbeat_period = 2
    mover = next(spec for spec in scenario.nodes if spec.name == "a1")
    mover.trace = [(100.0, 0.0)] * 6 + [(320.0, 0.0)]
    scenario.script = [Action(5, "leave", ("a1",)), Action(8, "join", ("a1", "g2"))]
    return scenario


# Run -> (its scenario builder, what its nodes' beats change besides the beat).
HEARTBEAT_RUNS = {
    "churn:520:plain": (corpus.CASES["churn:520:plain"].build, {"role"}),  # a leader crash: a member leads
    "grid_mobile:900:plain": (corpus.CASES["grid_mobile:900:plain"].build, set()),
    "fixture:two_groups.scn": (corpus.CASES["fixture:two_groups.scn"].build, set()),
    "two_groups_moved": (two_groups_moved, {"group"}),
}


@pytest.mark.parametrize("case", list(HEARTBEAT_RUNS))
def test_each_heartbeat_is_its_nodes_last_with_a_new_beat(case, monkeypatch):
    # A node's beat in the role and group of its last one is that beat with
    # a new `beat`; its first beat, and the first after a change of role or
    # group, is built whole by the checked `msg`.  Each beat a node sends is
    # its own at the tick it sends it, and each copy another node sends is
    # a re-flood of one.  The builders are spied on as the run makes them,
    # so the run is a fresh one.
    import manetsec.node as node_module

    build, expected_changes = HEARTBEAT_RUNS[case]
    built = {}  # (who, beat) -> what built it
    checked, with_beat = node_module.msg, Message.with_beat

    def spied_msg(kind, **fields):
        if kind is MessageKind.HEARTBEAT:
            built[fields["who"], fields["beat"]] = "msg"
        return checked(kind, **fields)

    def spied_with_beat(self, beat):
        built[self["who"], beat] = "with_beat"
        return with_beat(self, beat)

    monkeypatch.setattr(node_module, "msg", spied_msg)
    monkeypatch.setattr(Message, "with_beat", spied_with_beat)
    log = run(build())
    first_sent, last, expected, changes = {}, {}, {}, set()
    for event in log.events:
        if event.kind != "send" or event.parts[0] != "HEARTBEAT":
            continue
        payload = log.payloads[event.digest]
        beat = decode_message(payload)
        assert encode_message(beat) == payload
        first_sent.setdefault(event.digest, (event.actor, event.tick))
        if beat["who"] != event.actor:  # a re-flood of its sender's own beat
            assert first_sent[event.digest] == (beat["who"], beat["beat"])
            continue
        assert beat["beat"] == event.tick
        was = last.get(event.actor)
        now = last[event.actor] = (beat["role"], beat["group"])
        expected[event.actor, event.tick] = "with_beat" if now == was else "msg"
        if was is not None and now != was:
            changes |= {what for what, old, new in zip(("role", "group"), was, now) if old != new}
    assert built == expected
    assert "with_beat" in built.values()
    assert changes == expected_changes


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


def _dropper_on_the_join_path():
    """J joins g1, whose leader L is two hops away through D, a dropper; the
    only way round D, J-P-Q-R-L, is four hops long, and a join that took it
    would be admitted by tick 35."""
    return Scenario(
        seed=6,
        nodes=placed(
            ("L", 0.0, 0.0, 1.0), ("D", 100.0, -30.0, 0.5), ("J", 200.0, 0.0, 0.5),
            ("P", 200.0, 100.0, 0.5), ("Q", 100.0, 100.0, 0.6), ("R", 20.0, 100.0, 0.6),
        ),
        groups=[GroupSpec("g1", 8, ["L", "Q", "R"])],
        params=SimParams(radio_radius=110.0, duration=40),
        script=[Action(3, "join", ("J", "g1"))],
        adversaries=[AdversarySpec("drop_all", ("node", "D"))],
    )


def test_a_dropper_on_the_shortest_path_eats_the_join_request():
    # Relays are chosen by position and liveness alone, so the join request
    # takes the two-hop path through D, which logs its copy and passes
    # nothing on: L never hears of J, and J is not admitted.
    log = run(_dropper_on_the_join_path())
    [request] = [e for e in log.events if e.kind == "send" and e.actor == "J" and e.word == "JOIN_REQ"]
    tx = request.get("tx")
    copies = [(e.kind, e.principals, e.detail) for e in log.events if e.kind != "send" and e.get("tx") == tx]
    assert copies == [("deliver", "J>D", f"JOIN_REQ:overheard:hops=1:tx={tx}")]
    assert not [e for e in log.events if e.kind == "admit" and e.about == "J"]
    assert not verdicts(log, prefix="joined")


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
    group_keys = sorted(label for label in held_labels(log, k) if label[0] == "group_key")
    assert group_keys == [("group_key", "g1-1", 1)]


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


def test_leaders_seed_trust_tables_from_trust_initial():
    scenario = line_scenario(["A", "B", "C"], script=[Action(5, "leave", ("A",))], duration=20)
    scenario.params.trust_initial = 0.9
    scenario.nodes[0].battery = 1.0
    sim = Simulation(scenario)
    sim.run()
    founding = sim.last_trust["g1"]  # A's table, kept for its successor when it left
    assert founding == {"B": 0.9, "C": 0.9}
    successor = sim.nodes[sim.leaders["g1"]].leader_service
    assert set(successor.trust.values()) == {0.9}


def test_an_election_scores_only_the_movement_so_far():
    # Leader A crashes at tick 5 and its group elects at its silence.  B
    # jitters 5 units a tick before the crash, then stands still; C, with
    # less battery, stands still until well after the election and then
    # swings 40 units a tick.  Scored on their movement up to the election,
    # B loses to C; scored on their whole traces, C would lose to B.
    scenario = line_scenario(["A", "B", "C"], script=[Action(5, "crash_leader", ("g1",))], duration=80)
    a, b, c = scenario.nodes
    a.battery, b.battery, c.battery = 1.0, 0.9, 0.8
    b.trace = [(100.0, 5.0 * (tick % 2)) for tick in range(5)]
    c.trace = [(200.0, 0.0)] * 60 + [(200.0, 40.0 * (tick % 2)) for tick in range(20)]
    elects = [e for e in run(scenario).events if e.kind == "elect"]
    assert [e.actor for e in elects] == ["A", "C"]
    assert 5 < elects[1].tick < 60
    whole = {spec.name: mobility(spec.trace) for spec in (b, c)}
    assert weight(NodeAttributes("C", whole["C"], 0.8, 0.5), WeightConfig()) > weight(
        NodeAttributes("B", whole["B"], 0.9, 0.5), WeightConfig()
    )


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
    assert not [label for label in held_labels(log, old) if label[:2] == ("group_key", "g1-2")]
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


def test_one_dissolution_logs_one_alert():
    # L expels its only member A, which keeps the group's keys, then
    # crashes: g1 is dissolved at tick 20.  When A notices L's silence
    # later, the election it signals finds the group already dissolved and
    # logs nothing more.
    scenario = line_scenario(
        ["L", "A"], seed=5, script=[Action(5, "expel", ("L", "A")), Action(20, "crash", ("L",))], duration=80
    )
    log = run(scenario)
    dissolved = [(e.tick, e.principals) for e in log.events if e.detail == "group_dissolved"]
    assert dissolved == [(20, "g1")]
    assert audit(log).passed


def test_churn_names_the_principal_none_twice():
    # Pins a known defect (ROADMAP item 6): in two of the acceptance churn
    # runs an election is signalled for no group, and its dissolution alert
    # names the principal `None`.  No other event of the hundred runs does.
    # Item 6's fix turns the expected set to empty.  The logs are the
    # corpus's, which criterion 5 reads too, so they add no runs to a session.
    named = {
        (case_id, event.line())
        for case_id in (f"churn:{seed}:plain" for seed in range(500, 600))
        for event in corpus.log(case_id).events
        if "None" in (event.actor, event.recipient, event.about)
    }
    assert named == {
        ("churn:520:plain", "183\t3945\talert\tNone\t-\tgroup_dissolved"),
        ("churn:545:plain", "223\t4659\talert\tNone\t-\tgroup_dissolved"),
    }


def test_crashing_a_dead_former_leader_is_skipped():
    # A dead node keeps its leader service; crashing it again must not
    # unseat its live successor.
    scenario = line_scenario(
        ["A", "B", "C"],
        script=[Action(5, "crash", ("A",)), Action(60, "crash", ("A",)), Action(62, "join", ("C", "g1"))],
        duration=80,
    )
    scenario.nodes[0].battery = 1.0
    sim = Simulation(scenario)
    log = sim.run()
    a_alerts = [(e.tick, e.detail) for e in log.events if e.kind == "alert" and e.actor == "A"]
    assert a_alerts == [(5, "node_crashed"), (60, "action_skipped_dead:crash")]
    assert not [e for e in log.events if e.detail.startswith("join_failed")]
    assert sim.leaders == {"g1": "B"}


def test_actions_on_a_leaderless_group():
    # Once the leader has crashed, and until its members elect another,
    # the group has no leader: crashing it again does nothing, and a join
    # to it fails at once.
    scenario = line_scenario(
        ["A", "B", "C"],
        script=[Action(5, "crash_leader", ("g1",)), Action(6, "crash_leader", ("g1",)), Action(7, "join", ("N", "g1"))],
        duration=20,
    )
    scenario.nodes[0].battery = 1.0
    scenario.nodes.append(NodeSpec("N", [(50.0, 40.0)], 0.5))
    sim = Simulation(scenario)
    log = sim.run()
    assert not [e for e in log.events if e.tick == 6]
    at_7 = [(e.kind, e.principals, e.digest, e.detail) for e in log.events if e.tick == 7]
    assert at_7 == [("alert", "N", "-", "join_failed:no_leader:g1")]
    assert sim.leaders == {"g1": None}
    assert audit(log).passed


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
    installs = verdicts(corpus.log("two_group:3"), "a0", "route_installed:dest=b0")
    assert installs and installs[0].detail.endswith(":composed")
    assert corpus.audit("two_group:3").passed


@pytest.mark.parametrize("provider", ["test_double", "real"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_leader_sends_data_across_the_ring(seed, provider):
    # Leader a1's own first hop toward b0 is the other group's leader: it
    # is sealed under the ring key and crosses the ring, as a relayed hop is.
    scenario, _, _ = two_group_scenario(seed)
    scenario.provider_name = provider
    scenario.script = [Action(3, "discover", ("a1", "b0")), Action(30, "send_data", ("a1", "b0", "hi"))]
    log = run(scenario)
    assert verdicts(log, "b0", "data_delivered:from=a1")
    assert not [e for e in log.events if e.kind == "drop" and e.actor == "a1"]
    assert audit(log).passed


def test_gateway_legs_already_routed_are_not_discovered_again():
    # a0 already has a route to its leader a1, and b2 one to b0: a0 asks a1
    # for a composed route at once, and b2 answers from its route table.
    from manetsec.messages import MessageKind, decode_message, open_sealed

    scenario, _, _ = two_group_scenario(seed=3)
    scenario.script = [
        Action(3, "discover", ("a0", "a1")),
        Action(12, "discover", ("b2", "b0")),
        Action(25, "discover", ("a0", "b0")),
    ]
    scenario.params.duration = 70
    sim = Simulation(scenario)
    log = sim.run()
    assert {sim.leaders["g1"], sim.leaders["g2"]} == {"a1", "b2"}
    later = [e for e in log.events if e.tick >= 25]
    [wanted] = [e for e in later if e.kind == "send" and e.actor == "a0" and e.tick == 25]
    message = decode_message(log.payloads[wanted.digest])
    plain = sim.provider.sym_decrypt(sim.nodes["a0"].keys.group_key, message["sealed"])
    assert open_sealed(MessageKind.DATA, plain)["tag"] == "route_wanted"
    assert not [e for e in later if e.kind == "send" and e.detail.startswith("RREQ:")]
    assert [e.tick for e in later if e.kind == "send" and e.detail.startswith("GROUP_REP:to=a1:")] == [28]
    assert [e.tick for e in verdicts(log, "a0", "route_installed:dest=b0:seq=2:composed")] == [31]
    assert audit(log).passed


def test_unknown_destination_gets_negative_reply():
    assert verdicts(corpus.log("unknown_destination"), "a0", "no_route:dest=zz")


def test_negative_reply_waits_for_every_other_leader():
    # Three groups; zz is in none.  a0's query goes to both other leaders,
    # and only the second GROUP_NEG fails the job.
    scenario, source, _ = two_group_scenario(seed=4)
    third = [NodeSpec(f"c{i}", [(640.0 + 90.0 * (i % 2), 40.0 + 90.0 * (i // 2))], 0.6 + 0.1 * i) for i in range(4)]
    scenario.nodes += third + [NodeSpec("zz", [(900.0, 900.0)], 0.5)]
    scenario.groups.append(GroupSpec("g3", 8, [spec.name for spec in third]))
    scenario.script = [Action(3, "discover", (source, "zz"))]
    sim = Simulation(scenario)
    log = sim.run()
    negatives = [i for i, e in enumerate(log.events) if e.kind == "deliver" and e.detail.startswith("GROUP_NEG:")]
    assert [log.events[i].principals for i in negatives] == ["b0>a0", "c3>a0"]
    [failed] = [e for e in verdicts(log, source, "no_route:")]
    assert failed.detail == "no_route:dest=zz:seq=1" and failed.seq > log.events[negatives[-1]].seq
    assert sim.nodes[source].gateway_jobs == {}
    assert audit(log).passed


@pytest.mark.parametrize("b0_last", [False, True], ids=["b0_first", "b0_last"])
def test_a_crashed_groups_dissolution_hangs_on_crash_order_and_its_leader_stays_in_the_ring(b0_last):
    # All of g2 (leader b0) crashes at tick 2, then a0 looks for zz, a node
    # in no group.  g2 is dissolved only when b0 crashes last: crashed
    # members never signal that their leader is gone.  Either way a0 keeps
    # ring version 1, agreed with the dead b0, and its job for zz waits for
    # b0's answer to the end, with no verdict.  Pinned as it stands: item 13
    # (the leader ring run as messages) and item 6 (a gateway job counts
    # only live ring peers) flip it.
    scenario, _, _ = two_group_scenario(seed=4)
    scenario.nodes.append(NodeSpec("zz", [(900.0, 900.0)], 0.5))
    scenario.params.duration = 120
    crashes = ["b1", "b2", "b3", "b0"] if b0_last else ["b0", "b1", "b2", "b3"]
    scenario.script = [Action(2, "crash", (name,)) for name in crashes] + [Action(10, "discover", ("a0", "zz"))]
    sim = Simulation(scenario)
    log = sim.run()
    dissolved = [(e.tick, e.actor) for e in log.events if e.kind == "alert" and e.word == "group_dissolved"]
    assert dissolved == ([(2, "g2")] if b0_last else [])
    rings = [(e.actor, e.get("version")) for e in log.events if e.kind == "rekey" and e.word == "ring"]
    assert rings == [("a0,b0", "1")] and sim.ring_version == 1
    ring_keys = {owner: key for _, owner, label, key in log.registry.secrets if label == ("ring_key", 1)}
    assert sim.nodes["a0"].ring_key == ring_keys["a0"] == ring_keys["b0"] and "b0" in sim.crashed
    assert sim.nodes["a0"].gateway_jobs == {("a0", "zz", 1): 1}
    assert not [e for e in log.events if e.kind == "verdict" and e.actor == "a0" and "zz" in e.detail]


def test_a_lone_leader_holds_no_ring_key():
    # A ring of one leader agrees nothing: each version is still logged,
    # but no key is agreed, held or recorded.
    sim = Simulation(churn_scenario(500))
    log = sim.run()
    rings = [e for e in log.events if e.kind == "rekey" and e.word == "ring"]
    assert rings and all("," not in e.actor for e in rings)
    assert [e.get("version") for e in rings] == [str(version) for version in range(1, sim.ring_version + 1)]
    assert not [label for _, _, label, _ in log.registry.secrets if label[0] == "ring_key"]
    assert all(sim.nodes[name].ring_key is None for name in sim.leaders.values() if name is not None)


def _leader_without_ring_key():
    """Two founded groups a tick after their announcements, with g1's leader
    a1 holding no ring key, and a context for one of its steps."""
    import random

    from manetsec.runtime import Ctx

    scenario, _, _ = two_group_scenario(seed=3)
    scenario.script, scenario.params.duration = [], 5
    sim = Simulation(scenario)
    sim.run()
    leader = sim.nodes["a1"]
    assert leader.leader_service is not None and set(leader.known_leaders) == {"b2"}
    leader.ring_key = None
    return sim, leader, Ctx("a1", 6, random.Random(1))


def test_leader_without_ring_key_fails_its_own_gateway_request():
    _, leader, ctx = _leader_without_ring_key()
    leader.start_route_discovery("b0", ctx)
    assert [(note.kind, render_detail(note.parts)) for note in ctx.notes] == [("verdict", "no_route:dest=b0:seq=1")]
    assert not ctx.outbound and leader.gateway_jobs == {} and leader.pending_composed == {}


def test_leader_without_ring_key_tells_the_requester_its_route_failed():
    from manetsec.messages import MessageKind, open_sealed, seal_plain

    sim, leader, ctx = _leader_without_ring_key()
    leader.router.install("a0", ["a1", "a0"], 1)
    wanted = seal_plain(MessageKind.DATA, tag="route_wanted", requester="a0", dest="b0", seq=4)
    leader._consume_data(open_sealed(MessageKind.DATA, wanted), ctx)
    assert not ctx.notes and leader.gateway_jobs == {}
    [envelope] = ctx.outbound
    assert (envelope.message.kind, envelope.to, envelope.channel) == (MessageKind.DATA, "a0", "radio")
    plain = sim.provider.sym_decrypt(leader.keys.group_key, envelope.message["sealed"])
    assert open_sealed(MessageKind.DATA, plain) == {"tag": "route_failed", "dest": "b0", "seq": 4}


def _outsider_scenario():
    """A lone group, L and A, and a node Z in no group: L looks for Z, and
    Z chats to a group it does not have."""
    scenario = line_scenario(
        ["L", "A"],
        seed=5,
        script=[Action(3, "discover", ("L", "Z")), Action(4, "send_data", ("Z", "*"))],
        duration=20,
    )
    scenario.nodes.append(NodeSpec("Z", [(50.0, 30.0)], 0.5))
    return scenario


def test_a_lone_leader_fails_a_discovery_at_once():
    # No other leader shares the ring, so L's gateway has no one to ask and
    # fails the job in the tick it opens.
    log = run(_outsider_scenario())
    assert [(e.tick, e.detail) for e in verdicts(log, "L", "no_route:")] == [(3, "no_route:dest=Z:seq=1")]


def test_a_node_in_no_group_cannot_chat_to_its_group():
    log = run(_outsider_scenario())
    assert [(e.tick, e.detail) for e in verdicts(log, "Z")] == [(4, "send_failed:no_group")]


def test_remote_leader_times_out_its_member_discovery():
    # b0 crashes before a0 asks for it.  b2 still lists b0, so it runs a
    # leg-3 discovery for it, which finds no route; at its deadline b2
    # answers GROUP_NEG and a0 gives up.
    scenario, _, _ = two_group_scenario(seed=1)
    scenario.params.duration = 120
    scenario.script = [Action(2, "crash", ("b0",)), Action(5, "discover", ("a0", "b0"))]
    sim = Simulation(scenario)
    log = sim.run()
    started = verdicts(log, "b2", "discovery_started:dest=b0")
    negatives = [e for e in log.events if e.kind == "send" and e.detail.startswith("GROUP_NEG:")]
    assert [(e.tick, e.actor) for e in negatives] == [(started[0].tick + scenario.params.discovery_timeout, "b2")]
    assert [(e.tick, e.detail) for e in verdicts(log, "a0", "no_route:")] == [(41, "no_route:dest=b0:seq=2")]
    assert sim.nodes["b2"].remote_jobs == {} and sim.nodes["a0"].gateway_jobs == {}
    assert audit(log).passed


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
    from manetsec.node import intercept
    from manetsec.routing import make_rreq

    provider = DeterministicProvider()
    r = random.Random(1)
    pair = provider.generate_keypair(r)
    request = make_rreq(provider, pair, "S", "D", 1, 8)

    relayed = intercept("mitm_relay", {}, request, r)
    assert relayed is not None and relayed["lifetime"] == 7
    assert relayed["chain"] == request["chain"]  # nothing else touched

    assert intercept("drop_all", {}, request, r) is None

    mutated = intercept("modify_field", {"field": "seq", "op": "add", "value": 1}, request, r)
    assert mutated is not request and mutated["seq"] == 2

    same = intercept("replay", {"delay": 3}, request, r)
    assert same is request

    exhausted = request.replace(lifetime=0)
    assert intercept("mitm_relay", {}, exhausted, r) is None


def _tapped_relay_scenario(tap):
    """S-A-X-B-D, X a stealth relay, with one `tap` (kind, args) on S-A, or
    none.  S leads and unicasts founding REKEYs to B (tx 1) and D (tx 2)
    across X."""
    nodes = [NodeSpec("S", [(0.0, 0.0)], 1.0)]
    nodes += [NodeSpec(name, [(x, 0.0)], 0.5) for name, x in (("A", 100.0), ("X", 200.0), ("B", 300.0), ("D", 400.0))]
    adversaries = [AdversarySpec("mitm_relay", ("node", "X"))]
    if tap is not None:
        adversaries.append(AdversarySpec(tap[0], ("link", "S", "A"), tap[1]))
    return Scenario(
        seed=1,
        nodes=nodes,
        groups=[GroupSpec("g1", 8, ["S", "A", "B", "D"])],
        params=SimParams(radio_radius=110.0, duration=30),
        adversaries=adversaries,
    )


# What X and the addressees receive of the founding REKEYs to B and D:
# (tick, principals, detail, digest prefix).
_UNTAPPED_COPIES = [
    (2, "A>X", "REKEY:overheard:hops=2:tx=1", "c8107d6c"),
    (2, "A>X", "REKEY:overheard:hops=2:tx=2", "cc1e7c48"),
    (3, "S>B", "REKEY:hops=3:tx=1", "c8107d6c"),
    (4, "S>D", "REKEY:hops=4:tx=2", "cc1e7c48"),
]


@pytest.mark.parametrize(
    "tap,copies",
    [
        (None, _UNTAPPED_COPIES),
        (("replay", {"delay": 3}), _UNTAPPED_COPIES),
        (("drop_all", {}), []),
        (
            ("modify_field", {"field": "epoch", "op": "add", "value": 1}),
            [
                (3, "A>X", "REKEY:overheard:hops=3:tx=1", "8f1d156d"),
                (3, "A>X", "REKEY:overheard:hops=3:tx=2", "729da9f6"),
                (4, "S>B", "REKEY:hops=4:tx=1", "8f1d156d"),
                (5, "S>D", "REKEY:hops=5:tx=2", "729da9f6"),
            ],
        ),
    ],
    ids=["untapped", "replay", "drop_all", "modify_field"],
)
def test_relay_past_a_tap_hears_what_crossed_it(tap, copies):
    # A unicast walks its path once: X hears what the tap on S-A let
    # through, when it reaches X, and nothing of what the tap ate.
    log = run(_tapped_relay_scenario(tap))
    sends = [(e.detail, e.digest[:8]) for e in log.events if e.kind == "send" and e.tick == 0 and e.actor == "S"]
    assert ("REKEY:to=B:ch=radio:tx=1", "c8107d6c") in sends and ("REKEY:to=D:ch=radio:tx=2", "cc1e7c48") in sends
    received = [
        (e.tick, e.principals, e.detail, e.digest[:8])
        for e in log.events
        if e.kind == "deliver" and e.recipient in ("X", "B", "D") and e.get("tx") in ("1", "2")
    ]
    assert received == copies
    report = audit(log)
    assert report.passed and "causality" in [result.name for result in report.results]


# ---------------------------------------------------------------------------
# Queued transmission hops: the exact lines each shape of hop logs
# ---------------------------------------------------------------------------


def _lines_of(log, txs, since=0):
    """The log lines, from tick `since` on, of the transmissions numbered
    `txs`."""
    return [e.line() for e in log.events if e.tick >= since and e.get("tx") in txs]


def test_broadcast_hearer_that_crashes_in_flight_is_dropped_in_its_turn():
    # B chats at tick 5 on the line A-B-C.  C crashes at tick 6, before the
    # broadcast arrives: A's delivery is handled first (A re-floods it),
    # then C's copy is dropped as dead.
    log = run(
        line_scenario(
            ["A", "B", "C"], script=[Action(5, "send_data", ("B", "*", "hi")), Action(6, "crash", ("C",))], duration=8
        )
    )
    data = "aa75068bc4f4f8cf4ae4e12756f719e679d0df027d9bd03aeb3bc82723bc4fe9"
    assert [e.line() for e in log.events if e.tick == 6] == [
        "6\t12\talert\tC\t-\tnode_crashed",
        f"6\t13\tdeliver\tB>A\t{data}\tDATA:tx=4",
        f"6\t14\tsend\tA\t{data}\tDATA:to=*:ch=radio:tx=5",
        "6\t15\tdrop\tB>C\t-\tdead:tx=4",
    ]
    assert _lines_of(log, ("4",)) == [
        f"5\t11\tsend\tB\t{data}\tDATA:to=*:ch=radio:tx=4",
        f"6\t13\tdeliver\tB>A\t{data}\tDATA:tx=4",
        "6\t15\tdrop\tB>C\t-\tdead:tx=4",
    ]


def test_multi_hop_unicast_to_an_addressee_that_crashes_in_flight_is_dropped_on_arrival():
    # On the line L-A-B-C, B and C beat to their leader L at tick 10, two
    # and three hops away; L crashes at tick 11, and each beat is dropped
    # when it would have arrived, naming its hops.
    log = run(line_scenario(["L", "A", "B", "C"], script=[Action(11, "crash", ("L",))], duration=16))
    beat_b = "c944d088d8d946bfc756f52a4a6732303f05dc277898430a50822e667dee287e"
    beat_c = "b0169c7392c504c6fcba339b2ccb1242cdf75e9a12889cee23b6775f0a0fa417"
    assert _lines_of(log, ("6", "7")) == [
        f"10\t15\tsend\tB\t{beat_b}\tHEARTBEAT:to=L:ch=radio:tx=6",
        f"10\t16\tsend\tC\t{beat_c}\tHEARTBEAT:to=L:ch=radio:tx=7",
        "12\t22\tdrop\tB>L\t-\tdead:hops=2:tx=6",
        "13\t25\tdrop\tC>L\t-\tdead:hops=3:tx=7",
    ]


class _FiledHops(Simulation):
    """Keeps each queued hop's recipients object beside a tuple copy of it."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.filed = []  # (recipients as filed, a copy then, whether it was the sender's reach row)

    def _schedule(self, tick, envelope, recipients, via, parts):
        self.filed.append((recipients, tuple(recipients), recipients is self._reach.get(via)))
        return super()._schedule(tick, envelope, recipients, via, parts)


@pytest.mark.parametrize("case_id", ["churn:520:plain", "grid_mobile:900:plain"])
def test_a_filed_hops_recipients_never_change(case_id):
    # Before any crash a broadcast files its sender's reach row itself as
    # its hearers, so the queue and the reach rows share lists: nothing may
    # write to either once filed.  Churn 520 has a leader crash and a
    # dissolution, so hearers are filtered after it; grid_mobile rebuilds
    # every row each tick.  Each hop is watched as the run files it, so the
    # runs are fresh ones.
    sim = _FiledHops(corpus.CASES[case_id].build())
    sim.run()
    assert any(shared for _, _, shared in sim.filed)
    assert all(tuple(recipients) == copy for recipients, copy, _ in sim.filed)


def test_ring_broadcast_reaches_peer_leaders_in_sorted_order():
    # Three one-pair groups far apart, founded g1, g2, g3 under leaders z0,
    # m0, b0.  z0 expels z1 and alerts the ring: the peers get the alert in
    # name order, b0 before m0, not in group order.
    nodes = []
    for i, (leader, member) in enumerate((("z0", "z1"), ("m0", "m1"), ("b0", "b1"))):
        nodes += [NodeSpec(leader, [(1000.0 * i, 0.0)], 1.0), NodeSpec(member, [(1000.0 * i + 50.0, 0.0)], 0.3)]
    groups = [GroupSpec(f"g{i}", 4, [nodes[2 * i - 2].name, nodes[2 * i - 1].name]) for i in (1, 2, 3)]
    log = run(
        Scenario(
            seed=1,
            nodes=nodes,
            groups=groups,
            params=SimParams(radio_radius=110.0, duration=8),
            script=[Action(5, "expel", ("z0", "z1"))],
        )
    )
    assert [e.principals for e in log.events if e.kind == "elect"] == ["z0", "m0", "b0"]
    alert = "b9a54c164995c9b4c8529e17dbc314e92c9fdfeef672201b6448e6aef69ccaca"
    assert _lines_of(log, ("15",)) == [
        f"5\t45\tsend\tz0\t{alert}\tMALICIOUS_ALERT:to=*:ch=ring:tx=15",
        f"6\t46\tdeliver\tz0>b0\t{alert}\tMALICIOUS_ALERT:tx=15",
        f"6\t47\tdeliver\tz0>m0\t{alert}\tMALICIOUS_ALERT:tx=15",
    ]


_CHAT = "a71ae707b51f28151f7e39b661c0100bce5f53926aa0bc48dd7a78a98bf8c347"
_CHAT_EDITED = "d691a1f0d3376f7833bd8bbc8cc2181331c4b4793c38bb5b21adc13ecf806803"


@pytest.mark.parametrize(
    "tap,txs,lines",
    [
        (
            ("replay", {"delay": 2}),
            ("6", "9", "10"),
            [
                f"5\t17\tsend\tA\t{_CHAT}\tDATA:to=*:ch=radio:tx=6",
                f"6\t18\tdeliver\tA>tap0\t{_CHAT}\tDATA:overheard:tx=6",
                f"6\t19\tdeliver\tA>B\t{_CHAT}\tDATA:tx=6",
                f"8\t25\tsend\ttap0\t{_CHAT}\tDATA:to=B:ch=radio:tx=9",
                f"9\t27\tsend\ttap0\t{_CHAT}\tDATA:to=A:ch=radio:tx=10",
                f"9\t28\tdeliver\ttap0>B\t{_CHAT}\tDATA:tx=9",
            ],
        ),
        (
            ("modify_field", {"field": "group", "op": "set", "value": "gx"}),
            ("4", "5"),
            [
                f"5\t13\tsend\tA\t{_CHAT}\tDATA:to=*:ch=radio:tx=4",
                f"6\t14\tdeliver\tA>tap0\t{_CHAT}\tDATA:intercepted:tx=4",
                f"7\t15\tdeliver\tA>B\t{_CHAT_EDITED}\tDATA:hops=2:tx=4",
                f"7\t16\tsend\tB\t{_CHAT_EDITED}\tDATA:to=*:ch=radio:tx=5",
                f"8\t17\tdeliver\tB>tap0\t{_CHAT_EDITED}\tDATA:intercepted:tx=5",
                f"8\t18\tdeliver\tB>C\t{_CHAT_EDITED}\tDATA:tx=5",
                f"9\t20\tdeliver\tB>A\t{_CHAT_EDITED}\tDATA:hops=2:tx=5",
            ],
        ),
        (
            ("mitm_relay", {}),
            ("4", "5"),
            [
                f"5\t13\tsend\tA\t{_CHAT}\tDATA:to=*:ch=radio:tx=4",
                f"6\t14\tdeliver\tA>tap0\t{_CHAT}\tDATA:intercepted:tx=4",
                f"7\t15\tdeliver\tA>B\t{_CHAT}\tDATA:hops=2:tx=4",
                f"7\t16\tsend\tB\t{_CHAT}\tDATA:to=*:ch=radio:tx=5",
                f"8\t17\tdeliver\tB>tap0\t{_CHAT}\tDATA:intercepted:tx=5",
                f"8\t18\tdeliver\tB>C\t{_CHAT}\tDATA:tx=5",
                f"9\t20\tdeliver\tB>A\t{_CHAT}\tDATA:hops=2:tx=5",
            ],
        ),
        (
            ("drop_all", {}),
            ("4", "5"),
            [
                f"5\t11\tsend\tA\t{_CHAT}\tDATA:to=*:ch=radio:tx=4",
                f"6\t12\tdeliver\tA>tap0\t{_CHAT}\tDATA:intercepted:tx=4",
            ],
        ),
    ],
    ids=["replay", "modify_field", "mitm_relay", "drop_all"],
)
def test_broadcast_across_a_link_tap(tap, txs, lines):
    # A chats at tick 5 on the line A-B-C with a tap on A-B.  A replaying
    # tap lets B hear it at once and later sends copies of its own; any
    # other tap holds it a tick and passes on what it leaves of it under A's
    # own tx, logged hops=2, as a unicast hop's tap does.  A dropping tap
    # passes on nothing, so B neither hears nor re-floods it.
    scenario = line_scenario(
        ["A", "B", "C"],
        script=[Action(5, "send_data", ("A", "*", "hi"))],
        adversaries=[AdversarySpec(tap[0], ("link", "A", "B"), tap[1])],
        duration=9,
    )
    assert _lines_of(run(scenario), txs, since=5) == lines


def test_a_link_tap_sends_only_its_replays():
    # Over every corpus case with a link tap: what a tap passes on stays
    # its sender's transmission, so each send a tap logs is a replay, of a
    # payload delivered to that tap at least its delay earlier.
    tapped = []
    for case_id, case in corpus.CASES.items():
        adversaries = case.build().adversaries
        # A tap is named by its position among all of the scenario's adversaries.
        taps = {f"tap{i}": adv for i, adv in enumerate(adversaries) if adv.placement[0] == "link"}
        if not taps:
            continue
        tapped.append(case_id)
        heard = {}  # (tap, payload digest) -> the first tick it reached the tap
        for e in corpus.log(case_id).events:
            if e.kind == "deliver" and e.recipient in taps:
                heard.setdefault((e.recipient, e.digest), e.tick)
            elif e.kind == "send" and e.actor in taps:
                tap = taps[e.actor]
                assert tap.kind == "replay", (case_id, e.line())
                assert heard.get((e.actor, e.digest), math.inf) <= e.tick - tap.settings["delay"], (case_id, e.line())
    assert {"modify_unicast", "fixture:stealth_mitm.scn", "adversary:replay:link", "late_member_set"} <= set(tapped)


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


@pytest.mark.parametrize("provider", ["test_double", "real"])
def test_an_adversary_join_fails_at_the_leaders_certificate_check(provider):
    # X runs the joiner's half of the handshake as any node does: it checks
    # the leader's proof (zk_ok), then offers the certificate it signed
    # itself, which the leader rejects and raises on the ring.
    scenario = line_scenario(["L", "M"], seed=5, script=[Action(3, "join", ("X", "g1"))], duration=20)
    scenario.nodes += placed(("X", 50.0, 60.0, 0.5))
    scenario.adversaries.append(AdversarySpec("drop_all", ("node", "X")))
    scenario.provider_name = provider
    sim = Simulation(scenario)
    log = sim.run()
    assert len(verdicts(log, "X", "zk_ok")) == 1
    assert len(verdicts(log, "L", "join_rejected:bad_certificate")) == 1
    assert not verdicts(log, "L", "cert_ok")
    assert [e for e in log.events if e.kind == "send" and e.principals == "L" and e.detail.startswith(
        "MALICIOUS_ALERT:to=*:ch=ring:"
    )]
    assert not [e for e in log.events if e.kind == "admit" and e.about == "X"]
    assert not sim.nodes["X"].member.is_member() and "X" not in sim.nodes["L"].leader_service.member_view
    assert audit(log).passed


def test_founding_leader_ignores_a_forged_alert():
    # X rewrites the leader's genuine not_a_member alert about X to accuse
    # M; the leader checks it against its own key and M against the
    # leader's, so only the genuine alert counts and the session confirms.
    scenario = parse_scenario(
        "[nodes]\nL 1.0 0,0\nM 0.5 100,0\nX 0.5 50,60\n[groups]\ng1 8 L M\n"
        "[adversaries]\nnode X modify_field field=accused op=set value=M\n"
        "[script]\n3 session X M\n30 session L M\n"
    )
    scenario.seed = 0
    sim = Simulation(scenario)
    log = sim.run()
    assert corpus.digest(log) == "ed166a3a82010619bc2989050aa30130bdbea9d9e4d65ed3c0ba089125a2b9c7"
    assert [e.about for e in log.events if e.kind == "alert" and e.word == "not_a_member"] == ["X"]
    assert not verdicts(log, "L", "session_refused")
    assert verdicts(log, "L", "session_confirmed") and verdicts(log, "M", "session_confirmed")
    assert sim.nodes["L"].sessions.distrusted == set() and sim.nodes["M"].sessions.distrusted == {"X"}


# ---------------------------------------------------------------------------
# Step contexts
# ---------------------------------------------------------------------------


def test_a_simulation_runs_once():
    # A second run would set the groups up again over the first run's state
    # and append a second run, from tick 0, to the same log.  The point is
    # the Simulation's own second run, so it makes its own first one.
    sim = Simulation(churn_scenario(500))
    text = sim.run().to_text()
    with pytest.raises(SimulationError, match="already run"):
        sim.run()
    assert sim.log.to_text() == text
    assert parse_log_text(text).events == sim.log.events


CONTRACT_RUNS = [*corpus.FIXTURES, *(f"churn:{seed}:plain" for seed in range(500, 505)), "replay_lockout"]


def _is_empty(ctx) -> bool:
    return not (ctx.outbound or ctx.notes or ctx.secrets or ctx.signals)


@pytest.mark.parametrize(
    "name", CONTRACT_RUNS, ids=lambda case_id: case_id.removeprefix("fixture:").removesuffix(":plain").replace(":", "")
)
def test_each_node_steps_in_one_context_that_starts_empty(monkeypatch, name):
    # Every step is checked as the run makes it, so the run is a fresh one.
    import manetsec.sim as sim_module
    from manetsec.keymgmt import LeaderKeyService
    from manetsec.runtime import Ctx

    built = []

    class CountedCtx(Ctx):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    holder = []  # the simulation under test, once built
    starts = []  # (node, tick) of each step checked

    def check(owner, inputs):
        sim = holder[0]
        (ctx,) = [value for value in inputs if isinstance(value, Ctx)]
        assert ctx is sim.contexts[owner] and ctx.name == owner
        assert _is_empty(ctx), (owner, sim.now)
        assert ctx.now == sim.now
        starts.append((owner, ctx.now))

    def watched(original):
        def step(self, *args):
            check(self.name, args)
            return original(self, *args)

        return step

    for cls in (ProtocolNode, AdversaryNode):
        for method in ("handle", "on_tick"):
            monkeypatch.setattr(cls, method, watched(getattr(cls, method)))
    monkeypatch.setattr(LeaderKeyService, "found_group", watched(LeaderKeyService.found_group))
    original_step = Simulation._step

    def step(self, owner, act, *args):
        def checked(*inputs):
            check(owner, inputs)
            return act(*inputs)

        return original_step(self, owner, checked, *args)

    monkeypatch.setattr(Simulation, "_step", step)
    monkeypatch.setattr(sim_module, "Ctx", CountedCtx)
    sim = Simulation(corpus.CASES[name].build())
    holder.append(sim)
    sim.run()
    assert sorted(ctx.name for ctx in built) == sorted(sim.nodes)
    assert {id(ctx) for ctx in built} == {id(ctx) for ctx in sim.contexts.values()}
    assert len({tick for _, tick in starts}) > 1 and {owner for owner, _ in starts} == set(sim.nodes)
    assert all(_is_empty(ctx) for ctx in built)
    if name == "replay_lockout":
        assert verdicts(sim.log, "C", "join_abort:bad_member_set_seal")


def test_empty_steps_are_not_flushed(monkeypatch):
    flushed = []
    original_flush = Simulation._flush

    def flush(self, owner, ctx):
        assert not _is_empty(ctx)
        flushed.append(owner)
        return original_flush(self, owner, ctx)

    monkeypatch.setattr(Simulation, "_flush", flush)
    seeds = range(500, 505)
    watched = [run(churn_scenario(seed)).registry.secrets for seed in seeds]  # watched as they flush, so fresh
    assert flushed
    monkeypatch.undo()
    # The secrets, entry for entry and in order, are those of unwatched runs.
    assert watched == [run(churn_scenario(seed)).registry.secrets for seed in seeds]


def test_a_placed_adversary_overhears_a_unicast_from_a_sender_in_its_range():
    # E sits 100 from the leader L and 141 from the member M (radius 110):
    # it overhears L's founding REKEY to M, a tick after it is sent and
    # before M's own copy, and hears L's beats; M's unicast beats to L
    # never reach it, nor does its re-flood of L's beat.
    nodes = [NodeSpec("L", [(0.0, 0.0)], 1.0), NodeSpec("M", [(100.0, 0.0)], 0.5), NodeSpec("E", [(0.0, 100.0)], 0.5)]
    log = run(
        Scenario(
            seed=1,
            nodes=nodes,
            groups=[GroupSpec("g1", 4, ["L", "M"])],
            params=SimParams(radio_radius=110.0, duration=12),
            adversaries=[AdversarySpec("drop_all", ("node", "E"))],
        )
    )
    rekey = "b00b10a3bd9be9c2e70c44480474dfb8c12d3c9a86c9dae2a315bad0114166e2"
    beat_l = "14698fddd3d1c74183e233ca91bb922b38f76ff8c033cc5395a8ccab129be0c5"
    beat_m = "1a78b4adbcf5ea6a61007ff9519ecc419863d8124b8f21d1838a9b5c03aa8459"
    assert [e.line() for e in log.events if e.get("tx") == "0" or e.recipient == "E" or (e.kind, e.actor) == ("send", "M")] == [
        f"0\t3\tsend\tL\t{rekey}\tREKEY:to=M:ch=radio:tx=0",
        f"1\t7\tdeliver\tL>E\t{rekey}\tREKEY:overheard:tx=0",
        f"1\t8\tdeliver\tL>M\t{rekey}\tREKEY:hops=1:tx=0",
        f"10\t10\tsend\tM\t{beat_m}\tHEARTBEAT:to=L:ch=radio:tx=4",
        f"11\t11\tdeliver\tL>E\t{beat_l}\tHEARTBEAT:tx=3",
        f"11\t13\tsend\tM\t{beat_l}\tHEARTBEAT:to=*:ch=radio:tx=5",
    ]
