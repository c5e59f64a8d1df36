import pytest

from manetsec.audit import audit, knowledge_set
from manetsec.group import WeightConfig
from manetsec.sim import (
    PAYLOAD_MAGIC,
    Action,
    AdversarySpec,
    Expectation,
    GroupSpec,
    NodeSpec,
    Scenario,
    SimParams,
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
    assert [e.line() for e in parsed.events] == [e.line() for e in log.events]
    payloads = parse_payload_blob(log.payload_blob())
    assert payloads == log.payloads


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
