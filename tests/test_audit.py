import os
import random
from collections import Counter
from dataclasses import replace

import pytest

import manetsec.audit as audit_module
from manetsec import encoding
from manetsec.audit import audit, knowledge_set
from manetsec.crypto import DecryptionError, DeterministicProvider, make_provider
from manetsec.messages import MessageKind, decode_message, msg, seal_plain
from manetsec.scenariofile import parse_scenario
from manetsec.sim import (
    Action,
    EventLog,
    Expectation,
    NodeSpec,
    SimEvent,
    SimulationError,
    parse_log_text,
    parse_payload_blob,
    run,
)
from topologies import churn_scenario, held_labels, line_scenario, stealth_link_scenario

PROPERTIES = (
    "backward_secrecy",
    "forward_secrecy",
    "mutual_auth",
    "chain_soundness",
    "duplicate_suppression",
    "detection_outcomes",
    "epoch_monotonicity",
    "causality",
    "conservation",
    "secret_confinement",
)

# The one failing line of each fault-injected churn audit; every other
# property passes.  Any change to how the auditor reads the log must keep
# these event indices exactly.
PINNED_FAILURES = {
    (100, "leak_key"): "backward_secrecy: FAIL at events 2900,4314,5331,5533",
    (100, "skip_rekey"): "backward_secrecy: FAIL at events 4263,5405",
    (100, "forge_admit"): "mutual_auth: FAIL at events 330,1168,2608,3874,4947",
    (500, "leak_key"): "backward_secrecy: FAIL at events 2164,3698,5617,7153",
    (500, "skip_rekey"): "backward_secrecy: FAIL at events 2164,5500,6745",
    (500, "forge_admit"): "mutual_auth: FAIL at events 530,1731,3086,4923,6327",
}


def test_clean_churn_run_passes_everything():
    report = audit(run(churn_scenario(seed=100)))
    assert report.passed, report.to_text()


def test_leaked_key_flagged_with_counterexample():
    report = audit(run(churn_scenario(seed=100, faults={"leak_key"})))
    result = report.result("backward_secrecy")
    assert not result.passed
    assert result.counterexamples


def test_skipped_rekey_flagged():
    report = audit(run(churn_scenario(seed=100, faults={"skip_rekey"})))
    assert not report.result("backward_secrecy").passed


def test_forged_admit_flagged():
    scenario = line_scenario(
        ["L", "M"],
        seed=9,
        script=[Action(3, "join", ("N", "g1"))],
        duration=30,
        faults={"forge_admit"},
    )
    from manetsec.sim import NodeSpec

    scenario.nodes.append(NodeSpec("N", [(50.0, 40.0)], 0.5))
    log = run(scenario)
    assert [e for e in log.events if e.kind == "admit" and e.detail == "handshake"]
    report = audit(log)
    result = report.result("mutual_auth")
    assert not result.passed and result.counterexamples


def test_truncated_log_rejected():
    log = run(stealth_link_scenario(seed=2))
    log.complete = False
    with pytest.raises(SimulationError):
        audit(log)


def test_unknown_principal_rejected():
    log = run(stealth_link_scenario(seed=2))
    with pytest.raises(SimulationError):
        knowledge_set("nobody", log)


def test_member_knowledge_contains_current_key_material():
    log = run(line_scenario(["L", "M1", "M2"], duration=20))
    k = knowledge_set("M1", log)
    # It holds the registry's keys for (g1-1, 1) and for its own membership.
    assert ("group_key", "g1-1", 1) in held_labels(log, k)
    assert ("member_key", "M1", "g1-1") in held_labels(log, k)
    assert k.private_key is not None


def test_route_and_session_expectations_match_whole_parts():
    # A route to B10 is not a route to B, and a session that aborted did not
    # "abort": the expectation names the destination and the status exactly.
    events = [
        SimEvent(1, 0, "verdict", "A", None, "A", "-", ("route_installed", ("dest", "B10"), ("seq", "1"))),
        SimEvent(2, 1, "verdict", "A", None, "A-B", "-", ("session_aborted", "stale_timestamp")),
    ]
    expected = {
        ("route", ("A", "B10")): True,
        ("route", ("A", "B")): False,
        ("session", ("A", "B", "aborted")): True,
        ("session", ("A", "B", "abort")): False,
        ("verdict", ("A", "route_installed:dest=B")): True,
    }
    log = EventLog(events=events, complete=True)
    log.registry.expectations = [Expectation(kind, args) for kind, args in expected]
    assert audit(log).met == list(expected.values())


def test_admission_and_alert_expectations_match_their_subject():
    # Only a handshake admits in the sense of `admitted`: P's founding
    # admission is no join.  An alert matches the node it accuses.
    events = [
        SimEvent(1, 0, "admit", "L", None, "N", "-", ("handshake",)),
        SimEvent(1, 1, "admit", "L", None, "P", "-", ("founding",)),
        SimEvent(2, 2, "alert", "L", None, "M", "-", ("not_a_member",)),
    ]
    expected = {
        ("admitted", ("N",)): True,
        ("admitted", ("P",)): False,
        ("not_admitted", ("N",)): False,
        ("not_admitted", ("P",)): True,
        ("alerted", ("M",)): True,
        ("alerted", ("N",)): False,
    }
    log = EventLog(events=events, complete=True)
    log.registry.node_names = ["L", "M", "N", "P"]
    log.registry.expectations = [Expectation(kind, args) for kind, args in expected]
    report = audit(log)
    assert report.met == list(expected.values())
    # Of the three missed, only `not_admitted N` matched an event.
    assert report.result("detection_outcomes").line() == "detection_outcomes: FAIL at events 0"


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "scenarios")
FAULT_CASES = ("plain", "leak_key", "skip_rekey", "forge_admit")
REAUDITED = [f"fixture:{name}" for name in sorted(os.listdir(FIXTURES)) if name.endswith(".scn")] + [
    f"churn:{seed}:{fault}" for seed in range(500, 505) for fault in FAULT_CASES
]


@pytest.mark.parametrize("case", REAUDITED)
def test_log_read_back_audits_as_the_run_did(case):
    # The written log and sidecar, read back and given the run's registry,
    # hand the auditor exactly what the simulator gave it.
    what, name = case.split(":", 1)
    if what == "fixture":
        with open(os.path.join(FIXTURES, name)) as handle:
            log = run(parse_scenario(handle.read()))
    else:
        seed, fault = name.split(":")
        log = run(churn_scenario(int(seed), frozenset() if fault == "plain" else frozenset({fault})))
    parsed = parse_log_text(log.to_text())
    parsed.payloads, parsed.registry = parse_payload_blob(log.payload_blob()), log.registry
    assert parsed.events == log.events
    assert audit(parsed).to_text() == audit(log).to_text()


def test_expectations_evaluate_against_log():
    log = run(stealth_link_scenario(seed=4))
    log.registry.expectations = [
        Expectation("verdict", ("D", "reject:chain_mismatch")),
        Expectation("no_verdict", ("D", "accept:")),
        Expectation("route", ("S", "D")),
        Expectation("no_route", ("S", "D")),
    ]
    assert audit(log).met == [True, True, False, True]
    log.registry.expectations = [Expectation("wat", ())]
    with pytest.raises(SimulationError):
        audit(log)


def test_detection_outcomes_uses_scenario_expectations():
    scenario = stealth_link_scenario(seed=4)
    scenario.expectations = [Expectation("verdict", ("D", "accept:"))]  # wrong on purpose
    report = audit(run(scenario))
    assert not report.result("detection_outcomes").passed


def test_missed_expectation_points_only_at_matching_events():
    # A route that never came has no event to point at; a verdict that
    # should not have happened points at that verdict.
    scenario = stealth_link_scenario(seed=4)
    scenario.expectations = [
        Expectation("route", ("S", "D")),
        Expectation("no_verdict", ("D", "reject:chain_mismatch")),
    ]
    log = run(scenario)
    verdict = next(
        i for i, e in enumerate(log.events) if e.kind == "verdict" and e.actor == "D" and e.word == "reject"
    )
    report = audit(log)
    assert report.met == [False, False]
    assert report.result("detection_outcomes").line() == f"detection_outcomes: FAIL at events {verdict}"
    log.registry.expectations = scenario.expectations[:1]
    assert audit(log).result("detection_outcomes").line() == "detection_outcomes: FAIL"


def test_report_text_has_one_line_per_property():
    report = audit(run(stealth_link_scenario(seed=4)))
    lines = report.to_text().strip().splitlines()
    assert len(lines) == len(report.results)
    assert all((": PASS" in line) or (": FAIL" in line) for line in lines)


def test_knowledge_is_tick_bounded():
    from manetsec.sim import Action, NodeSpec

    scenario = line_scenario(
        ["L", "M1"],
        seed=21,
        script=[Action(3, "join", ("N", "g1"))],
        duration=30,
    )
    scenario.nodes.append(NodeSpec("N", [(50.0, 40.0)], 0.5))
    log = run(scenario)
    admit = next(e for e in log.events if e.kind == "admit" and e.detail == "handshake")
    before = knowledge_set("N", log, tick=admit.tick - 5)
    after = knowledge_set("N", log)
    assert not [label for label in held_labels(log, before) if label[0] == "group_key"]
    assert ("group_key", "g1-1", 2) in held_labels(log, after)


def test_stale_sender_during_rekey_flight_is_not_a_violation():
    # The speaker sits many hops from the leader: its copy of the rekey is
    # still traveling when it chats under the retired epoch. The departed
    # node can read that chat, but nobody did anything wrong.
    from manetsec.sim import Action

    names = ["L", "a", "b", "c", "d", "e", "far"]
    scenario = line_scenario(
        names,
        seed=77,
        script=[
            Action(20, "leave", ("a",)),
            Action(23, "send_data", ("far", "*", "stale chat")),
            Action(40, "send_data", ("far", "*", "fresh chat")),
        ],
        duration=60,
    )
    scenario.nodes[0].battery = 1.0  # keep the leader at one end
    log = run(scenario)
    report = audit(log)
    assert report.result("backward_secrecy").passed, report.to_text()


# Two leaves in one tick of a benign run: leader n7 hears n2's LEAVE first
# and seals the epoch it mints for it to n9, which is still a member; later
# in that tick n9's LEAVE, relayed by n2, reaches n7 and n9 is removed.
SAME_TICK_LEAVES = """
[params]
seed = 1
radio_radius = 90

[nodes]
n2 0.7 150,40
n7 0.9 190,70
n9 0.6 90,30

[groups]
g1 16 n9 n2 n7

[script]
4 leave n9
5 leave n2
"""


@pytest.mark.parametrize("provider_name", ["test_double", "real_crypto"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_key_minted_before_the_removal_in_its_tick_is_no_leak(seed, provider_name):
    scenario = replace(parse_scenario(SAME_TICK_LEAVES), seed=seed, provider_name=provider_name)
    report = audit(run(scenario))
    assert report.to_text() == "".join(f"{p}: PASS\n" for p in PROPERTIES)


def test_key_minted_after_the_removal_in_its_tick_is_flagged():
    # The same run with n9's removal moved ahead of the rekey that minted
    # epoch 2, in their shared tick: n9 then holds a key minted after it left.
    log = run(parse_scenario(SAME_TICK_LEAVES))
    events = log.events
    removal = next(i for i, e in enumerate(events) if e.kind == "remove" and e.about == "n9")
    mint = next(i for i, e in enumerate(events) if e.kind == "rekey" and e.get("epoch") == "2")
    assert mint < removal and events[mint].tick == events[removal].tick
    events.insert(mint, events.pop(removal))
    log.events = [replace(event, seq=seq) for seq, event in enumerate(events)]
    assert audit(log).result("backward_secrecy").line() == f"backward_secrecy: FAIL at events {mint}"


def test_stale_sender_after_rekey_arrival_is_a_violation():
    # Same shape, but the leader skipped the rotation: the late chat is
    # sealed under a key the departed node holds and the sender has no
    # newer material coming, so this one must be flagged.
    from manetsec.sim import Action

    scenario = line_scenario(
        ["L", "a", "b"],
        seed=78,
        script=[
            Action(20, "leave", ("a",)),
            Action(35, "send_data", ("b", "*", "still old key")),
        ],
        duration=60,
        faults={"skip_rekey"},
    )
    scenario.nodes[0].battery = 1.0
    log = run(scenario)
    assert not audit(log).result("backward_secrecy").passed


@pytest.mark.parametrize(("seed", "fault"), sorted(PINNED_FAILURES))
def test_fault_counterexamples_are_pinned(seed, fault):
    failing = PINNED_FAILURES[(seed, fault)]
    name = failing.split(":", 1)[0]
    expected = "".join((failing if p == name else f"{p}: PASS") + "\n" for p in PROPERTIES)
    assert audit(run(churn_scenario(seed, faults={fault}))).to_text() == expected


def test_audit_decodes_each_payload_at_most_once(monkeypatch):
    log = run(churn_scenario(seed=100))
    decodes = 0
    real_decode = audit_module.decode_message

    def counting_decode(data):
        nonlocal decodes
        decodes += 1
        return real_decode(data)

    monkeypatch.setattr(audit_module, "decode_message", counting_decode)
    audit(log)
    payloads = len(log.payloads)
    assert 0 < decodes <= payloads


def _benign_line(provider_name="test_double"):
    """The benign_line fixture's log (n3 leaves at tick 20) under the named
    provider, that provider and a seeded rng for crafting messages."""
    with open(os.path.join(FIXTURES, "benign_line.scn")) as handle:
        scenario = replace(parse_scenario(handle.read()), provider_name=provider_name)
    log = run(scenario)
    return log, make_provider(log.registry.provider_name), random.Random(7)


def _deliver(log, provider, messages, recipient="n3"):
    """Append a delivery to n3 (or `recipient`) of each message at the log's
    last tick."""
    last = log.events[-1]
    for n, message in enumerate(messages, start=1):
        digest = provider.hash(message.encoded).hex()
        log.payloads[digest] = message.encoded
        parts = (message.kind.name, "crafted")
        log.events.append(SimEvent(last.tick, last.seq + n, "deliver", "n2", recipient, "", digest, parts))


def test_undecodable_plaintext_counts_as_opened():
    # Two crafted deliveries to n3 after it left: a DATA sealed under a group
    # key n3 holds and a SESSION_1 sealed to its public key, both carrying a
    # plaintext that is not an encoding at all.
    log, provider, rng = _benign_line()
    before = knowledge_set("n3", log)
    group_keys = {value for _, _, label, value in log.registry.secrets if label[0] == "group_key"}
    key = next(k for k in before.sym_keys if k in group_keys)
    crafted = [
        msg(
            MessageKind.DATA, group="g1", lineage="g1-1", epoch=1, route=[], hop=0,
            sealed=provider.sym_encrypt(key, b"\xff\x00", rng),
        ),
        msg(
            MessageKind.SESSION_1,
            sealed=provider.pk_encrypt(log.registry.keypairs["n3"].public, b"\xff\x00", rng),
        ),
    ]
    _deliver(log, provider, crafted)
    report = audit(log)
    assert report.result("backward_secrecy").passed
    after = knowledge_set("n3", log)
    assert after.opened == before.opened | {provider.hash(m.encoded).hex() for m in crafted}
    assert after.sym_keys == before.sym_keys


def test_colon_in_crafted_rekey_lineage_is_audited():
    # A public-mode REKEY sealed to n3 after it left, naming a lineage with a
    # colon in it: n3 holds the key it opens, and the auditor must judge it
    # by its bytes instead of dying on the lineage.
    log, provider, rng = _benign_line()
    group_key = rng.randbytes(16)
    plaintext = seal_plain(
        MessageKind.REKEY, "public", group_key=group_key, epoch=2, lineage="g1:x", rows=[],
        member_key=rng.randbytes(16), member_id=1, leader="n2", leader_public=log.registry.keypairs["n2"].public,
    )
    crafted = msg(
        MessageKind.REKEY, group="g1", lineage="g1:x", epoch=2, mode="public",
        sealed=provider.pk_encrypt(log.registry.keypairs["n3"].public, plaintext, rng),
    )
    _deliver(log, provider, [crafted])
    assert group_key in knowledge_set("n3", log).sym_keys
    assert audit(log).result("backward_secrecy").passed


@pytest.mark.parametrize("kind", ["REKEY", "MEMBER_SET"])
def test_ill_typed_key_fields_in_crafted_plaintext_are_audited(kind):
    # Delivered to n3 after it left: a public-mode REKEY whose plaintext
    # holds bytes where the epoch goes, or a MEMBER_SET, sealed under a group
    # key n3 holds, with an int for the lineage and bytes for the epoch.  n3
    # holds the key either carries; the auditor must not read the lineage or
    # epoch back out of it, and no key the registry minted was handed over.
    log, provider, rng = _benign_line()
    group_key = rng.randbytes(16)
    if kind == "REKEY":
        leader_public = log.registry.keypairs["n2"].public
        plaintext = encoding.encode(group_key, b"x", "g1-1", [], rng.randbytes(16), 1, "n2", leader_public)
        crafted = msg(
            MessageKind.REKEY, group="g1", lineage="g1-1", epoch=2, mode="public",
            sealed=provider.pk_encrypt(log.registry.keypairs["n3"].public, plaintext, rng),
        )
    else:
        held = knowledge_set("n3", log).sym_keys
        key = next(value for _, _, label, value in log.registry.secrets if label[0] == "group_key" and value in held)
        plaintext = encoding.encode(5, [], group_key, 7, b"x", "g1")
        crafted = msg(MessageKind.MEMBER_SET, join_id="n3", sealed=provider.sym_encrypt(key, plaintext, rng))
    _deliver(log, provider, [crafted])
    assert group_key in knowledge_set("n3", log).sym_keys
    assert audit(log).result("backward_secrecy").line() == "backward_secrecy: PASS"


@pytest.mark.parametrize("provider_name", ["test_double", "real_crypto"])
def test_crafted_short_group_key_is_audited(provider_name):
    # A public-mode REKEY sealed to n3 after it left, carrying a 5-byte group
    # key: n3 holds it, and every later trial decryption under it is a wrong
    # key, under either provider, instead of an error that ends the audit.
    log, provider, rng = _benign_line(provider_name)
    group_key = rng.randbytes(5)
    plaintext = seal_plain(
        MessageKind.REKEY, "public", group_key=group_key, epoch=2, lineage="g1-1", rows=[],
        member_key=rng.randbytes(32), member_id=1, leader="n2", leader_public=log.registry.keypairs["n2"].public,
    )
    crafted = msg(
        MessageKind.REKEY, group="g1", lineage="g1-1", epoch=2, mode="public",
        sealed=provider.pk_encrypt(log.registry.keypairs["n3"].public, plaintext, rng),
    )
    _deliver(log, provider, [crafted])
    assert group_key in knowledge_set("n3", log).sym_keys
    assert audit(log).passed


@pytest.mark.parametrize("case", [f"{seed}:{fault}" for seed in range(500, 505) for fault in FAULT_CASES])
def test_shared_trial_decryptions_give_each_principal_the_literal_answer(case):
    # Once both secrecy checks have filled the audit's trial table, each
    # departed principal's answer for each group ciphertext is the one a
    # plain loop over its keys gets from the provider, and so is every
    # plaintext the table holds.
    seed, fault = case.split(":")
    index = audit_module._LogIndex(run(churn_scenario(int(seed), set() if fault == "plain" else {fault})))
    audit_module._check_backward_secrecy(index)
    audit_module._check_forward_secrecy(index)
    provider = make_provider(index.registry.provider_name)

    def opens(key, sealed):
        try:
            return provider.sym_decrypt(key, sealed)
        except DecryptionError:
            return None

    group_ct, _ = index.ciphertexts
    departed = {change.node for change in index.changes if change.change == "out"}
    assert departed and group_ct
    for node in sorted(departed):
        knowledge = index.knowledge(node)
        for ct in group_ct:
            literal = any(opens(key, ct.sealed) is not None for key in knowledge.sym_keys)
            assert audit_module._attempt_all(index, knowledge, ct.sealed) == literal
    for sealed, tried in index._trials.items():
        for key, plain in tried.items():
            assert plain == opens(key, sealed)


def test_audit_tries_each_key_against_each_ciphertext_at_most_once(monkeypatch):
    log = run(churn_scenario(seed=100))
    trials = Counter()
    real_sym_decrypt = DeterministicProvider.sym_decrypt

    def counting_sym_decrypt(self, key, ciphertext):
        trials[(key, ciphertext)] += 1
        return real_sym_decrypt(self, key, ciphertext)

    monkeypatch.setattr(DeterministicProvider, "sym_decrypt", counting_sym_decrypt)
    audit(log)
    assert trials and max(trials.values()) == 1


def _transmission_log(canonical):
    """A hand-built log of two sends and their outcomes.  Unless
    `canonical`, the `tx` pair of a send, a delivery and a drop is not the
    last part and one delivery names its `hops` after its `tx`; canonical,
    every event ends with its `hops` pair, if any, and then its `tx` pair,
    as the simulator logs them."""
    tx1, tx2, tx3 = ("tx", "1"), ("tx", "2"), ("tx", "3")
    shapes = [
        (1, "send", "A", None, ("DATA", tx1, ("to", "*"), ("ch", "radio"))),
        (1, "send", "A", None, ("DATA", ("to", "*"), ("ch", "radio"), tx2)),
        (2, "deliver", "A", "B", ("DATA", tx1, "late")),  # one hop: on time
        (2, "deliver", "A", "C", ("DATA", tx1, ("hops", "3"))),  # three hops: early
        (2, "deliver", "A", "C", ("DATA", ("hops", "1"), tx1)),  # C's second outcome of tx 1
        (2, "drop", "A", "D", ("dead", tx3, "x")),  # tx 3 was never sent
        (2, "drop", "A", "B", ("out_of_range", tx2, "x")),
        (2, "deliver", "A", "B", ("DATA", tx2)),  # B's second outcome of tx 2
        (3, "deliver", "A", "E", ("DATA", ("hops", "2"), "overheard", tx2)),  # two hops: on time
    ]

    def rank(part):  # words, then other pairs, then hops, then tx
        return 0 if isinstance(part, str) else {"hops": 2, "tx": 3}.get(part[0], 1)

    events = [
        SimEvent(tick, seq, kind, actor, recipient, "", "-", tuple(sorted(parts, key=rank)) if canonical else parts)
        for seq, (tick, kind, actor, recipient, parts) in enumerate(shapes)
    ]
    return EventLog(events=events, complete=True)


def test_transmission_pairs_are_read_by_name_wherever_they_stand():
    scrambled, canonical = audit(_transmission_log(False)), audit(_transmission_log(True))
    for name, counterexamples in (("causality", [3, 5]), ("conservation", [4, 7])):
        assert scrambled.result(name).counterexamples == counterexamples
        assert scrambled.result(name).line() == canonical.result(name).line()


def test_causality_judges_each_outcome_against_its_latest_earlier_send():
    # tx 1 is delivered, then sent: the delivery precedes its send.  tx 2 is
    # dropped before it is sent.  tx 3 is sent at ticks 1 and 3; each
    # delivery is due `hops` ticks after the latest send logged before it.
    shapes = [
        (2, "deliver", "A", "B", ("DATA", ("tx", "1"))),
        (2, "send", "A", None, ("DATA", ("to", "*"), ("ch", "radio"), ("tx", "1"))),
        (2, "drop", "A", "C", ("dead", ("tx", "2"))),
        (2, "send", "A", None, ("DATA", ("to", "C"), ("ch", "radio"), ("tx", "2"))),
        (1, "send", "A", None, ("DATA", ("to", "*"), ("ch", "radio"), ("tx", "3"))),
        (2, "deliver", "A", "B", ("DATA", ("tx", "3"))),  # on time after the tick-1 send
        (3, "send", "A", None, ("DATA", ("to", "*"), ("ch", "radio"), ("tx", "3"))),
        (4, "deliver", "A", "C", ("DATA", ("tx", "3"))),  # on time after the tick-3 send
        (4, "deliver", "A", "D", ("DATA", ("hops", "3"), ("tx", "3"))),  # due at 6, not 4
    ]
    events = [
        SimEvent(tick, seq, kind, actor, recipient, "", "-", parts)
        for seq, (tick, kind, actor, recipient, parts) in enumerate(shapes)
    ]
    report = audit(EventLog(events=events, complete=True))
    assert report.result("causality").counterexamples == [0, 2, 8]
    assert report.result("conservation").passed


def _append(log, event, provider=None, message=None):
    """Append a copy of `event` at the log's last tick, carrying `message`
    as its payload when one is given; return its index."""
    last = log.events[-1]
    if message is not None:
        event = replace(event, digest=provider.hash(message.encoded).hex())
        log.payloads[event.digest] = message.encoded
    log.events.append(replace(event, tick=last.tick, seq=last.seq + 1))
    return len(log.events) - 1


def _first(log, kind, word):
    return next(e for e in log.events if e.kind == kind and e.word == word)


def _joiner_holds_the_key_before_its_admission():
    # N joins g1 at tick 10; handed the epoch-1 key, it opens L's chat at
    # tick 1 (event 7) and the join's rekey sealed under that key (event 57).
    scenario = line_scenario(
        ["L", "M1"], seed=21, script=[Action(1, "send_data", ("L", "*", "early")), Action(3, "join", ("N", "g1"))]
    )
    scenario.nodes.append(NodeSpec("N", [(50.0, 40.0)], 0.5))
    log = run(scenario)
    provider, rng, keypairs = make_provider(log.registry.provider_name), random.Random(7), log.registry.keypairs
    old_key = next(value for _, _, label, value in log.registry.secrets if label == ("group_key", "g1-1", 1))
    plaintext = seal_plain(
        MessageKind.REKEY, "public", group_key=old_key, epoch=1, lineage="g1-1", rows=[],
        member_key=rng.randbytes(16), member_id=1, leader="L", leader_public=keypairs["L"].public,
    )
    gift = msg(
        MessageKind.REKEY, group="g1", lineage="g1-1", epoch=1, mode="public",
        sealed=provider.pk_encrypt(keypairs["N"].public, plaintext, rng),
    )
    _deliver(log, provider, [gift], recipient="N")
    return log, "forward_secrecy", [7, 57]


def _accepted_request_without_payload():
    log, _, _ = _benign_line()
    accepted = _first(log, "verdict", "accept")
    return log, "chain_soundness", [_append(log, replace(accepted, digest="00" * 32))]


def _accepted_request_with_a_forged_chain():
    log, provider, _ = _benign_line()
    accepted = _first(log, "verdict", "accept")
    request = decode_message(log.payloads[accepted.digest])
    forged = request.replace(chain=bytes(b ^ 0xFF for b in request["chain"]))
    return log, "chain_soundness", [_append(log, accepted, provider, forged)]


def _request_processed_twice():
    log, _, _ = _benign_line()
    return log, "duplicate_suppression", [_append(log, _first(log, "verdict", "rreq_processed"))]


def _epoch_restated():
    log, _, _ = _benign_line()
    last_rekey = [e for e in log.events if e.kind == "rekey" and e.word != "ring"][-1]
    return log, "epoch_monotonicity", [_append(log, last_rekey)]


def _rekey_to_another_opens_for_the_departed():
    # After n3 left, n0 sends n1 a public-mode rekey that n3's own private
    # key opens.
    log, provider, rng = _benign_line()
    crafted = msg(
        MessageKind.REKEY, group="g1", lineage="g1-1", epoch=2, mode="public",
        sealed=provider.pk_encrypt(log.registry.keypairs["n3"].public, b"for n1", rng),
    )
    send = SimEvent(0, 0, "send", "n0", None, "", "-", ("REKEY", ("to", "n1")))
    return log, "backward_secrecy", [_append(log, send, provider, crafted)]


def _stale_chat(log, provider, rng):
    """A group DATA that n1 sends under epoch 1, which n3 holds."""
    old_key = next(value for _, _, label, value in log.registry.secrets if label == ("group_key", "g1-1", 1))
    stale = msg(
        MessageKind.DATA, group="g1", lineage="g1-1", epoch=1, route=[], hop=0,
        sealed=provider.sym_encrypt(old_key, b"stale chat", rng),
    )
    return stale, SimEvent(0, 0, "send", "n1", None, "", "-", ("DATA", ("to", "*")))


def _member_speaks_under_a_key_it_has_replaced():
    # n1 received epoch 2 at tick 24; at the last tick it still chats under
    # epoch 1, which the departed n3 holds.  No rekey in flight excuses it.
    log, provider, rng = _benign_line()
    stale, send = _stale_chat(log, provider, rng)
    return log, "backward_secrecy", [_append(log, send, provider, stale)]


def _member_speaks_under_a_key_it_has_replaced_just_after_a_removal():
    # n5's join takes g1 to epoch 2, which reaches n1 at tick 13; n3 is
    # removed at tick 23.  At tick 24 n1 chats under epoch 1: what is in
    # flight to it then is epoch 3, so it already held newer material.
    with open(os.path.join(FIXTURES, "benign_line.scn")) as handle:
        text = handle.read()
    text = text.replace("n4 0.5 400,0\n", "n4 0.5 400,0\nn5 0.5 50,40\n")
    log = run(parse_scenario(text.replace("2 discover n0 n4\n", "2 discover n0 n4\n5 join n5 g1\n")))
    provider = make_provider(log.registry.provider_name)
    stale, send = _stale_chat(log, provider, random.Random(7))
    digest = provider.hash(stale.encoded).hex()
    log.payloads[digest] = stale.encoded
    at = next(i for i, event in enumerate(log.events) if event.tick > 24)
    log.events.insert(at, replace(send, tick=24, digest=digest))
    log.events = [replace(event, seq=i) for i, event in enumerate(log.events)]
    return log, "backward_secrecy", [at]


@pytest.mark.parametrize(
    "breach",
    [
        _joiner_holds_the_key_before_its_admission,
        _accepted_request_without_payload,
        _accepted_request_with_a_forged_chain,
        _request_processed_twice,
        _epoch_restated,
        _rekey_to_another_opens_for_the_departed,
        _member_speaks_under_a_key_it_has_replaced,
        _member_speaks_under_a_key_it_has_replaced_just_after_a_removal,
    ],
    ids=lambda breach: breach.__name__.lstrip("_"),
)
def test_hand_built_breach_fails_its_property_alone(breach):
    # Each log passes every property before the hand-built events are added;
    # after, the one property fails at them and every other still passes.
    log, name, counterexamples = breach()
    report = audit(log)
    assert report.result(name).counterexamples == counterexamples
    assert [r.name for r in report.results if not r.passed] == [name]
