import importlib
import os
import random

import pytest

from manetsec import encoding
from manetsec.audit import audit, knowledge_set
from manetsec.crypto import make_provider
from manetsec.messages import MessageKind, msg, seal_plain
from manetsec.scenariofile import parse_scenario
from manetsec.sim import (
    Action,
    EventLog,
    Expectation,
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


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "scenarios")
REAUDITED = [f"fixture:{name}" for name in sorted(os.listdir(FIXTURES)) if name.endswith(".scn")] + [
    f"churn:{seed}:{fault}" for seed in range(500, 505) for fault in ("plain", "leak_key", "skip_rekey", "forge_admit")
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
    # The package re-exports the audit() function under the module's name.
    audit_module = importlib.import_module("manetsec.audit")
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


def _benign_line():
    """The benign_line fixture's log (n3 leaves at tick 20), its provider and
    a seeded rng for crafting messages."""
    with open(os.path.join(FIXTURES, "benign_line.scn")) as handle:
        log = run(parse_scenario(handle.read()))
    return log, make_provider(log.registry.provider_name), random.Random(7)


def _deliver_to_n3(log, provider, messages):
    """Append a delivery to n3 of each message at the log's last tick."""
    last = log.events[-1]
    for n, message in enumerate(messages, start=1):
        digest = provider.hash(message.encoded).hex()
        log.payloads[digest] = message.encoded
        parts = (message.kind.name, "crafted")
        log.events.append(SimEvent(last.tick, last.seq + n, "deliver", "n2", "n3", "", digest, parts))


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
    _deliver_to_n3(log, provider, crafted)
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
    _deliver_to_n3(log, provider, [crafted])
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
    _deliver_to_n3(log, provider, [crafted])
    assert group_key in knowledge_set("n3", log).sym_keys
    assert audit(log).result("backward_secrecy").line() == "backward_secrecy: PASS"
