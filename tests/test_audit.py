import importlib

import pytest

from manetsec.audit import audit, expectation_met, knowledge_set
from manetsec.sim import Action, Expectation, SimulationError, run
from topologies import churn_scenario, line_scenario, stealth_link_scenario

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
    assert k.has_key_labelled("group_key:g1-1:1")
    assert k.has_key_labelled("member_key")
    assert k.private_key is not None


def test_expectations_evaluate_against_log():
    scenario = stealth_link_scenario(seed=4)
    log = run(scenario)
    met, _ = expectation_met(log, Expectation("verdict", ("D", "reject:chain_mismatch")))
    assert met
    met, _ = expectation_met(log, Expectation("no_verdict", ("D", "accept:")))
    assert met
    met, _ = expectation_met(log, Expectation("route", ("S", "D")))
    assert not met
    met, _ = expectation_met(log, Expectation("no_route", ("S", "D")))
    assert met
    with pytest.raises(SimulationError):
        expectation_met(log, Expectation("wat", ()))


def test_detection_outcomes_uses_scenario_expectations():
    scenario = stealth_link_scenario(seed=4)
    scenario.expectations = [Expectation("verdict", ("D", "accept:"))]  # wrong on purpose
    report = audit(run(scenario))
    assert not report.result("detection_outcomes").passed


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
    assert not before.has_key_labelled("group_key")
    assert after.has_key_labelled("group_key:g1-1:2")


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


def test_undecodable_plaintext_counts_as_opened():
    # Two crafted deliveries to n3, which leaves at tick 20: a DATA sealed
    # under a group key n3 holds and a SESSION_1 sealed to its public key,
    # both carrying a plaintext that is not an encoding at all.
    import os
    import random

    from manetsec.crypto import make_provider
    from manetsec.messages import MessageKind, msg
    from manetsec.scenariofile import parse_scenario
    from manetsec.sim import SimEvent

    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "benign_line.scn")
    with open(path) as handle:
        log = run(parse_scenario(handle.read()))
    provider = make_provider(log.registry.provider_name)
    before = knowledge_set("n3", log)
    key = next(k for k, label in before.sym_keys.items() if label.startswith("group_key:"))
    rng = random.Random(7)
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
    last = log.events[-1]
    for n, message in enumerate(crafted, start=1):
        digest = provider.hash(message.encoded).hex()
        log.payloads[digest] = message.encoded
        detail = f"{message.kind.name}:crafted"
        log.events.append(SimEvent(last.tick, last.seq + n, "deliver", "n2>n3", digest, detail))
    report = audit(log)
    assert report.result("backward_secrecy").passed
    after = knowledge_set("n3", log)
    assert after.opened == before.opened | {provider.hash(m.encoded).hex() for m in crafted}
    assert after.sym_keys == before.sym_keys


def test_colon_in_crafted_rekey_lineage_is_audited():
    # A public-mode REKEY sealed to n3 after it left, naming a lineage with a
    # colon in it: n3 files the key it opens as `group_key:g1:x:2`, and the
    # auditor must read the epoch from the right instead of dying on it.
    import os
    import random

    from manetsec.crypto import make_provider
    from manetsec.messages import MessageKind, msg, seal_plain
    from manetsec.scenariofile import parse_scenario
    from manetsec.sim import SimEvent

    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "benign_line.scn")
    with open(path) as handle:
        log = run(parse_scenario(handle.read()))
    provider = make_provider(log.registry.provider_name)
    rng = random.Random(7)
    plaintext = seal_plain(
        MessageKind.REKEY, "public", group_key=rng.randbytes(16), epoch=2, lineage="g1:x", rows=[],
        member_key=rng.randbytes(16), member_id=1, leader="n2", leader_public=log.registry.keypairs["n2"].public,
    )
    crafted = msg(
        MessageKind.REKEY, group="g1", lineage="g1:x", epoch=2, mode="public",
        sealed=provider.pk_encrypt(log.registry.keypairs["n3"].public, plaintext, rng),
    )
    digest = provider.hash(crafted.encoded).hex()
    log.payloads[digest] = crafted.encoded
    last = log.events[-1]
    log.events.append(SimEvent(last.tick, last.seq + 1, "deliver", "n2>n3", digest, "REKEY:crafted"))
    assert "group_key:g1:x:2" in knowledge_set("n3", log).sym_keys.values()
    assert audit(log).result("backward_secrecy").passed
