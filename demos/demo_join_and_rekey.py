#!/usr/bin/env python3
"""Walkthrough: mutual authentication at join, and what rekeying buys.

A node joins a running group: it challenges the leader's knowledge of its
announced quadratic residue, the leader checks the node's certificate, and
only then do keys flow. Every membership change rotates the group key, so
the auditor can prove the newcomer cannot read the past and the departed
cannot read the future.
"""

from manetsec.audit import audit, knowledge_set
from manetsec.sim import Action, GroupSpec, NodeSpec, Scenario, SimParams, run

NAMES = {
    1: "join request",
    2: "identification parameters + commitment",
    3: "challenge",
    4: "response",
    5: "certificate",
    6: "member id + derived key (sealed to the joiner)",
    7: "nonce under the derived key",
    8: "nonce echo + member list + group key",
    9: "rekey to the existing members",
}


def main():
    print(__doc__)
    scenario = Scenario(
        seed=3,
        nodes=[
            NodeSpec("L", [(0, 0)], 1.0),
            NodeSpec("M1", [(100, 0)], 0.8),
            NodeSpec("M2", [(0, 100)], 0.7),
            NodeSpec("N", [(50, 50)], 0.6),
        ],
        groups=[GroupSpec("g1", 8, ["L", "M1", "M2"])],
        params=SimParams(radio_radius=130, duration=45),
        script=[
            Action(2, "join", ("N", "g1")),
            Action(20, "send_data", ("M1", "*", "hello group")),
            Action(25, "leave", ("M2",)),
            Action(32, "send_data", ("M1", "*", "after the leave")),
        ],
    )
    log = run(scenario)
    step = 0
    for event in log.events:
        if event.kind == "send" and event.actor in ("L", "N"):
            kind = event.word
            if kind in (
                "JOIN_REQ", "ZK_PARAMS", "ZK_CHALLENGE", "ZK_RESPONSE",
                "CERT", "ADMIT", "NONCE", "MEMBER_SET", "REKEY",
            ) and step < 9:
                step += 1
                print(f"  message {step}: t={event.tick:<3} {event.principals} sends {kind:<12} ({NAMES[step]})")
        if event.kind in ("admit", "remove", "rekey") and event.word != "ring":
            print(f"  event:     t={event.tick:<3} {event.kind} {event.principals} {event.detail}")
    print()
    for who in ("N", "M2"):
        held = knowledge_set(who, log).sym_keys
        keys = sorted(
            ":".join(map(str, label))
            for _, _, label, value in log.registry.secrets
            if label[0] == "group_key" and value in held
        )
        print(f"  {who} ended the run holding: {keys}")
    print(
        "\n  N joined at epoch 2 and never holds epoch 1 (cannot read the past);\n"
        "  M2 left before epoch 3 and never holds it (cannot read the future)."
    )
    report = audit(log)
    print(f"\n  audit: {'all properties hold' if report.passed else report.to_text()}")


if __name__ == "__main__":
    main()
