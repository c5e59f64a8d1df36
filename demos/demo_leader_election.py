#!/usr/bin/env python3
"""Walkthrough: weighted leader election and what a leadership change costs.

The election weight combines mobility, battery, and observed behaviour;
the steadiest, best-charged, best-behaved candidate scores lowest and
wins. When a leader dies, the survivors elect a replacement, every key it
ever controlled is retired, and the leaders' shared ring key rolls too.
"""

from manetsec.audit import audit, knowledge_set
from manetsec.group import NodeAttributes, WeightConfig, elect_leader, weight
from manetsec.sim import Action, GroupSpec, NodeSpec, Scenario, SimParams, run


def main():
    print(__doc__)
    cfg = WeightConfig(0.5, 0.3, 0.2)
    candidates = [
        NodeAttributes("steady", mobility_m=0.2, battery_b=0.9, trust_t=0.8),
        NodeAttributes("sprinter", mobility_m=3.0, battery_b=0.9, trust_t=0.8),
        NodeAttributes("lowcell", mobility_m=0.2, battery_b=0.2, trust_t=0.8),
        NodeAttributes("shady", mobility_m=0.2, battery_b=0.9, trust_t=0.1),
    ]
    print("  candidate weights (smaller wins):")
    for attrs in candidates:
        print(f"    {attrs.node:<9} -> {weight(attrs, cfg):.3f}")
    print(f"  elected: {elect_leader(candidates, cfg)}\n")

    scenario = Scenario(
        seed=11,
        nodes=[
            NodeSpec("a", [(0, 0)], 1.0),
            NodeSpec("b", [(100, 0)], 0.9),
            NodeSpec("c", [(0, 100)], 0.7),
            NodeSpec("d", [(100, 100)], 0.5),
        ],
        groups=[GroupSpec("g1", 8, ["a", "b", "c", "d"])],
        params=SimParams(radio_radius=160, duration=70),
        script=[
            Action(5, "crash_leader", ("g1",)),
            Action(55, "send_data", ("c", "*", "under new management")),
        ],
    )
    log = run(scenario)
    for event in log.events:
        if event.kind in ("elect", "alert", "rekey"):
            print(f"  t={event.tick:<3} {event.kind:<6} {event.principals:<8} {event.detail}")
    old = knowledge_set("a", log).sym_keys
    lineages = sorted(
        {label[1] for _, _, label, value in log.registry.secrets if label[0] == "group_key" and value in old}
    )
    print(f"\n  the crashed leader holds keys only for lineage(s) {lineages};")
    print("  everything after the election is sealed under a lineage it never saw.")
    report = audit(log)
    print(f"  audit: {'all properties hold' if report.passed else report.to_text()}")


if __name__ == "__main__":
    main()
