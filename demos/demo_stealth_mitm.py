#!/usr/bin/env python3
"""Walkthrough: how the budget-bound hash chain exposes an invisible relay.

Four nodes in a line discover a route twice: once clean, once with a
stealth man-in-the-middle owning the A-B link. The relay changes nothing
it can see -- it only costs the request one extra hop of its budget -- and
that alone shifts every term of the destination's chain reconstruction.
"""

from manetsec.audit import audit
from manetsec.sim import Action, AdversarySpec, GroupSpec, NodeSpec, Scenario, SimParams, run


def build(with_relay):
    return Scenario(
        seed=7,
        nodes=[
            NodeSpec("S", [(0, 0)], 0.6),
            NodeSpec("A", [(100, 0)], 0.9),
            NodeSpec("B", [(200, 0)], 0.7),
            NodeSpec("D", [(300, 0)], 0.6),
        ],
        groups=[GroupSpec("g1", 8, ["S", "A", "B", "D"])],
        params=SimParams(radio_radius=110, rreq_lifetime=8, duration=20),
        script=[Action(2, "discover", ("S", "D"))],
        adversaries=[AdversarySpec("mitm_relay", ("link", "A", "B"))] if with_relay else [],
    )


def show(title, log):
    print(f"--- {title} ---")
    for event in log.events:
        if event.kind == "deliver" and event.word == "RREQ":
            print(f"  t={event.tick:<3} {event.principals:<12} carries the request")
        if event.kind == "verdict" and event.word in ("accept", "reject", "route_installed"):
            print(f"  t={event.tick:<3} {event.principals:<12} {event.detail}")
    report = audit(log)
    print(f"  audit: {'all properties hold' if report.passed else report.to_text()}")
    print()


def main():
    print(__doc__)
    show("clean run: route installs", run(build(with_relay=False)))
    show("stealth relay on A-B: destination discards", run(build(with_relay=True)))
    print(
        "The relay forwarded the request unmodified, but the remaining-hops\n"
        "field it decremented feeds both the per-hop chain terms and the\n"
        "destination's reconstruction, so the digests disagree and the\n"
        "request dies at D -- no reply, no route."
    )


if __name__ == "__main__":
    main()
