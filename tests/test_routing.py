import random

import pytest

import corpus
from manetsec import encoding
from manetsec.artifacts import render_detail
from manetsec.crypto import DeterministicProvider, RealCryptoProvider
from manetsec.keymgmt import CertificateAuthority
from manetsec.messages import Message, MessageKind
from manetsec.node import mutate_message
from manetsec.routing import (
    ACCEPT,
    REJECT,
    Router,
    chain_extend,
    chain_origin,
    expected_chain,
    make_rrep,
    make_rreq,
    rrep_signature_ok,
    rreq_signed_payload,
    verify_route_signatures,
)
from manetsec.runtime import Ctx
from manetsec.sim import SimParams


def nested_hash_oracle(provider, source, dest, seq, origin_budget, forwarders):
    """Independent chain construction: literal nesting, built origin-first."""
    digest = provider.hash(encoding.encode(source, dest, seq, origin_budget))
    budget = origin_budget
    for node in forwarders:
        budget -= 1
        digest = provider.hash(encoding.encode(digest, node, budget))
    return digest


class Net:
    """A handful of routers sharing one directory, messages moved by hand."""

    def __init__(self, names, seed=4, provider=DeterministicProvider):
        self.provider = provider()
        self.rng = random.Random(seed)
        authority = CertificateAuthority(self.provider, self.rng)
        self.keys = {n: self.provider.generate_keypair(self.rng) for n in names}
        self.directory = {n: self.keys[n].public for n in names}
        self.routers = {n: Router(n, self.keys[n], self.provider, SimParams()) for n in names}

    def ctx(self, name, now=0):
        return Ctx(name=name, now=now, rng=self.rng)

    def originate(self, source, dest, lifetime, now=0):
        ctx = self.ctx(source, now)
        self.routers[source].start_discovery(dest, lifetime, ctx)
        return next(e.message for e in ctx.outbound if e.message.kind == MessageKind.RREQ)

    def step(self, name, message, now=0):
        """Feed one request to a router; returns (forwarded message, notes)."""
        ctx = self.ctx(name, now)
        self.routers[name].handle_rreq(message, self.directory, ctx)
        out = next((e.message for e in ctx.outbound if e.message.kind == MessageKind.RREQ), None)
        reply = next((e.message for e in ctx.outbound if e.message.kind == MessageKind.RREP), None)
        return out or reply, ctx.notes

    def reply_step(self, name, message, now=0):
        ctx = self.ctx(name, now)
        done = self.routers[name].handle_rrep(message, self.directory, ctx)
        out = next((e.message for e in ctx.outbound if e.message.kind == MessageKind.RREP), None)
        return out, ctx.notes, done


@pytest.fixture
def net():
    return Net(["S", "A", "B", "D"])


# ---------------------------------------------------------------------------
# Chain construction and the worked trace
# ---------------------------------------------------------------------------


def test_origin_chain_matches_oracle(net):
    message = make_rreq(net.provider, net.keys["S"], "S", "D", 1, 8)
    assert message["chain"] == nested_hash_oracle(net.provider, "S", "D", 1, 8, [])
    assert message["route"] == ["S"]
    assert message["lifetime"] == 8


def test_origin_rejects_zero_budget(net):
    with pytest.raises(ValueError):
        make_rreq(net.provider, net.keys["S"], "S", "D", 1, 0)


def test_different_seq_different_chain(net):
    one = make_rreq(net.provider, net.keys["S"], "S", "D", 1, 8)
    two = make_rreq(net.provider, net.keys["S"], "S", "D", 2, 8)
    assert one["chain"] != two["chain"]


def test_honest_two_intermediate_trace(net):
    # S -> A -> B -> D with an origin budget of 8.
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    assert at_a["lifetime"] == 7
    assert at_a["chain"] == chain_extend(net.provider, origin["chain"], "A", 7)
    at_b, _ = net.step("B", at_a)
    assert at_b["lifetime"] == 6
    assert at_b["chain"] == nested_hash_oracle(net.provider, "S", "D", 1, 8, ["A", "B"])
    reply, notes = net.step("D", at_b)
    assert any(render_detail(n.parts).startswith("accept:") for n in notes)
    assert reply is not None and reply.kind == MessageKind.RREP
    assert reply["route"] == ["S", "A", "B", "D"]
    assert len(reply["sigs"]) == 4
    assert reply["chain"] == at_b["chain"]


def test_destination_reconstruction_uses_received_budget(net):
    # The reconstruction must be driven by the budget as received, not by
    # any assumption about the origin's value.
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    at_b, _ = net.step("B", at_a)
    expect = expected_chain(net.provider, "S", "D", 1, at_b["lifetime"], at_b["route"])
    assert expect == at_b["chain"]


def test_stealth_budget_burn_detected_at_destination(net):
    # An invisible relay between A and B burns one budget unit; B still
    # forwards (nothing it can check has changed), D's reconstruction shifts
    # by one everywhere and the chain no longer matches.
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    relayed = at_a.replace(lifetime=at_a["lifetime"] - 1)  # 6, chain untouched
    at_b, notes = net.step("B", relayed)
    assert at_b is not None, "honest successor must forward the relayed copy"
    assert at_b["lifetime"] == 5
    assert at_b["chain"] == chain_extend(net.provider, at_a["chain"], "B", 5)
    reply, notes = net.step("D", at_b)
    assert reply is None
    reasons = [render_detail(n.parts) for n in notes if render_detail(n.parts).startswith("reject:")]
    assert reasons and reasons[0].startswith("reject:chain_mismatch")
    # The shifted reconstruction D performed differs from the carried chain
    # exactly because its innermost term now uses origin budget 7, not 8.
    shifted = nested_hash_oracle(net.provider, "S", "D", 1, 7, ["A", "B"])
    assert shifted == expected_chain(net.provider, "S", "D", 1, 5, ["S", "A", "B"])


def test_transparent_repeater_is_not_detected(net):
    # Documented protocol limitation: a relay that does not burn budget is
    # indistinguishable from the radio itself.
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    repeated = at_a.replace()  # byte-identical relay
    at_b, _ = net.step("B", repeated)
    reply, notes = net.step("D", at_b)
    assert any(render_detail(n.parts).startswith("accept:") for n in notes)


# ---------------------------------------------------------------------------
# Forwarding rules
# ---------------------------------------------------------------------------


def test_forward_discards_duplicates_silently(net):
    origin = net.originate("S", "D", 8)
    first, _ = net.step("A", origin)
    assert first is not None
    second, notes = net.step("A", origin)
    assert second is None
    assert any(n.kind == "drop" and render_detail(n.parts).startswith("duplicate") for n in notes)


def test_forward_discards_loops(net):
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    looped = at_a.replace(seq=2)  # dodge the duplicate check
    out, notes = net.step("A", looped)
    assert out is None
    assert any(render_detail(n.parts).startswith("loop") for n in notes)


def test_forward_requires_remaining_budget(net):
    origin = net.originate("S", "D", 1)
    at_a, _ = net.step("A", origin)  # forwards at 0
    assert at_a["lifetime"] == 0
    out, notes = net.step("B", at_a)
    assert out is None
    assert any("lifetime_exhausted" in render_detail(n.parts) for n in notes)


def test_destination_accepts_at_zero_budget(net):
    origin = net.originate("S", "D", 2)
    at_a, _ = net.step("A", origin)
    at_b, _ = net.step("B", at_a)
    assert at_b["lifetime"] == 0
    reply, notes = net.step("D", at_b)
    assert any(render_detail(n.parts).startswith("accept:") for n in notes)


def test_forward_discards_stripped_signature(net):
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    stripped = at_a.replace(sigs=at_a["sigs"][:-1])
    out, notes = net.step("B", stripped)
    assert out is None
    assert any("bad_signature" in render_detail(n.parts) for n in notes)


def test_foreign_route_entries_discarded(net):
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    ctx = net.ctx("B")
    group = {name: net.directory[name] for name in ("B", "D")}  # S, A unknown
    net.routers["B"].handle_rreq(at_a, group, ctx)
    assert any(n.kind == "drop" and "foreign_group" in render_detail(n.parts) for n in ctx.notes)


def test_strict_chain_mode_detects_at_first_honest_hop(net):
    net.routers["B"].params = SimParams(strict_chain=True)
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    relayed = at_a.replace(lifetime=at_a["lifetime"] - 1)
    out, notes = net.step("B", relayed)
    assert out is None
    assert any("chain_mismatch" in render_detail(n.parts) for n in notes)


def test_stale_seq_rejected_at_destination(net):
    first = net.originate("S", "D", 8)
    a1, _ = net.step("A", first)
    b1, _ = net.step("B", a1)
    net.step("D", b1)
    second = net.originate("S", "D", 8)  # seq 2
    assert second["seq"] == 2
    a2, _ = net.step("A", second)
    b2, _ = net.step("B", a2)
    net.step("D", b2)
    # Now replay seq 1 along a "fresh" path: D has already answered seq 2.
    stale = b1.replace()
    net.routers["D"].seen.discard(("S", 1))  # force past the dedup to hit the seq check
    reply, notes = net.step("D", stale)
    assert reply is None
    assert any("stale_seq" in render_detail(n.parts) for n in notes)


# ---------------------------------------------------------------------------
# Replies
# ---------------------------------------------------------------------------


def full_discovery(net, lifetime=8):
    origin = net.originate("S", "D", lifetime)
    at_a, _ = net.step("A", origin)
    at_b, _ = net.step("B", at_a)
    reply, _ = net.step("D", at_b)
    return reply


def test_reply_travels_reverse_path_and_installs(net):
    reply = full_discovery(net)
    at_b, _, _ = net.reply_step("B", reply)
    assert at_b == reply  # forwarded unchanged
    at_a, _, _ = net.reply_step("A", at_b)
    assert at_a == reply
    _, notes, done = net.reply_step("S", at_a)
    assert done is not None
    assert any("route_installed" in render_detail(n.parts) for n in notes)
    entry = net.routers["S"].route_to("D")
    assert entry.route == ["S", "A", "B", "D"]
    assert entry.next_hop == "A"
    assert entry.seq == 1
    # The destination learned the reverse route when it accepted.
    back = net.routers["D"].route_to("S")
    assert back.route == ["D", "B", "A", "S"]


def test_reply_rejected_off_path(net):
    other = Net(["S", "A", "B", "D", "E"])
    origin = other.originate("S", "D", 8)
    at_a, _ = other.step("A", origin)
    at_b, _ = other.step("B", at_a)
    reply, _ = other.step("D", at_b)
    out, notes, _ = other.reply_step("E", reply)
    assert out is None
    assert any("rrep_off_path" in render_detail(n.parts) for n in notes)


def test_reply_route_tampering_detected(net):
    reply = full_discovery(net)
    swapped = reply.replace(route=["S", "B", "A", "D"])
    out, notes, _ = net.reply_step("B", swapped)
    assert out is None
    assert any("bad_signature" in render_detail(n.parts) for n in notes)


def test_reply_chain_mismatch_rejected_at_source(net):
    reply = full_discovery(net)
    flipped = bytearray(reply["chain"])
    flipped[0] ^= 1
    bad = reply.replace(chain=bytes(flipped))
    _, notes, done = net.reply_step("S", bad)
    assert done is None
    # The destination signature covers the chain, so either check may fire
    # first; both are rejections.
    assert any("rrep_reject" in render_detail(n.parts) for n in notes)


def test_reply_forwarder_signature_flip_rejected_at_source(net):
    # The destination signs the route and chain but not the forwarders'
    # signatures, so only the source's own check of them catches this.
    reply = full_discovery(net)
    sigs = list(reply["sigs"])
    flipped = bytearray(sigs[1])
    flipped[0] ^= 1
    sigs[1] = bytes(flipped)
    bad = reply.replace(sigs=sigs)
    at_a, _, _ = net.reply_step("A", bad)
    assert at_a == bad
    _, notes, done = net.reply_step("S", at_a)
    assert done is None
    assert [render_detail(n.parts) for n in notes] == ["rrep_reject:bad_signature:dest=D:seq=1"]
    assert net.routers["S"].route_to("D") is None


def test_reply_without_signatures_discarded_on_path(net):
    reply = full_discovery(net)
    bare = reply.replace(sigs=[])
    assert not rrep_signature_ok(net.provider, bare, net.directory)
    out, notes, _ = net.reply_step("B", bare)
    assert out is None
    assert [render_detail(n.parts) for n in notes] == ["rrep_discard:bad_signature:source=S:seq=1"]


def test_reply_path_longer_than_budget_rejected_at_source(net):
    # Rebuilding the chain for this path would need a negative budget at
    # the source: no chain exists, so the reply fails the chain check.
    net.originate("S", "D", 2)
    forged = make_rrep(net.provider, net.keys["D"], "D", make_rreq(net.provider, net.keys["S"], "S", "D", 1, 2))
    long = forged.replace(route=["S", "A", "B", "A", "B", "D"])
    _, notes, done = net.reply_step("S", long)
    assert done is None
    assert [render_detail(n.parts) for n in notes] == ["rrep_reject:chain_mismatch:dest=D:seq=1"]


def test_request_with_empty_route_rejected_at_destination(net):
    origin = net.originate("S", "D", 8)
    empty = origin.replace(route=[], sigs=[], lifetime=0)
    assert expected_chain(net.provider, "S", "D", 1, 0, []) is None
    reply, notes = net.step("D", empty)
    assert reply is None
    assert any(render_detail(n.parts).startswith("reject:chain_mismatch") for n in notes)


def test_replayed_reply_with_old_seq_rejected(net):
    reply1 = full_discovery(net)
    reply2 = full_discovery(net)
    assert reply2["seq"] == 2
    _, notes, done = net.reply_step("S", reply2)
    assert done is not None
    _, notes, done = net.reply_step("S", reply1)
    assert done is None
    assert any("stale_seq" in render_detail(n.parts) for n in notes)


def test_no_reply_for_rejected_request(net):
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    relayed = at_a.replace(lifetime=at_a["lifetime"] - 1)
    at_b, _ = net.step("B", relayed)
    reply, _ = net.step("D", at_b)
    assert reply is None


# ---------------------------------------------------------------------------
# What the route signatures cover
# ---------------------------------------------------------------------------


def test_signatures_bind_identity_and_discovery(net):
    message = net.originate("S", "D", 8)
    assert verify_route_signatures(net.provider, message, net.directory)
    for field, op, value in (
        ("source", "set", "A"),
        ("dest", "set", "B"),
        ("seq", "add", 1),
    ):
        mutated = mutate_message(message, field, op, value, net.rng)
        assert not verify_route_signatures(net.provider, mutated, net.directory)


def test_single_field_mutations_rejected(net):
    origin = net.originate("S", "D", 8)
    at_a, _ = net.step("A", origin)
    cases = [
        ("lifetime", "add", 1),
        ("lifetime", "add", -1),
        ("seq", "add", 1),
        ("source", "set", "B"),
        ("dest", "set", "A"),
        ("chain", "flip", None),
        ("chain", "flipbit", None),
        ("sigs", "drop_last", None),
        ("route", "swap", None),
        ("route", "drop_last", None),
    ]
    for field, op, value in cases:
        mutated = mutate_message(at_a, field, op, value, net.rng)
        fresh = Net(["S", "A", "B", "D"])
        fresh.routers["S"].next_seq = 1  # S already used seq 1
        forwarded, notes = fresh.step("B", mutated)
        if forwarded is not None and forwarded.kind == MessageKind.RREQ:
            reply, notes = fresh.step("D", forwarded)
            assert reply is None, f"mutation {field}/{op} slipped through"
            assert any(
                render_detail(n.parts).startswith("reject:") or n.kind == "drop" for n in notes
            ), f"mutation {field}/{op} not rejected at destination"


def reference_route_signatures(provider, message, directory):
    """verify_route_signatures as specified: each signer's payload built
    in full by rreq_signed_payload."""
    route, sigs = message["route"], message["sigs"]
    if len(route) != len(sigs) or not route:
        return False
    return all(
        node in directory
        and provider.verify(
            directory[node], rreq_signed_payload(message["source"], message["dest"], message["seq"], node), sig
        )
        for node, sig in zip(route, sigs)
    )


@pytest.mark.parametrize("provider", [DeterministicProvider, RealCryptoProvider], ids=["double", "real"])
def test_route_signatures_agree_with_the_full_payload_reference(provider):
    net = Net(["S", "A", "B", "C", "D", "X"], provider=provider)
    request = net.originate("S", "D", 8)
    for name in ("A", "B", "C"):
        request, _ = net.step(name, request)
    route, sigs = request["route"], request["sigs"]
    assert route == ["S", "A", "B", "C"]
    # X's signature over the same discovery, and S's over another one.
    foreign = [
        net.provider.sign(net.keys["X"].private, rreq_signed_payload("S", "D", 1, "X")),
        net.provider.sign(net.keys["S"].private, rreq_signed_payload("S", "D", 2, "S")),
    ]
    cases = [(request, net.directory, True)]
    for i, name in enumerate(route):
        flipped = sigs[i][:-1] + bytes([sigs[i][-1] ^ 0x01])
        swapped = list(sigs)
        swapped[i], swapped[i - 1] = swapped[i - 1], swapped[i]
        variants = [
            sigs[:i] + [flipped] + sigs[i + 1 :],
            swapped,
            sigs[:i] + sigs[i + 1 :],  # missing
            sigs[:i] + [b""] + sigs[i + 1 :],
        ] + [sigs[:i] + [sig] + sigs[i + 1 :] for sig in foreign]
        cases += [(request.replace(sigs=variant), net.directory, False) for variant in variants]
        outsider = {n: key for n, key in net.directory.items() if n != name}
        cases.append((request, outsider, False))
    cases.append((request.replace(route=route[:-1] + ["X"]), net.directory, False))
    cases.append((request.replace(route=[], sigs=[]), net.directory, False))
    for message, directory, valid in cases:
        assert reference_route_signatures(net.provider, message, directory) == valid
        assert verify_route_signatures(net.provider, message, directory) == valid


# Runs with many forwards (a static and a walking 64-node grid), a stealth
# relay and the mutators, whose forwarders append to requests an adversary
# rewrote or passed on.
APPEND_CASES = ["grid_mobile:900:plain", "grid_static:700:plain"] + [
    case_id for case_id in corpus.PINNED if "stealth_mitm" in case_id or "modify_field" in case_id
]


@pytest.mark.parametrize("case_id", APPEND_CASES)
def test_each_forwarded_request_is_the_request_replaced(case_id, monkeypatch):
    # A forwarder appends its hop to the request it received; what it sends
    # equals that request with every changed field replaced, in its fields
    # and its bytes.  The forwards are watched as the run makes them, so the
    # run is a fresh one.
    original, forwarded = Message.with_hop, []

    def with_hop(self, hop, sig, lifetime, chain):
        appended = original(self, hop, sig, lifetime, chain)
        expect = self.replace(lifetime=lifetime, route=self["route"] + [hop], sigs=self["sigs"] + [sig], chain=chain)
        forwarded.append(
            appended == expect
            and dict(appended.fields) == dict(expect.fields)
            and type(appended["route"]) is type(appended["sigs"]) is list
            and appended.encoded == expect.encoded
        )
        return appended

    monkeypatch.setattr(Message, "with_hop", with_hop)
    corpus.fresh(case_id)
    assert forwarded and all(forwarded)
