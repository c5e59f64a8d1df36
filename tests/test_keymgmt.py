import random

import pytest

from manetsec import encoding
from manetsec.artifacts import render_detail
from manetsec.crypto import DecryptionError, make_provider
from manetsec.group import update_trust
from manetsec.keymgmt import (
    Certificate,
    CertificateAuthority,
    JOIN_ORDER,
    LeaderJoinSession,
    LeaderKeyService,
    MemberKeyService,
    NodeJoinState,
    PRIME_BITS,
    RING_GENERATOR,
    RING_MODULUS,
    RING_SECRET_BITS,
    SessionService,
    _draw_prime,
    check_certificate,
    derive_member_key,
    leader_ring_agree,
)
from manetsec.messages import MessageKind, msg, open_sealed, seal_plain
from manetsec.runtime import Ctx
from manetsec.sim import SimParams

# The run parameters every service here is built with.
PARAMS = SimParams()


def make_ctx(name, now, rng):
    return Ctx(name=name, now=now, rng=rng)


@pytest.fixture
def world(provider):
    rng = random.Random(1234)
    authority = CertificateAuthority(provider, rng)

    class World:
        pass

    w = World()
    w.notes = []
    w.provider = provider
    w.rng = rng
    w.authority = authority
    w.keys = {}
    w.certs = {}
    for name in ("L", "M1", "M2", "N"):
        w.keys[name] = provider.generate_keypair(rng)
        w.certs[name] = authority.issue(name, w.keys[name].public)
    w.leader = LeaderKeyService(
        "L", "g1", "g1-1", w.keys["L"], provider, rng, authority.public, 8, PARAMS
    )
    return w


# ---------------------------------------------------------------------------
# Keys and certificates
# ---------------------------------------------------------------------------


def test_derive_member_key_deterministic(provider):
    a = derive_member_key(7, 123456789, provider)
    b = derive_member_key(7, 123456789, provider)
    assert a == b


def test_derive_member_key_distinct_across_ids(provider):
    secret = 987654321
    keys = {derive_member_key(i, secret, provider) for i in range(1, 65)}
    assert len(keys) == 64


def test_derive_member_key_distinct_across_secrets(provider, rng):
    seen = set()
    for _ in range(1000):
        seen.add(derive_member_key(5, rng.getrandbits(128), provider))
    assert len(seen) == 1000


def test_group_key_freshness(provider, rng):
    k1 = provider.generate_symmetric_key(rng)
    k2 = provider.generate_symmetric_key(rng)
    assert k1 != k2


def test_certificate_roundtrip(provider, rng):
    authority = CertificateAuthority(provider, rng)
    pair = provider.generate_keypair(rng)
    cert = authority.issue("node", pair.public)
    assert check_certificate(provider, authority.public, cert)
    forged = Certificate("node", pair.public, rng.randbytes(32))
    assert not check_certificate(provider, authority.public, forged)
    resubjected = Certificate("other", pair.public, cert.authority_sig)
    assert not check_certificate(provider, authority.public, resubjected)


# ---------------------------------------------------------------------------
# Join handshake (service level, messages ferried by hand)
# ---------------------------------------------------------------------------


def run_join(w, joiner_name, tamper=None, max_steps=20, leader="L"):
    """Ferry messages between `w.leader`, named `leader`, and the joiner;
    returns the joiner's service and all envelopes.  The notes both sides
    leave are gathered, in order, in `w.notes`."""
    member = MemberKeyService(
        joiner_name, w.keys[joiner_name], w.certs[joiner_name], w.provider, PARAMS
    )
    now = [0]
    transcript = []

    def deliver(envelopes):
        now[0] += 1
        for env in envelopes:
            if tamper is not None:
                env = tamper(env) or env
            transcript.append(env)
            ctx = make_ctx("?", now[0], w.rng)
            if env.message.kind in (
                MessageKind.JOIN_REQ,
                MessageKind.ZK_CHALLENGE,
                MessageKind.CERT,
                MessageKind.NONCE,
            ):
                ctx.name = leader
                w.leader.handle_join(env.message, ctx)
            elif env.message.kind in (
                MessageKind.ZK_PARAMS,
                MessageKind.ZK_RESPONSE,
                MessageKind.ADMIT,
                MessageKind.MEMBER_SET,
            ):
                ctx.name = joiner_name
                member.handle_join(env.message, ctx)
            else:
                continue
            w.notes.extend(ctx.notes)
            deliver(ctx.outbound)

    ctx = make_ctx(joiner_name, 0, w.rng)
    member.begin_join(leader, ctx)
    deliver(ctx.outbound)
    return member, transcript


def test_honest_join_admits_and_rekeys(world):
    before_epoch = world.leader.epoch
    member, transcript = run_join(world, "N")
    assert member.join.expects is None and member.is_member()
    assert world.leader.join_sessions["N"].expects is None
    assert "N" in world.leader.member_view
    assert world.leader.epoch == before_epoch + 1
    kinds = [env.message.kind for env in transcript]
    assert kinds == [
        MessageKind.JOIN_REQ,
        MessageKind.ZK_PARAMS,
        MessageKind.ZK_CHALLENGE,
        MessageKind.ZK_RESPONSE,
        MessageKind.CERT,
        MessageKind.ADMIT,
        MessageKind.NONCE,
        MessageKind.MEMBER_SET,
        MessageKind.REKEY,
    ]
    # The joiner ends up holding the same group key the leader now uses.
    assert member.group_key == world.leader.group_key
    # ... and the member key derived from the id the leader issued last.
    member_id = world.leader.next_member_id - 1
    assert member.member_key == derive_member_key(member_id, world.leader.member_secret, world.provider)


def test_a_joiner_authenticates_no_particular_leader(world):
    # Today's outcome, pinned: X leads nothing, yet with primes and a secret
    # of its own and the authority's real public key it passes the joiner's
    # identification check and admits N.  The joiner verifies the proof
    # against the modulus and square ZK_PARAMS itself carries and adopts the
    # leader key ADMIT carries; nothing it held before binds either to the
    # leader it addressed, and the audit's mutual-authentication check asks
    # only for the `zk_ok` and `cert_ok` verdicts.  ROADMAP item 7's fix,
    # which checks a leader's key against one the joiner already holds,
    # flips this test.
    x_keys = world.provider.generate_keypair(world.rng)
    world.leader = LeaderKeyService(
        "X", "g9", "g9-1", x_keys, world.provider, world.rng, world.authority.public, 8, PARAMS
    )
    member, _ = run_join(world, "N", leader="X")
    notes = [(n.kind, render_detail(n.parts), n.about) for n in world.notes]
    assert [note for note in notes if note[0] == "verdict"] == [
        ("verdict", "zk_ok", "N"), ("verdict", "cert_ok", "N"), ("verdict", "joined", "N")
    ]
    assert member.is_member() and member.leader == "X" and member.leader_public == x_keys.public


def test_join_rejected_on_forged_certificate(world):
    def tamper(env):
        if env.message.kind == MessageKind.CERT:
            return env.message and env.__class__(
                message=env.message.replace(authority_sig=b"\x00" * 32),
                sender=env.sender,
                to=env.to,
                channel=env.channel,
            )

    member, _ = run_join(world, "N", tamper=tamper)
    assert world.leader.join_sessions["N"].expects is None
    notes = [(n.kind, render_detail(n.parts), n.about) for n in world.notes]
    assert ("verdict", "join_rejected:bad_certificate", "N") in notes
    assert "N" not in world.leader.member_view


def test_join_rejected_at_capacity(world):
    world.leader.capacity = 1  # leader alone fills the group
    member, transcript = run_join(world, "N")
    assert world.leader.join_sessions["N"].expects is None
    notes = [(n.kind, render_detail(n.parts), n.about) for n in world.notes]
    assert notes == [("verdict", "join_rejected:capacity", "N")]
    assert len(transcript) == 1  # nothing after the request


def test_join_aborts_when_response_invalid(world):
    def tamper(env):
        if env.message.kind == MessageKind.ZK_RESPONSE:
            bad = [r + 1 for r in env.message["responses"]]
            return env.__class__(
                message=env.message.replace(responses=bad),
                sender=env.sender,
                to=env.to,
                channel=env.channel,
            )

    member, transcript = run_join(world, "N", tamper=tamper)
    assert member.join.expects is None
    assert (render_detail(world.notes[-1].parts), world.notes[-1].about) == ("join_abort:leader_unauthenticated", "N")
    kinds = [env.message.kind for env in transcript]
    assert MessageKind.CERT not in kinds  # node never reveals its certificate


def test_join_aborts_on_member_key_of_wrong_size(world):
    # An ADMIT that opens but carries a 5-byte member key: the joiner must
    # not adopt it (a real provider could not seal its NONCE under it).
    def tamper(env):
        if env.message.kind == MessageKind.ADMIT:
            plain = seal_plain(
                MessageKind.ADMIT, leader_public=world.keys["L"].public, member_id=1, member_key=b"\x05" * 5
            )
            sealed = world.provider.pk_encrypt(world.keys["N"].public, plain, world.rng)
            return env.__class__(
                message=env.message.replace(sealed=sealed), sender=env.sender, to=env.to, channel=env.channel
            )

    member, transcript = run_join(world, "N", tamper=tamper)
    assert member.join.expects is None
    assert (render_detail(world.notes[-1].parts), world.notes[-1].about) == ("join_abort:bad_admit_seal", "N")
    assert member.member_key is None
    assert MessageKind.NONCE not in [env.message.kind for env in transcript]


def _replace(env, **fields):
    return env.__class__(message=env.message.replace(**fields), sender=env.sender, to=env.to, channel=env.channel)


def _flip(sealed):
    """`sealed` with its last byte changed: it fails authentication."""
    return sealed[:-1] + bytes([sealed[-1] ^ 1])


def _wrong_nonce(world, env):
    """The MEMBER_SET resealed under the pending member key with a nonce one
    off from the one the joiner sent."""
    key = world.leader.join_sessions["N"].pending_key
    opened = open_sealed(env.message.kind, world.provider.sym_decrypt(key, env.message["sealed"]))
    plain = seal_plain(MessageKind.MEMBER_SET, **dict(opened, nonce=opened["nonce"] + 1))
    return _replace(env, sealed=world.provider.sym_encrypt(key, plain, world.rng))


# (kind tampered with, the tampering, the side that refuses it, its verdict)
TAMPERED_JOINS = {
    "commitment_count": (
        MessageKind.ZK_PARAMS, lambda w, env: _replace(env, commitments=env.message["commitments"][:-1]),
        "member", "join_abort:bad_commitment_count",
    ),
    "challenge_count": (
        MessageKind.ZK_CHALLENGE, lambda w, env: _replace(env, challenges=env.message["challenges"][:-1]),
        "leader", "join_rejected:bad_challenge_count",
    ),
    "response_count": (
        MessageKind.ZK_RESPONSE, lambda w, env: _replace(env, responses=env.message["responses"][:-1]),
        "member", "join_abort:bad_response_count",
    ),
    "admit_seal": (
        MessageKind.ADMIT, lambda w, env: _replace(env, sealed=_flip(env.message["sealed"])),
        "member", "join_abort:bad_admit_seal",
    ),
    "nonce_seal": (
        MessageKind.NONCE, lambda w, env: _replace(env, sealed=_flip(env.message["sealed"])),
        "leader", "join_rejected:bad_nonce_seal",
    ),
    "member_set_seal": (
        MessageKind.MEMBER_SET, lambda w, env: _replace(env, sealed=_flip(env.message["sealed"])),
        "member", "join_abort:bad_member_set_seal",
    ),
    "nonce_mismatch": (MessageKind.MEMBER_SET, _wrong_nonce, "member", "join_abort:nonce_mismatch"),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_JOINS))
def test_tampered_join_step_is_refused_and_adopts_nothing(world, case):
    kind, tampering, side, verdict = TAMPERED_JOINS[case]
    epoch, leader_key = world.leader.epoch, world.leader.group_key

    def tamper(env):
        return tampering(world, env) if env.message.kind == kind else None

    member, transcript = run_join(world, "N", tamper=tamper)
    notes = [(n.kind, render_detail(n.parts), n.about) for n in world.notes]
    assert notes[-1] == ("verdict", verdict, "N")
    kinds = [env.message.kind for env in transcript]
    # Nothing answers the refused step; a MEMBER_SET's REKEY to the group
    # goes out with it.
    assert [k for k in kinds if k != MessageKind.REKEY][-1] == kind
    refusing = world.leader.join_sessions["N"] if side == "leader" else member.join
    assert refusing.expects is None
    # The joiner holds no group key.  The leader adds it to its view, under
    # a new epoch, only once the nonce round trip completes, which a refused
    # MEMBER_SET follows.
    assert member.group_key is None and member.group_id is None and member.lineage is None
    if case in ("member_set_seal", "nonce_mismatch"):
        assert "N" in world.leader.member_view and world.leader.epoch == epoch + 1
    else:
        assert "N" not in world.leader.member_view
        assert (world.leader.epoch, world.leader.group_key) == (epoch, leader_key)
    # The joiner takes its member key and leader from an ADMIT it opened,
    # and only then sends its NONCE.
    assert (member.member_key is None) == (member.leader is None) == (MessageKind.NONCE not in kinds)


def test_out_of_order_message_rejects_session(world):
    ctx = make_ctx("L", 0, world.rng)
    from manetsec.messages import msg

    world.leader.handle_join(msg(MessageKind.JOIN_REQ, requester="N"), ctx)
    # Skipping the challenge: certificate arrives too early.
    cert = world.certs["N"]
    world.leader.handle_join(
        msg(
            MessageKind.CERT,
            subject="N",
            subject_public=cert.subject_public,
            authority_sig=cert.authority_sig,
        ),
        ctx,
    )
    assert world.leader.join_sessions["N"].expects is None
    assert (render_detail(ctx.notes[-1].parts), ctx.notes[-1].about) == ("join_rejected:out_of_order", "N")


# The join's first eight messages as the paper orders them, each with the
# side that answers it.
JOIN_SIDES = {
    MessageKind.JOIN_REQ: "leader",
    MessageKind.ZK_PARAMS: "member",
    MessageKind.ZK_CHALLENGE: "leader",
    MessageKind.ZK_RESPONSE: "member",
    MessageKind.CERT: "leader",
    MessageKind.ADMIT: "member",
    MessageKind.NONCE: "leader",
    MessageKind.MEMBER_SET: "member",
}

# What a join end may expect: a join kind, or nothing once the join ended.
EXPECTABLE = (None, *JOIN_ORDER)


def test_join_sides_take_turns_in_join_order():
    assert JOIN_ORDER == tuple(JOIN_SIDES)
    # The leader answers the even positions and the joiner the odd ones,
    # so between them every join kind is answered exactly once.
    assert tuple(LeaderKeyService.JOIN_HANDLERS) == JOIN_ORDER[0::2]
    assert tuple(MemberKeyService.JOIN_HANDLERS) == JOIN_ORDER[1::2]


def _join_sides(world, expects, joiner="N"):
    """A fresh leader holding N's join, and member `joiner` joining L, both
    expecting `expects`; the leader's join has a pending member key."""
    leader = LeaderKeyService(
        "L", "g1", "g1-1", world.keys["L"], world.provider, world.rng, world.authority.public, 8, PARAMS
    )
    leader.join_sessions["N"] = LeaderJoinSession("N", expects, [1], pending_key=b"k" * 16)
    member = MemberKeyService(joiner, world.keys[joiner], world.certs[joiner], world.provider, PARAMS)
    member.join = NodeJoinState(leader="L", expects=expects)
    return leader, member


def _answer(service, message, world, name):
    ctx = make_ctx(name, 1, world.rng)
    service.handle_join(message, ctx)
    return ctx


@pytest.fixture
def join_messages(world):
    """One message of each join kind, from an honest join of N."""
    _, transcript = run_join(world, "N")
    return {env.message.kind: env.message for env in transcript if env.message.kind in JOIN_SIDES}


def test_each_join_kind_answered_by_exactly_one_side(world, join_messages):
    assert set(join_messages) == set(JOIN_SIDES)
    for kind, side in JOIN_SIDES.items():
        for expects in EXPECTABLE:
            if expects == kind:
                continue
            leader, member = _join_sides(world, expects)
            answers = {
                "leader": _answer(leader, join_messages[kind], world, "L"),
                "member": _answer(member, join_messages[kind], world, "N"),
            }
            for who, ctx in answers.items():
                acted = bool(ctx.notes or ctx.outbound)
                assert acted == (who == side), (kind.name, expects, who)


def test_join_kind_in_wrong_phase_rejects_that_join(world, join_messages):
    # A JOIN_REQ opens a new join whatever the old one expects.
    for kind, side in JOIN_SIDES.items():
        if kind == MessageKind.JOIN_REQ:
            continue
        for expects in EXPECTABLE:
            if expects == kind:
                continue
            leader, member = _join_sides(world, expects)
            if side == "leader":
                ctx = _answer(leader, join_messages[kind], world, "L")
                state, verdict = leader.join_sessions["N"], "join_rejected:out_of_order"
            else:
                ctx = _answer(member, join_messages[kind], world, "N")
                state, verdict = member.join, "join_abort:out_of_order"
            notes = [(n.kind, render_detail(n.parts), n.about) for n in ctx.notes]
            assert notes == [("verdict", verdict, "N")], (kind.name, expects)
            assert not ctx.outbound
            assert state.expects is None


def test_nonce_without_pending_key_leaves_no_verdict(world, join_messages):
    for expects in EXPECTABLE:
        leader, _ = _join_sides(world, expects)
        leader.join_sessions["N"].pending_key = None
        ctx = _answer(leader, join_messages[MessageKind.NONCE], world, "L")
        assert not ctx.notes and not ctx.outbound
        assert leader.join_sessions["N"].expects == expects


def test_member_ignores_another_join_id(world, join_messages):
    for kind, side in JOIN_SIDES.items():
        if side != "member":
            continue
        for expects in EXPECTABLE:
            _, member = _join_sides(world, expects, joiner="M1")
            ctx = _answer(member, join_messages[kind], world, "M1")
            assert not ctx.notes and not ctx.outbound
            assert member.join.expects == expects


def test_rekey_broadcast_decrypts_only_with_old_key(world, rng):
    # Founding member M1 follows the epoch chain; an outsider cannot.
    ctx = make_ctx("L", 0, rng)
    world.leader.found_group([("M1", world.keys["M1"].public)], ctx, "founding")
    m1 = MemberKeyService("M1", world.keys["M1"], world.certs["M1"], world.provider, PARAMS)
    for env in ctx.outbound:
        if env.to == "M1":
            m1.handle_rekey(env.message, make_ctx("M1", 1, rng))
    assert m1.group_key == world.leader.group_key

    _, transcript = run_join(world, "N")
    rekey = next(e for e in transcript if e.message.kind == MessageKind.REKEY)
    m1_ctx = make_ctx("M1", 2, rng)
    m1.handle_rekey(rekey.message, m1_ctx)
    assert m1.epoch == world.leader.epoch
    assert m1.group_key == world.leader.group_key

    outsider = MemberKeyService("M2", world.keys["M2"], world.certs["M2"], world.provider, PARAMS)
    out_ctx = make_ctx("M2", 2, rng)
    outsider.handle_rekey(rekey.message, out_ctx)
    assert outsider.group_key is None
    assert any("rekey_undecryptable" in render_detail(n.parts) for n in out_ctx.notes)


@pytest.mark.parametrize("mode", ["group", "public"])
def test_unopenable_rekey_is_refused_and_adopts_nothing(world, rng, mode):
    # M1 holds epoch 1.  A group-mode rekey under that epoch that fails
    # authentication, or the founding rekey sealed to M2, is refused.
    ctx = make_ctx("L", 0, rng)
    world.leader.found_group([("M1", world.keys["M1"].public), ("M2", world.keys["M2"].public)], ctx, "founding")
    m1 = MemberKeyService("M1", world.keys["M1"], world.certs["M1"], world.provider, PARAMS)
    m1.handle_rekey(next(env for env in ctx.outbound if env.to == "M1").message, make_ctx("M1", 1, rng))
    if mode == "group":
        plain = seal_plain(
            MessageKind.REKEY, "group", group_key=world.provider.generate_symmetric_key(rng), epoch=2,
            lineage="g1-1", rows=[],
        )
        sealed = _flip(world.provider.sym_encrypt(m1.group_key, plain, rng))
        rekey, verdict = msg(MessageKind.REKEY, group="g1", lineage="g1-1", epoch=1, mode="group", sealed=sealed), "auth"
    else:
        rekey, verdict = next(env for env in ctx.outbound if env.to == "M2").message, "not_addressee"
    held = (m1.group_id, m1.lineage, m1.epoch, dict(m1.keyring), m1.member_key, m1.leader, m1.leader_public)
    m1_ctx = make_ctx("M1", 2, rng)
    m1.handle_rekey(rekey, m1_ctx)
    notes = [(n.kind, render_detail(n.parts), n.about) for n in m1_ctx.notes]
    assert notes == [("verdict", f"rekey_undecryptable:{verdict}", "M1")]
    assert (m1.group_id, m1.lineage, m1.epoch, dict(m1.keyring), m1.member_key, m1.leader, m1.leader_public) == held
    assert m1.group_key == world.leader.group_key


def test_found_group_notes_each_admit_then_one_rekey(world, rng):
    ctx = make_ctx("L", 0, rng)
    members = [(name, world.keys[name].public) for name in ("N", "M2", "L", "M1")]
    world.leader.found_group(members, ctx, "election")
    notes = [(note.kind, render_detail(note.parts), note.about) for note in ctx.notes]
    assert notes == [
        ("admit", "election", "M1"),
        ("admit", "election", "M2"),
        ("admit", "election", "N"),
        ("rekey", "election:lineage=g1-1:epoch=1", ""),
    ]


def test_founding_a_grid_derives_one_keystream_per_member_and_checks_its_rows_once(monkeypatch):
    # A 16x16 static grid founds one group of 256: the leader seals the
    # directory to each of the other 255, and nothing else is sealed.  The
    # sealing provider hands each addressee the plaintext it sealed, and the
    # directory's rows are type-checked once, not once per member.  Counted
    # as the run makes them, so the run is a fresh one.
    from manetsec import crypto, messages
    from manetsec.sim import Simulation
    from topologies import workloads

    keystreams, rows_checked = [], []
    derive = crypto.DeterministicProvider._keystream
    monkeypatch.setattr(
        crypto.DeterministicProvider, "_keystream", lambda self, *args: keystreams.append(args) or derive(self, *args)
    )

    def counted(check):
        return lambda value: rows_checked.append(len(value)) or check(value)

    monkeypatch.setattr(
        messages, "_SEALED_CHECKS",
        {key: tuple((name, counted(check) if name == "rows" else check) for name, check in checks)
         for key, checks in messages._SEALED_CHECKS.items()},
    )
    sim = Simulation(workloads.grid_static(1, side=16))
    sim.run()
    [leader] = {node.keys.leader for node in sim.nodes.values()}
    members = [node for name, node in sim.nodes.items() if name != leader]
    assert len(members) == 255
    assert all(node.keys.group_key == sim.nodes[leader].keys.group_key for node in members)
    assert len(keystreams) == len(members)
    assert rows_checked == [256, 256]  # as the leader builds the plaintexts, and at the first open


def test_remove_member_rotates_and_excludes(world, rng):
    ctx = make_ctx("L", 0, rng)
    world.leader.found_group(
        [("M1", world.keys["M1"].public), ("M2", world.keys["M2"].public)], ctx, "founding"
    )
    epoch_before = world.leader.epoch
    ctx2 = make_ctx("L", 5, rng)
    world.leader.remove_members(["M2"], "silent_timeout", ctx2)
    assert "M2" not in world.leader.member_view
    assert world.leader.epoch == epoch_before + 1
    rekeys = [e for e in ctx2.outbound if e.message.kind == MessageKind.REKEY]
    assert [e.to for e in rekeys] == ["M1"]
    # M1 can open its copy; the removed member cannot.
    sealed = rekeys[0].message["sealed"]
    plain = world.provider.pk_decrypt(world.keys["M1"].private, sealed)
    fields = encoding.decode(plain)
    assert fields[0] == world.leader.group_key
    with pytest.raises(DecryptionError):
        world.provider.pk_decrypt(world.keys["M2"].private, sealed)


def test_remove_unknown_member_warns(world, rng):
    ctx = make_ctx("L", 0, rng)
    world.leader.remove_members(["ghost"], "silent_timeout", ctx)
    assert any("remove_unknown_member" in render_detail(n.parts) for n in ctx.notes)
    assert not ctx.outbound


def test_misbehavior_removal_alerts_ring(world, rng):
    ctx = make_ctx("L", 0, rng)
    world.leader.found_group([("M1", world.keys["M1"].public)], ctx, "founding")
    ctx2 = make_ctx("L", 5, rng)
    world.leader.remove_members(["M1"], "misbehavior", ctx2)
    alerts = [e for e in ctx2.outbound if e.message.kind == MessageKind.MALICIOUS_ALERT]
    assert len(alerts) == 1 and alerts[0].channel == "ring"


def test_liveness_bookkeeping(world, rng):
    ctx = make_ctx("L", 0, rng)
    world.leader.found_group([("M1", world.keys["M1"].public)], ctx, "founding")
    # Heartbeats every 10 ticks against a deadline of 30 never expire.
    for t in range(10, 101, 10):
        world.leader.record_heartbeat("M1", t)
        assert world.leader.check_liveness(t, 30) == []
    # 31 ticks of silence does.
    assert world.leader.check_liveness(131, 30) == ["M1"]
    assert world.leader.check_liveness(130, 30) == []


def test_liveness_sweep_returns_the_expired_in_name_order(world, rng):
    leader = world.leader
    extra = {name: world.provider.generate_keypair(rng).public for name in ("A", "Z")}
    members = [("M1", world.keys["M1"].public), ("M2", world.keys["M2"].public), *extra.items()]
    leader.found_group(members, make_ctx("L", 0, rng), "founding")
    for name, tick in (("Z", 5), ("M1", 40), ("A", 4), ("M2", 3)):
        leader.record_heartbeat(name, tick)
    before = dict(leader.trust)
    assert leader.check_liveness(40, 30) == ["A", "M2", "Z"]
    for name in ("A", "M2", "Z"):
        assert leader.trust[name] == update_trust(before.get(name, leader.trust_initial), "heartbeat_missed")
    assert leader.trust.get("M1") == before.get("M1")
    assert leader.heartbeats["M1"] == 40


# ---------------------------------------------------------------------------
# Pairwise sessions
# ---------------------------------------------------------------------------


class SessionWorld:
    def __init__(self, provider):
        self.provider = provider
        self.rng = random.Random(777)
        self.authority = CertificateAuthority(provider, self.rng)
        self.keys = {n: provider.generate_keypair(self.rng) for n in ("A", "B", "L")}
        self.a = SessionService("A", self.keys["A"], provider, PARAMS)
        self.b = SessionService("B", self.keys["B"], provider, PARAMS)
        self.leader = LeaderKeyService(
            "L", "g1", "g1-1", self.keys["L"], provider, self.rng, self.authority.public, 8, PARAMS
        )
        ctx = make_ctx("L", 0, self.rng)
        self.leader.found_group(
            [("A", self.keys["A"].public), ("B", self.keys["B"].public)], ctx, "founding"
        )
        self.leader_public = self.keys["L"].public
        self.notes = []  # (kind, detail, about) of every note `pump` gathers

    def ctx(self, name, now):
        return make_ctx(name, now, self.rng)

    def pump(self, envelopes, now):
        """One delivery round; returns the next outbound batch."""
        produced = []
        for env in envelopes:
            ctx = self.ctx(env.to, now)
            kind = env.message.kind
            if kind == MessageKind.PUBKEY_QUERY:
                self.leader.handle_pubkey_query(env.message, env.sender, ctx)
            elif kind == MessageKind.PUBKEY_ANSWER:
                target = self.a if env.to == "A" else self.b
                target.handle_pubkey_answer(env.message, self.leader_public, ctx)
            elif kind == MessageKind.SESSION_1:
                self.b.handle_session1(env.message, "L", ctx)
            elif kind == MessageKind.SESSION_2:
                self.a.handle_session2(env.message, ctx)
            elif kind == MessageKind.SESSION_3:
                self.b.handle_session3(env.message, ctx)
            elif kind == MessageKind.SESSION_4:
                self.a.handle_session4(env.message, ctx)
            self.notes += [(n.kind, render_detail(n.parts), n.about) for n in ctx.notes]
            produced.extend(ctx.outbound)
        return produced


@pytest.fixture
def sessions(provider):
    return SessionWorld(provider)


def test_session_confirms_with_leader_lookup(sessions):
    ctx = sessions.ctx("A", 10)
    sessions.a.initiate("B", "L", ctx)
    batch = ctx.outbound
    now = 10
    for _ in range(10):
        if not batch:
            break
        now += 1
        batch = sessions.pump(batch, now)
    sa = sessions.a.sessions[("A", "B")]
    sb = sessions.b.sessions[("A", "B")]
    assert (sa.expects, sb.expects) == (None, None)
    assert sessions.notes == [("verdict", "session_confirmed", "A-B")] * 2
    assert sa.key == sb.key
    # Both sides resolved the peer key through the leader, not a priori.
    assert "B" in sessions.a.directory and "A" in sessions.b.directory


def test_session_stale_timestamp_aborts(sessions):
    ctx = sessions.ctx("A", 10)
    sessions.a.initiate("B", "L", ctx)
    batch = ctx.outbound
    batch = sessions.pump(batch, 11)  # query
    batch = sessions.pump(batch, 12)  # answer -> SESSION_1 emitted
    assert batch and batch[0].message.kind == MessageKind.SESSION_1
    late = sessions.pump(batch, 100)  # delivered past the freshness window
    sb = sessions.b.sessions[("A", "B")]
    assert sb.expects is None
    assert sessions.notes[-1] == ("verdict", "session_aborted:stale_timestamp", "A-B")
    assert not late or all(e.message.kind != MessageKind.SESSION_2 for e in late)


def test_session_replayed_key_message_aborts(sessions):
    ctx = sessions.ctx("A", 10)
    sessions.a.initiate("B", "L", ctx)
    batch = ctx.outbound
    now = 10
    captured_s3 = None
    for _ in range(10):
        if not batch:
            break
        now += 1
        for env in batch:
            if env.message.kind == MessageKind.SESSION_3:
                captured_s3 = env
        batch = sessions.pump(batch, now)
    assert captured_s3 is not None
    assert sessions.b.sessions[("A", "B")].expects is None
    assert sessions.notes == [("verdict", "session_confirmed", "A-B")] * 2
    # A fresh exchange starts with the same initiation timestamp; replaying
    # the old key message matches on it but carries the old response
    # timestamp, which is the discriminator.
    old_t_a = sessions.a.sessions[("A", "B")].t_a
    ctx2 = sessions.ctx("A", old_t_a)
    sessions.a.initiate("B", "L", ctx2)
    batch = ctx2.outbound  # SESSION_1 directly; keys are cached now
    batch = sessions.pump(batch, 40)  # B responds with t_b = 40
    assert sessions.b.sessions[("A", "B")].expects == MessageKind.SESSION_3
    replay_ctx = sessions.ctx("B", 41)
    sessions.b.handle_session3(captured_s3.message, replay_ctx)
    assert sessions.b.sessions[("A", "B")].expects is None
    assert any("timestamp_mismatch" in render_detail(n.parts) for n in replay_ctx.notes)


def test_session_unmatched_key_message_ignored(sessions):
    # A key message for no live exchange is rejected outright.
    ctx = sessions.ctx("A", 10)
    sessions.a.initiate("B", "L", ctx)
    batch = ctx.outbound
    now = 10
    captured_s3 = None
    for _ in range(10):
        if not batch:
            break
        now += 1
        for env in batch:
            if env.message.kind == MessageKind.SESSION_3:
                captured_s3 = env
        batch = sessions.pump(batch, now)
    replay_ctx = sessions.ctx("B", 30)
    sessions.b.handle_session3(captured_s3.message, replay_ctx)
    assert any("no_matching_exchange" in render_detail(n.parts) for n in replay_ctx.notes)


def test_session_nonce_echo_mismatch_aborts(sessions):
    ctx = sessions.ctx("A", 10)
    sessions.a.initiate("B", "L", ctx)
    batch = ctx.outbound
    now = 10
    for _ in range(10):
        if not batch:
            break
        stop = None
        for env in batch:
            if env.message.kind == MessageKind.SESSION_4:
                # Corrupt the confirmation: re-encrypt wrong nonces.
                session = sessions.b.sessions[("A", "B")]
                bad = sessions.provider.sym_encrypt(
                    session.key, encoding.encode(session.nonce1 + 1, 5), sessions.rng
                )
                stop = env.message.replace(sealed=bad)
        if stop is not None:
            ctx4 = sessions.ctx("A", now + 1)
            sessions.a.handle_session4(stop, ctx4)
            assert sessions.a.sessions[("A", "B")].expects is None
            assert [render_detail(n.parts) for n in ctx4.notes] == ["session_aborted:nonce_mismatch"]
            return
        now += 1
        batch = sessions.pump(batch, now)
    pytest.fail("session never produced a confirmation message")


def test_leader_alert_for_unknown_peer(sessions):
    # B receives a session start from a name the leader does not know.
    rng = sessions.rng
    ghost_keys = sessions.provider.generate_keypair(rng)
    payload = encoding.encode("session1", "ghost", "B", 10)
    sig = sessions.provider.sign(ghost_keys.private, payload)
    plain = encoding.encode("ghost", "B", 10, sig)
    sealed = sessions.provider.pk_encrypt(sessions.keys["B"].public, plain, rng)
    from manetsec.messages import msg

    ctx = sessions.ctx("B", 11)
    sessions.b.handle_session1(msg(MessageKind.SESSION_1, sealed=sealed), "L", ctx)
    queries = [e for e in ctx.outbound if e.message.kind == MessageKind.PUBKEY_QUERY]
    assert queries
    leader_ctx = sessions.ctx("L", 12)
    sessions.leader.handle_pubkey_query(queries[0].message, "B", leader_ctx)
    alerts = [e for e in leader_ctx.outbound if e.message.kind == MessageKind.MALICIOUS_ALERT]
    assert alerts and alerts[0].message["accused"] == "ghost"
    alert_ctx = sessions.ctx("B", 13)
    sessions.b.handle_alert(alerts[0].message, sessions.leader_public, alert_ctx)
    assert sessions.b.sessions[("ghost", "B")].expects is None
    assert [(render_detail(n.parts), n.about) for n in alert_ctx.notes] == [("session_aborted:leader_alert", "ghost-B")]
    assert "ghost" in sessions.b.distrusted


def _run_until(sessions, kind, now=10):
    """A opens a session with B at tick `now` and the exchange runs, one
    delivery round a tick, until a message of `kind` is sent; returns that
    envelope, undelivered, with the tick it was sent at."""
    ctx = sessions.ctx("A", now)
    sessions.a.initiate("B", "L", ctx)
    batch = ctx.outbound
    while not any(env.message.kind == kind for env in batch):
        assert batch, f"the exchange ended before a {kind.name}"
        now += 1
        batch = sessions.pump(batch, now)
    return next(env for env in batch if env.message.kind == kind), now


def _session_notes(ctx):
    return [(n.kind, render_detail(n.parts), n.about) for n in ctx.notes]


def test_session_with_distrusted_peer_is_refused(sessions):
    sessions.a.distrusted.add("B")
    ctx = sessions.ctx("A", 10)
    sessions.a.initiate("B", "L", ctx)
    assert _session_notes(ctx) == [("verdict", "session_refused:distrusted", "A-B")]
    assert not ctx.outbound and ("A", "B") not in sessions.a.sessions


def test_session1_from_distrusted_initiator_aborts(sessions):
    sessions.b.distrusted.add("A")
    session1, now = _run_until(sessions, MessageKind.SESSION_1)
    ctx = sessions.ctx("B", now + 1)
    sessions.b.handle_session1(session1.message, "L", ctx)
    assert _session_notes(ctx) == [("verdict", "session_aborted:distrusted_peer", "A-B")]
    assert not ctx.outbound  # no key lookup, no SESSION_2


def test_session1_under_wrong_signature_aborts(sessions):
    # B holds L's key under A's name, so A's signature does not check.
    sessions.a.directory["B"] = sessions.keys["B"].public
    sessions.b.directory["A"] = sessions.keys["L"].public
    session1, now = _run_until(sessions, MessageKind.SESSION_1)
    ctx = sessions.ctx("B", now + 1)
    sessions.b.handle_session1(session1.message, "L", ctx)
    assert _session_notes(ctx) == [("verdict", "session_aborted:bad_signature", "A-B")]
    assert not ctx.outbound


def test_session2_for_earlier_initiation_aborts(sessions):
    # A opens again before B answers its first SESSION_1, so B's answer
    # echoes a timestamp A no longer holds.
    sessions.a.directory["B"] = sessions.keys["B"].public
    sessions.b.directory["A"] = sessions.keys["A"].public
    first, now = _run_until(sessions, MessageKind.SESSION_1)
    again = sessions.ctx("A", now + 5)
    sessions.a.initiate("B", "L", again)
    [session2] = sessions.pump([first], now + 6)
    ctx = sessions.ctx("A", now + 7)
    sessions.a.handle_session2(session2.message, ctx)
    assert _session_notes(ctx) == [("verdict", "session_aborted:timestamp_mismatch", "A-B")]
    assert not ctx.outbound
    # The aborted session takes no answer, not even the one to its own
    # timestamp.
    [session2] = sessions.pump(again.outbound, now + 8)
    late = sessions.ctx("A", now + 9)
    sessions.a.handle_session2(session2.message, late)
    assert not late.notes and not late.outbound


def test_session2_past_freshness_window_aborts(sessions):
    session2, sent = _run_until(sessions, MessageKind.SESSION_2)  # stamped t_b = sent
    ctx = sessions.ctx("A", sent + 51)
    sessions.a.handle_session2(session2.message, ctx)
    assert _session_notes(ctx) == [("verdict", "session_aborted:stale_timestamp", "A-B")]
    assert not ctx.outbound


def test_session2_under_wrong_signature_aborts(sessions):
    session2, now = _run_until(sessions, MessageKind.SESSION_2)
    sessions.a.directory["B"] = sessions.keys["L"].public
    ctx = sessions.ctx("A", now + 1)
    sessions.a.handle_session2(session2.message, ctx)
    assert _session_notes(ctx) == [("verdict", "session_aborted:bad_signature", "A-B")]
    assert not ctx.outbound


def test_session4_that_does_not_open_aborts(sessions):
    session4, now = _run_until(sessions, MessageKind.SESSION_4)
    ctx = sessions.ctx("A", now + 1)
    sessions.a.handle_session4(session4.message.replace(sealed=_flip(session4.message["sealed"])), ctx)
    assert _session_notes(ctx) == [("verdict", "session_aborted:bad_confirmation_seal", "A-B")]
    # The aborted session takes no confirmation, not even the real one.
    late = sessions.ctx("A", now + 2)
    sessions.a.handle_session4(session4.message, late)
    assert not late.notes


@pytest.mark.parametrize("provider_name", ["test", "real"])
def test_session3_with_a_key_of_the_wrong_size_is_dropped(provider_name):
    # A SESSION_3 sealed to B with B's pending timestamps, both readable
    # from when the exchange's messages were sent, but a 5-byte session key.
    # Under real crypto sealing SESSION_4 under it would raise; adopting it
    # at all would leave the genuine SESSION_3 without an exchange.
    sessions = SessionWorld(make_provider(provider_name))
    session3, now = _run_until(sessions, MessageKind.SESSION_3)
    pending = sessions.b.sessions[("A", "B")]
    plain = seal_plain(MessageKind.SESSION_3, t_a=pending.t_a, t_b=pending.t_b, nonce=1, session_key=b"\x05" * 5)
    sealed = sessions.provider.pk_encrypt(sessions.keys["B"].public, plain, sessions.rng)
    ctx = sessions.ctx("B", now + 1)
    sessions.b.handle_session3(msg(MessageKind.SESSION_3, sealed=sealed), ctx)
    assert not ctx.notes and not ctx.outbound
    assert (pending.expects, pending.key) == (MessageKind.SESSION_3, None)
    session4 = sessions.pump([session3], now + 1)
    assert not sessions.pump(session4, now + 2)
    assert (sessions.a.sessions[("A", "B")].expects, pending.expects) == (None, None)
    assert sessions.notes == [("verdict", "session_confirmed", "A-B")] * 2
    assert pending.key == sessions.a.sessions[("A", "B")].key


# ---------------------------------------------------------------------------
# Leader-ring agreement
# ---------------------------------------------------------------------------


def _ring_key(shared, provider):
    return provider.hash(encoding.encode("ring-key", shared))[: provider.sym_key_size]


def test_ring_two_leaders_matches_direct_exponentiation(provider):
    key = leader_ring_agree([("L1", 6), ("L2", 15)], provider)
    # Independent oracle: both orders of direct exponentiation agree.
    shared = pow(pow(RING_GENERATOR, 6, RING_MODULUS), 15, RING_MODULUS)
    assert shared == pow(pow(RING_GENERATOR, 15, RING_MODULUS), 6, RING_MODULUS) == 2**90
    assert key == _ring_key(shared, provider)


def test_ring_order_of_members_does_not_change_key(provider):
    a = leader_ring_agree([("L1", 6), ("L2", 15), ("L3", 11)], provider)
    b = leader_ring_agree([("L3", 11), ("L1", 6), ("L2", 15)], provider)
    assert a == b  # product of secrets is order-free
    # Oracle: three contributions nest to one exponent product.
    shared = pow(pow(pow(RING_GENERATOR, 6, RING_MODULUS), 15, RING_MODULUS), 11, RING_MODULUS)
    assert shared == pow(RING_GENERATOR, 6 * 15 * 11, RING_MODULUS)
    assert a == _ring_key(shared, provider)


def test_ring_key_changes_after_replacement(provider, rng):
    before = leader_ring_agree([("L1", 6), ("L2", 15)], provider)
    after = leader_ring_agree([("L1", 6), ("L3", 11)], provider)
    assert before != after


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_leader_draws_its_ring_secret_last(world, seed):
    # The simulator's streams are those of a leader drawn its ring secret
    # just after its service was built: the constructor's last draw.
    leader = LeaderKeyService(
        "L", "g1", "g1-1", world.keys["L"], world.provider, random.Random(seed), world.authority.public, 8, PARAMS
    )
    stream = random.Random(seed)
    p = _draw_prime(stream, PRIME_BITS)
    q = _draw_prime(stream, PRIME_BITS)
    while q == p:
        q = _draw_prime(stream, PRIME_BITS)
    stream.randrange(2, p * q)  # the identification secret
    stream.getrandbits(128)  # the member secret
    world.provider.generate_symmetric_key(stream)  # the first group key
    assert leader.ring_secret == stream.getrandbits(RING_SECRET_BITS)


@pytest.mark.parametrize("leaders", [[], [("L1", 6)]], ids=["no_leader", "one_leader"])
def test_ring_of_fewer_than_two_leaders_rejected(provider, leaders):
    # A lone leader has no one to share a ring key with, and no caller asks.
    with pytest.raises(ValueError, match="two leaders"):
        leader_ring_agree(leaders, provider)
