"""Group key lifecycle: leader-held keys, join handshake, sessions, revocation.

The leader of each group alone holds its keys, in its
:class:`LeaderKeyService`: the group key (with its epoch counter and a
lineage identifier that changes on every leadership change), the secret
number each member's derived key comes from, and every member's public key.
Joining runs a nine-message handshake (`JOIN_ORDER`) in which the node
first authenticates the leader with a quadratic-residue challenge-response
and the leader then authenticates the node by its certificate; only after
both succeed is the node admitted and the group rekeyed.  Leaving
(voluntary, silent, or forced) also rekeys.  Pairs of members agree on
session keys with a four-message timestamped exchange, asking the leader
for public keys they do not hold.  Each end of a join or a session holds
the one message kind it takes next, its `expects`: a join message of
another kind rejects that join, and a session message of another kind
goes unanswered.  A node believes a leader's alert only under a
signature it can check: a radio alert against its own group leader's key
(its own key when it leads), a ring alert against the key the sending
leader announced; any other alert is ignored.  The leaders of all groups
share a ring key for traffic between groups: each leader draws its own
ring secret when its service is built, and `leader_ring_agree` raises the
RFC 3526 group's generator to every current leader's secret in turn.  A
ring of one leader agrees no key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import encoding
from .crypto import (
    dh_contribute,
    next_prime,
    zk_commit,
    zk_respond,
    zk_setup,
    zk_verify,
)
from .group import update_trust
from .messages import BROADCAST, UNOPENABLE, Message, MessageKind, msg, open_sealed, seal_batch, seal_plain
from .runtime import Ctx

# 2048-bit MODP group (RFC 3526 group 14); used for the leader-ring agreement.
RING_MODULUS = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)
RING_GENERATOR = 2
RING_SECRET_BITS = 192  # width of each leader's ring secret


# ---------------------------------------------------------------------------
# Certificates (offline authority, issued before the run)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    subject: str
    subject_public: bytes
    authority_sig: bytes

    def signed_payload(self) -> bytes:
        return encoding.encode("cert", self.subject, self.subject_public)


class CertificateAuthority:
    """Pre-run certificate issuer; only its public key enters the network."""

    def __init__(self, provider, rng: random.Random):
        self.provider = provider
        self.keypair = provider.generate_keypair(rng)

    @property
    def public(self) -> bytes:
        return self.keypair.public

    def issue(self, subject: str, subject_public: bytes) -> Certificate:
        cert = Certificate(subject=subject, subject_public=subject_public, authority_sig=b"")
        sig = self.provider.sign(self.keypair.private, cert.signed_payload())
        return Certificate(subject=subject, subject_public=subject_public, authority_sig=sig)


def check_certificate(provider, authority_public: bytes, cert: Certificate) -> bool:
    return provider.verify(authority_public, cert.signed_payload(), cert.authority_sig)


# ---------------------------------------------------------------------------
# Derived member keys
# ---------------------------------------------------------------------------


def derive_member_key(member_id: int, secret: int, provider) -> bytes:
    """Leader-to-member key: hash of the member id and the leader's secret."""
    digest = provider.hash(encoding.encode("member-key", member_id, secret))
    return digest[: provider.sym_key_size]


def key_fits(provider, key: bytes) -> bool:
    """Whether `key` is a symmetric key `provider` can seal under; neither a
    member nor a session end adopts a key of another size."""
    return len(key) == provider.sym_key_size


# ---------------------------------------------------------------------------
# Join handshake
# ---------------------------------------------------------------------------


# The join's first eight messages in wire order; the ninth is the REKEY.  The
# leader answers the even positions and the joiner the odd ones, so a side
# that has answered one kind expects the kind two places on, and nothing
# after its last.
JOIN_ORDER = (
    MessageKind.JOIN_REQ, MessageKind.ZK_PARAMS, MessageKind.ZK_CHALLENGE, MessageKind.ZK_RESPONSE,
    MessageKind.CERT, MessageKind.ADMIT, MessageKind.NONCE, MessageKind.MEMBER_SET,
)
_EXPECTS_AFTER = dict(zip(JOIN_ORDER, JOIN_ORDER[2:]))


@dataclass
class LeaderJoinSession:
    requester: str
    expects: Optional[MessageKind] = MessageKind.JOIN_REQ  # None once admitted or rejected
    witnesses: list = field(default_factory=list)  # ephemeral witnesses, one per round
    pending_key: Optional[bytes] = None
    pending_public: bytes = b""


# Bit length of each prime in a leader's identification modulus.
PRIME_BITS = 32


def _draw_prime(rng: random.Random, bits: int) -> int:
    return next_prime(rng.getrandbits(bits) | (1 << (bits - 1)))


class LeaderKeyService:
    """Leader-side key management: the group's keys and members, joins,
    removals, lookups.  A leader is a member of its own group, so the
    service also answers every read a :class:`MemberKeyService` answers,
    under the same names.  It reads its run's `params` once, when built."""

    def __init__(
        self,
        name: str,
        group_id: str,
        lineage: str,
        keypair,
        provider,
        rng: random.Random,
        authority_public: bytes,
        capacity: int,
        params,
    ):
        self.name = name
        self.group_id = group_id
        self.keypair = keypair
        self.provider = provider
        self.authority_public = authority_public
        self.capacity = capacity
        self.challenge_rounds = params.challenge_rounds
        self.trust_initial = params.trust_initial
        p = _draw_prime(rng, PRIME_BITS)
        q = _draw_prime(rng, PRIME_BITS)
        while q == p:
            q = _draw_prime(rng, PRIME_BITS)
        secret = rng.randrange(2, p * q)
        self.zk_params, self.zk_secret = zk_setup(p, q, secret)
        self.lineage = lineage
        self.member_secret = rng.getrandbits(128)  # every member key is derived from it
        self.epoch = 0
        self.keyring: dict[tuple[str, int], bytes] = {}  # (lineage, epoch) -> group key
        self._next_epoch(rng)
        self.ring_secret = rng.getrandbits(RING_SECRET_BITS)  # its exponent in the leader ring's key
        self.member_view: dict[str, bytes] = {name: keypair.public}  # every member, the leader included
        self.next_member_id = 1
        self.join_sessions: dict[str, LeaderJoinSession] = {}
        self.heartbeats: dict[str, int] = {}  # every member but the leader -> tick last heard from
        self.trust: dict[str, float] = {}

    # -- the group view a member also answers ---------------------------------

    @property
    def leader(self) -> str:
        return self.name

    @property
    def leader_public(self) -> bytes:
        return self.keypair.public

    # -- keys and members -----------------------------------------------------

    def _next_epoch(self, rng: random.Random) -> None:
        """Move to the next epoch under a fresh group key."""
        self.epoch += 1
        self.group_key = self.keyring[(self.lineage, self.epoch)] = self.provider.generate_symmetric_key(rng)

    def _issue_member_key(self) -> tuple[int, bytes]:
        """Reserve the next member id; returns it with the key derived from it."""
        member_id = self.next_member_id
        self.next_member_id += 1
        return member_id, derive_member_key(member_id, self.member_secret, self.provider)

    # -- membership bootstrap / takeover ------------------------------------

    def directory_rows(self) -> list:
        """Membership snapshot carried in key messages: (name, public) rows."""
        return sorted([name, public] for name, public in self.member_view.items())

    def found_group(self, members: list[tuple[str, bytes]], ctx: Ctx, cause: str) -> None:
        """Enroll members directly and push them the full key set.

        Used at scenario start and when a newly elected leader rebuilds the
        group: every member gets the group key, a fresh derived key and its
        member id, sealed to its public key, and is noted admitted for
        `cause`.
        """
        addressed = {}  # name -> its derived key and member id
        for member_name, public in sorted(members):
            if member_name == self.name:
                continue
            member_id, member_key = self._issue_member_key()
            self.member_view[member_name] = public
            addressed[member_name] = {"member_key": member_key, "member_id": member_id}
        ctx.secret(("member_secret", self.lineage), self.member_secret)
        ctx.secret(("group_key", self.lineage, self.epoch), self.group_key)
        plains = seal_batch(
            MessageKind.REKEY, "public", self._keyset_fields(self.directory_rows()), list(addressed.values())
        )
        for member_name, plain in zip(addressed, plains):
            ctx.secret(("member_key", member_name, self.lineage), addressed[member_name]["member_key"])
            self._send_keyset(member_name, self.member_view[member_name], plain, ctx)
            self.heartbeats[member_name] = ctx.now
            self.trust.setdefault(member_name, self.trust_initial)
            ctx.note("admit", cause, about=member_name)
        ctx.note("rekey", cause, ("lineage", self.lineage), ("epoch", self.epoch))

    # -- rekey messages --------------------------------------------------------

    def _keyset_fields(self, rows: list) -> dict:
        """The fields every public-mode REKEY of the current epoch shares: the
        group key and membership and the leader's identity.  The rest are
        the addressee's derived key and member id, empty when they do not
        change."""
        return {
            "group_key": self.group_key, "epoch": self.epoch, "lineage": self.lineage, "rows": rows,
            "leader": self.name, "leader_public": self.keypair.public,
        }

    def _send_keyset(self, member_name: str, public: bytes, plain: bytes, ctx: Ctx) -> None:
        self._emit_rekey("public", self.provider.pk_encrypt(public, plain, ctx.rng), ctx, to=member_name)

    def _emit_rekey(self, mode: str, sealed: bytes, ctx: Ctx, to: str = BROADCAST) -> None:
        """Announce the current epoch.  A group-mode REKEY is sealed under the
        previous group key, so its header names that key's epoch."""
        epoch = self.epoch - 1 if mode == "group" else self.epoch
        ctx.emit(
            msg(MessageKind.REKEY, group=self.group_id, lineage=self.lineage, epoch=epoch, mode=mode, sealed=sealed),
            to=to,
        )

    # -- nine-message join, leader side --------------------------------------

    def handle_join(self, message: Message, ctx: Ctx) -> None:
        """Answer one join message in the order `JOIN_ORDER` sets."""
        kind = message.kind
        step = self.JOIN_HANDLERS.get(kind)
        if step is None:
            return
        if kind == MessageKind.JOIN_REQ:
            session = self._open_join(message["requester"], ctx)
        else:
            session = self.join_sessions.get(message["subject" if kind == MessageKind.CERT else "join_id"])
        # A NONCE is sealed under the pending member key; without one it is dropped unread.
        if session is None or (kind == MessageKind.NONCE and session.pending_key is None):
            return
        if kind != session.expects:
            self._reject(session, "out_of_order", ctx)
        elif step(self, message, session, ctx):
            session.expects = _EXPECTS_AFTER.get(kind)

    def _reject(self, session: LeaderJoinSession, reason: str, ctx: Ctx) -> bool:
        session.expects = None
        ctx.note("verdict", "join_rejected", reason, about=session.requester)
        return False

    def _open_join(self, requester: str, ctx: Ctx) -> Optional[LeaderJoinSession]:
        """A new join for `requester`, replacing any earlier one; None when it
        may not join."""
        if requester in self.member_view:
            ctx.note("verdict", "join_rejected", "already_member", about=requester)
            return None
        session = self.join_sessions[requester] = LeaderJoinSession(requester)
        if len(self.member_view) >= self.capacity:
            self._reject(session, "capacity", ctx)
            return None
        return session

    def _join_request(self, message: Message, session: LeaderJoinSession, ctx: Ctx) -> bool:
        commitments = []
        for _ in range(self.challenge_rounds):
            commitment, witness = zk_commit(ctx.rng, self.zk_params.modulus)
            commitments.append(commitment)
            session.witnesses.append(witness)
        ctx.emit(
            msg(
                MessageKind.ZK_PARAMS,
                join_id=session.requester,
                modulus=self.zk_params.modulus,
                square=self.zk_params.square,
                commitments=commitments,
            )
        )
        return True

    def _join_challenge(self, message: Message, session: LeaderJoinSession, ctx: Ctx) -> bool:
        challenges = message["challenges"]
        if len(challenges) != len(session.witnesses):
            return self._reject(session, "bad_challenge_count", ctx)
        responses = [
            zk_respond(w, self.zk_secret.secret, c, self.zk_params.modulus)
            for w, c in zip(session.witnesses, challenges)
        ]
        ctx.emit(msg(MessageKind.ZK_RESPONSE, join_id=session.requester, responses=responses))
        return True

    def _join_cert(self, message: Message, session: LeaderJoinSession, ctx: Ctx) -> bool:
        cert = Certificate(
            subject=message["subject"],
            subject_public=message["subject_public"],
            authority_sig=message["authority_sig"],
        )
        if not self._check_certificate(cert, session, ctx):
            return False
        # Membership stays pending until the nonce round-trip completes, so a
        # mid-handshake rekey never reaches (or is readable by) the joiner.
        member_id, member_key = self._issue_member_key()
        ctx.secret(("member_key", session.requester, self.lineage), member_key)
        session.pending_key = member_key
        session.pending_public = cert.subject_public
        plain = seal_plain(
            MessageKind.ADMIT, leader_public=self.keypair.public, member_id=member_id, member_key=member_key
        )
        sealed = self.provider.pk_encrypt(cert.subject_public, plain, ctx.rng)
        ctx.emit(msg(MessageKind.ADMIT, join_id=session.requester, sealed=sealed), to=session.requester)
        return True

    def _check_certificate(self, cert: Certificate, session: LeaderJoinSession, ctx: Ctx) -> bool:
        """Whether the joiner's certificate is the authority's; a forged one
        lowers the joiner's trust, is alerted to the leader ring and rejects
        the join."""
        if not check_certificate(self.provider, self.authority_public, cert):
            self.trust[session.requester] = update_trust(
                self.trust.get(session.requester, self.trust_initial), "malformed"
            )
            ctx.emit(self._alert(cert.subject, "bad_certificate"), to=BROADCAST, channel="ring")
            return self._reject(session, "bad_certificate", ctx)
        ctx.note("verdict", "cert_ok", about=session.requester)
        return True

    def _join_nonce(self, message: Message, session: LeaderJoinSession, ctx: Ctx) -> bool:
        try:
            opened = open_sealed(message.kind, self.provider.sym_decrypt(session.pending_key, message["sealed"]))
        except UNOPENABLE:
            return self._reject(session, "bad_nonce_seal", ctx)
        self.member_view[session.requester] = session.pending_public
        old_key = self.group_key
        self._next_epoch(ctx.rng)
        rows = self.directory_rows()
        inner = seal_plain(
            MessageKind.MEMBER_SET, nonce=opened["nonce"], rows=rows, group_key=self.group_key, lineage=self.lineage,
            epoch=self.epoch, group=self.group_id,
        )
        ctx.emit(
            msg(
                MessageKind.MEMBER_SET,
                join_id=session.requester,
                sealed=self.provider.sym_encrypt(session.pending_key, inner, ctx.rng),
            ),
            to=session.requester,
        )
        rekey_inner = seal_plain(
            MessageKind.REKEY, "group", group_key=self.group_key, epoch=self.epoch, lineage=self.lineage, rows=rows
        )
        self._emit_rekey("group", self.provider.sym_encrypt(old_key, rekey_inner, ctx.rng), ctx)
        self.heartbeats[session.requester] = ctx.now
        self.trust.setdefault(session.requester, self.trust_initial)
        ctx.secret(("group_key", self.lineage, self.epoch), self.group_key)
        ctx.note("admit", "handshake", about=session.requester)
        ctx.note("rekey", "join", ("lineage", self.lineage), ("epoch", self.epoch))
        return True

    # The join steps a leader answers.
    JOIN_HANDLERS = {
        MessageKind.JOIN_REQ: _join_request,
        MessageKind.ZK_CHALLENGE: _join_challenge,
        MessageKind.CERT: _join_cert,
        MessageKind.NONCE: _join_nonce,
    }

    # -- removal and liveness -------------------------------------------------

    def remove_members(self, names: list, reason: str, ctx: Ctx) -> None:
        """Drop one or more members and rotate the group key once.

        Simultaneous expiries must share a single rotation: rekeying after
        each drop would briefly hand the intermediate epoch to members that
        are being removed in the same sweep.
        """
        departed = {}
        for name in names:
            if name not in self.heartbeats:
                ctx.note("verdict", "remove_unknown_member", about=name)
                continue
            departed[name] = self.member_view.pop(name)
            del self.heartbeats[name]
            ctx.note("remove", reason, about=name)
        if not departed:
            return
        self._rekey_removal(ctx)
        if reason == "misbehavior":
            for name in departed:
                ctx.emit(self._alert(name, "misbehavior"), to=BROADCAST, channel="ring")

    def _rekey_removal(self, ctx: Ctx) -> None:
        """Rotate the group key after a removal: the new epoch's key goes to
        each remaining member alone."""
        self._next_epoch(ctx.rng)
        ctx.secret(("group_key", self.lineage, self.epoch), self.group_key)
        inner = seal_plain(
            MessageKind.REKEY, "public", **self._keyset_fields(self.directory_rows()), member_key=b"", member_id=0
        )
        for member_name in sorted(self.heartbeats):
            self._send_keyset(member_name, self.member_view[member_name], inner, ctx)
        ctx.note("rekey", "leave", ("lineage", self.lineage), ("epoch", self.epoch))

    def record_heartbeat(self, who: str, now: int) -> None:
        if who in self.heartbeats:
            self.heartbeats[who] = now

    def check_liveness(self, now: int, deadline: int) -> list[str]:
        expired = sorted(name for name, last in self.heartbeats.items() if now - last > deadline)
        for name in expired:
            self.trust[name] = update_trust(self.trust.get(name, self.trust_initial), "heartbeat_missed")
        return expired

    # -- lookups and alerts -----------------------------------------------------

    def handle_pubkey_query(self, message: Message, asker: str, ctx: Ctx) -> None:
        subject = message["subject"]
        public = self.member_view.get(subject)
        if public is None:
            self.alert_not_member(subject, ctx)
            return
        sig = self.provider.sign(self.keypair.private, encoding.encode("pubkey", subject, public))
        ctx.emit(
            msg(MessageKind.PUBKEY_ANSWER, subject=subject, subject_public=public, leader_sig=sig),
            to=asker,
        )

    def alert_not_member(self, name: str, ctx: Ctx) -> None:
        """Tell the group that `name` is not a member."""
        ctx.emit(self._alert(name, "not_a_member"))
        ctx.note("alert", "not_a_member", about=name)

    def _alert(self, accused: str, reason: str) -> Message:
        sig = self.provider.sign(self.keypair.private, encoding.encode("alert", accused, reason))
        return msg(MessageKind.MALICIOUS_ALERT, accused=accused, reason=reason, leader_sig=sig)


# ---------------------------------------------------------------------------
# Node (member) side of the join, plus the member keyring
# ---------------------------------------------------------------------------


@dataclass
class NodeJoinState:
    leader: str
    expects: Optional[MessageKind] = MessageKind.ZK_PARAMS  # None once admitted or aborted
    modulus: int = 0
    square: int = 0
    commitments: list = field(default_factory=list)
    challenges: list = field(default_factory=list)
    nonce: int = 0


class MemberKeyService:
    """Member-side keyring and the node half of the join handshake; it
    reads its run's `params` once, when built."""

    def __init__(self, name: str, keypair, certificate: Certificate, provider, params):
        self.name = name
        self.keypair = keypair
        self.certificate = certificate
        self.provider = provider
        self.challenge_bits = params.challenge_bits
        self.challenge_rounds = params.challenge_rounds
        self.join: Optional[NodeJoinState] = None
        self.group_id: Optional[str] = None
        self.lineage: Optional[str] = None
        self.epoch: int = 0
        self.keyring: dict[tuple[str, int], bytes] = {}
        self.member_key: Optional[bytes] = None
        self.leader: Optional[str] = None
        self.leader_public: Optional[bytes] = None
        self.member_view: dict[str, bytes] = {}

    @property
    def group_key(self) -> Optional[bytes]:
        if self.lineage is None:
            return None
        return self.keyring.get((self.lineage, self.epoch))

    def is_member(self) -> bool:
        return self.group_key is not None

    def _store_keyset(self, opened: dict) -> None:
        """Adopt an opened keyset: its group key, lineage, epoch and rows."""
        self.lineage, self.epoch = opened["lineage"], opened["epoch"]
        self.keyring[(self.lineage, self.epoch)] = opened["group_key"]
        self.member_view = {name: public for name, public in opened["rows"]}

    # -- join, node side ---------------------------------------------------------

    def begin_join(self, leader: str, ctx: Ctx) -> None:
        self.join = NodeJoinState(leader=leader)
        ctx.emit(msg(MessageKind.JOIN_REQ, requester=self.name), to=leader)

    def handle_join(self, message: Message, ctx: Ctx) -> None:
        """Answer one message of this node's own join, in the order
        `JOIN_ORDER` sets."""
        step = self.JOIN_HANDLERS.get(message.kind)
        join = self.join
        if step is None or join is None or message["join_id"] != self.name:
            return
        if message.kind != join.expects:
            self._abort_join("out_of_order", ctx)
        elif step(self, message, join, ctx):
            join.expects = _EXPECTS_AFTER.get(message.kind)

    def _abort_join(self, reason: str, ctx: Ctx) -> bool:
        self.join.expects = None
        ctx.note("verdict", "join_abort", reason, about=self.name)
        return False

    def _zk_params(self, message: Message, join: NodeJoinState, ctx: Ctx) -> bool:
        if message["modulus"] <= 3:  # too small to commit to (see zk_commit)
            return self._abort_join("bad_zk_params", ctx)
        join.modulus = message["modulus"]
        join.square = message["square"]
        join.commitments = list(message["commitments"])
        if len(join.commitments) != self.challenge_rounds:
            return self._abort_join("bad_commitment_count", ctx)
        join.challenges = [
            ctx.rng.getrandbits(self.challenge_bits) for _ in join.commitments
        ]
        ctx.emit(msg(MessageKind.ZK_CHALLENGE, join_id=self.name, challenges=join.challenges))
        return True

    def _zk_response(self, message: Message, join: NodeJoinState, ctx: Ctx) -> bool:
        responses = message["responses"]
        if len(responses) != len(join.commitments):
            return self._abort_join("bad_response_count", ctx)
        ok = all(
            zk_verify(x, join.square, c, y, join.modulus)
            for x, c, y in zip(join.commitments, join.challenges, responses)
        )
        if not ok:
            return self._abort_join("leader_unauthenticated", ctx)
        ctx.note("verdict", "zk_ok", about=self.name)
        cert = self.certificate
        ctx.emit(
            msg(
                MessageKind.CERT,
                subject=cert.subject,
                subject_public=cert.subject_public,
                authority_sig=cert.authority_sig,
            ),
            to=join.leader,
        )
        return True

    def _admit(self, message: Message, join: NodeJoinState, ctx: Ctx) -> bool:
        try:
            opened = open_sealed(message.kind, self.provider.pk_decrypt(self.keypair.private, message["sealed"]))
        except UNOPENABLE:
            return self._abort_join("bad_admit_seal", ctx)
        if not key_fits(self.provider, opened["member_key"]):
            return self._abort_join("bad_admit_seal", ctx)
        self.leader = join.leader
        self.leader_public = opened["leader_public"]
        self.member_key = opened["member_key"]
        join.nonce = ctx.rng.getrandbits(64)
        plain = seal_plain(MessageKind.NONCE, nonce=join.nonce)
        sealed = self.provider.sym_encrypt(self.member_key, plain, ctx.rng)
        ctx.emit(msg(MessageKind.NONCE, join_id=self.name, sealed=sealed), to=join.leader)
        return True

    def _member_set(self, message: Message, join: NodeJoinState, ctx: Ctx) -> bool:
        try:
            plain = self.provider.sym_decrypt(self.member_key, message["sealed"])
            opened = open_sealed(message.kind, plain, directories=self.provider.directories)
        except UNOPENABLE:
            return self._abort_join("bad_member_set_seal", ctx)
        if not key_fits(self.provider, opened["group_key"]):
            return self._abort_join("bad_member_set_seal", ctx)
        if opened["nonce"] != join.nonce:
            return self._abort_join("nonce_mismatch", ctx)
        self.group_id = opened["group"]
        self._store_keyset(opened)
        ctx.note("verdict", "joined", about=self.name)
        return True

    # The join steps a joining node answers.
    JOIN_HANDLERS = {
        MessageKind.ZK_PARAMS: _zk_params,
        MessageKind.ZK_RESPONSE: _zk_response,
        MessageKind.ADMIT: _admit,
        MessageKind.MEMBER_SET: _member_set,
    }

    # -- rekey handling ------------------------------------------------------------

    def handle_rekey(self, message: Message, ctx: Ctx) -> None:
        mode = message["mode"]
        if mode == "group":
            old = self.keyring.get((message["lineage"], message["epoch"]))
            if old is None:
                ctx.note("verdict", "rekey_undecryptable", "unknown_epoch", about=self.name)
                return
            try:
                plain = self.provider.sym_decrypt(old, message["sealed"])
                opened = open_sealed(message.kind, plain, mode, self.provider.directories)
            except UNOPENABLE:
                ctx.note("verdict", "rekey_undecryptable", "auth", about=self.name)
                return
            if not key_fits(self.provider, opened["group_key"]):
                ctx.note("verdict", "rekey_undecryptable", "bad_key", about=self.name)
                return
            self._store_keyset(opened)
        elif mode == "public":
            try:
                plain = self.provider.pk_decrypt(self.keypair.private, message["sealed"])
                opened = open_sealed(message.kind, plain, mode, self.provider.directories)
            except UNOPENABLE:
                ctx.note("verdict", "rekey_undecryptable", "not_addressee", about=self.name)
                return
            member_key = opened["member_key"]
            if not key_fits(self.provider, opened["group_key"]) or (
                member_key and not key_fits(self.provider, member_key)
            ):
                ctx.note("verdict", "rekey_undecryptable", "bad_key", about=self.name)
                return
            self.leader = opened["leader"]
            self.leader_public = opened["leader_public"]
            self.group_id = message["group"]
            self._store_keyset(opened)
            if member_key:
                self.member_key = member_key

    def forget_membership(self) -> None:
        """Local bookkeeping when this node leaves; held keys stay held."""
        self.join = None
        self.member_view = {}
        self.group_id = None
        self.lineage = None
        self.epoch = 0
        self.leader = None
        self.leader_public = None


# ---------------------------------------------------------------------------
# Pairwise session keys
# ---------------------------------------------------------------------------


@dataclass
class SessionState:
    initiator: str
    responder: str
    t_a: int = 0
    t_b: int = 0
    nonce1: int = 0
    key: Optional[bytes] = None
    expects: Optional[MessageKind] = MessageKind.SESSION_2  # None once confirmed or aborted


def _session1_payload(initiator: str, responder: str, t_a: int) -> bytes:
    return encoding.encode("session1", initiator, responder, t_a)


def _session2_payload(initiator: str, responder: str, t_a: int, t_b: int) -> bytes:
    return encoding.encode("session2", initiator, responder, t_a, t_b)


class SessionService:
    """Four-message pairwise key agreement, run by any group member; it
    reads its freshness window from its run's `params` once, when built."""

    def __init__(self, name: str, keypair, provider, params):
        self.name = name
        self.keypair = keypair
        self.provider = provider
        self.window = params.freshness_window
        self.sessions: dict[tuple[str, str], SessionState] = {}
        self.directory: dict[str, bytes] = {}  # peer name -> public key
        self.distrusted: set = set()
        self.pending_initiate: dict[str, None] = {}
        self.pending_respond: dict[str, tuple] = {}

    def _abort(self, session: SessionState, reason: str, ctx: Ctx) -> None:
        session.expects = None
        ctx.note("verdict", "session_aborted", reason, about=f"{session.initiator}-{session.responder}")

    def initiate(self, peer: str, leader: Optional[str], ctx: Ctx) -> None:
        """Open a session with `peer`, first asking `leader` for its key if
        need be; with no leader to ask, the session is aborted."""
        if peer in self.distrusted:
            ctx.note("verdict", "session_refused", "distrusted", about=f"{self.name}-{peer}")
            return
        session = self.sessions[(self.name, peer)] = SessionState(initiator=self.name, responder=peer)
        if peer not in self.directory:
            if leader is None:
                self._abort(session, "no_leader", ctx)
                return
            self.pending_initiate[peer] = None
            ctx.emit(msg(MessageKind.PUBKEY_QUERY, subject=peer), to=leader)
            return
        self._send_session1(peer, ctx)

    def _send_session1(self, peer: str, ctx: Ctx) -> None:
        """A SESSION_1 to `peer`, stamped now, signed by this node and sealed
        to `peer`'s key in the directory."""
        self.sessions[(self.name, peer)].t_a = ctx.now
        sig = self.provider.sign(self.keypair.private, _session1_payload(self.name, peer, ctx.now))
        plain = seal_plain(MessageKind.SESSION_1, initiator=self.name, responder=peer, t_a=ctx.now, sig=sig)
        sealed = self.provider.pk_encrypt(self.directory[peer], plain, ctx.rng)
        ctx.emit(msg(MessageKind.SESSION_1, sealed=sealed), to=peer)

    def open_addressed(self, message: Message) -> Optional[dict]:
        """The fields of a message sealed to this node's public key, or None."""
        try:
            return open_sealed(message.kind, self.provider.pk_decrypt(self.keypair.private, message["sealed"]))
        except UNOPENABLE:
            return None

    def handle_session1(self, message: Message, leader: Optional[str], ctx: Ctx) -> None:
        opened = self.open_addressed(message)
        if opened is None:
            ctx.note("verdict", "session_drop", "not_addressee", about=self.name)
            return
        self.answer_session1(opened, leader, ctx)

    def answer_session1(self, opened: dict, leader: Optional[str], ctx: Ctx) -> None:
        """Act on an opened SESSION_1: check it, then sign a reply or ask
        `leader` for the initiator's public key; with no leader to ask, the
        session is aborted."""
        initiator, t_a, sig_bytes = opened["initiator"], opened["t_a"], opened["sig"]
        if opened["responder"] != self.name:
            return
        session = SessionState(initiator=initiator, responder=self.name, t_a=t_a)
        self.sessions[(initiator, self.name)] = session
        if ctx.now - t_a > self.window:
            self._abort(session, "stale_timestamp", ctx)
            return
        if initiator in self.distrusted:
            self._abort(session, "distrusted_peer", ctx)
            return
        if initiator not in self.directory:
            if leader is None:
                self._abort(session, "no_leader", ctx)
                return
            self.pending_respond[initiator] = (t_a, sig_bytes)
            ctx.emit(msg(MessageKind.PUBKEY_QUERY, subject=initiator), to=leader)
            return
        self._verify_and_respond(initiator, t_a, sig_bytes, ctx)

    def _verify_and_respond(self, initiator: str, t_a: int, sig_bytes: bytes, ctx: Ctx) -> None:
        session = self.sessions[(initiator, self.name)]
        ok = self.provider.verify(
            self.directory[initiator], _session1_payload(initiator, self.name, t_a), sig_bytes
        )
        if not ok:
            self._abort(session, "bad_signature", ctx)
            return
        session.t_b = ctx.now
        payload = _session2_payload(initiator, self.name, t_a, session.t_b)
        sig = self.provider.sign(self.keypair.private, payload)
        plain = seal_plain(
            MessageKind.SESSION_2, initiator=initiator, responder=self.name, t_a=t_a, t_b=session.t_b, sig=sig
        )
        sealed = self.provider.pk_encrypt(self.directory[initiator], plain, ctx.rng)
        session.expects = MessageKind.SESSION_3
        ctx.emit(msg(MessageKind.SESSION_2, sealed=sealed), to=initiator)

    def handle_session2(self, message: Message, ctx: Ctx) -> None:
        opened = self.open_addressed(message)
        if opened is None:
            return
        initiator, responder = opened["initiator"], opened["responder"]
        t_a, t_b, sig_bytes = opened["t_a"], opened["t_b"], opened["sig"]
        if initiator != self.name:
            return
        session = self.sessions.get((self.name, responder))
        if session is None or session.expects != MessageKind.SESSION_2:
            return
        if t_a != session.t_a:
            self._abort(session, "timestamp_mismatch", ctx)
            return
        if ctx.now - t_b > self.window:
            self._abort(session, "stale_timestamp", ctx)
            return
        if responder not in self.directory or not self.provider.verify(
            self.directory[responder], _session2_payload(initiator, responder, t_a, t_b), sig_bytes
        ):
            self._abort(session, "bad_signature", ctx)
            return
        session.t_b = t_b
        session.key = self.provider.generate_symmetric_key(ctx.rng)
        ctx.secret(("session_key", responder), session.key)
        session.nonce1 = ctx.rng.getrandbits(64)
        plain = seal_plain(MessageKind.SESSION_3, t_a=t_a, t_b=t_b, nonce=session.nonce1, session_key=session.key)
        sealed = self.provider.pk_encrypt(self.directory[responder], plain, ctx.rng)
        session.expects = MessageKind.SESSION_4
        ctx.emit(msg(MessageKind.SESSION_3, sealed=sealed), to=responder)

    def handle_session3(self, message: Message, ctx: Ctx) -> None:
        # A SESSION_3 with a key this end cannot use is dropped as unopenable.
        opened = self.open_addressed(message)
        if opened is None or not key_fits(self.provider, opened["session_key"]):
            return
        t_a = opened["t_a"]
        session = None
        for candidate in self.sessions.values():
            if candidate.responder == self.name and candidate.expects == MessageKind.SESSION_3 and candidate.t_a == t_a:
                session = candidate
                break
        if session is None:
            ctx.note("verdict", "session_aborted", "no_matching_exchange", about=self.name)
            return
        if opened["t_b"] != session.t_b:
            self._abort(session, "timestamp_mismatch", ctx)
            return
        session.key = opened["session_key"]
        session.nonce1 = opened["nonce"]
        nonce2 = ctx.rng.getrandbits(64)
        plain = seal_plain(MessageKind.SESSION_4, nonce=session.nonce1, nonce2=nonce2)
        sealed = self.provider.sym_encrypt(session.key, plain, ctx.rng)
        session.expects = None
        ctx.note("verdict", "session_confirmed", about=f"{session.initiator}-{session.responder}")
        ctx.emit(
            msg(
                MessageKind.SESSION_4,
                initiator=session.initiator,
                responder=self.name,
                sealed=sealed,
            ),
            to=session.initiator,
        )

    def handle_session4(self, message: Message, ctx: Ctx) -> None:
        if message["initiator"] != self.name:
            return
        session = self.sessions.get((self.name, message["responder"]))
        if session is None or session.expects != MessageKind.SESSION_4:
            return
        try:
            opened = open_sealed(message.kind, self.provider.sym_decrypt(session.key, message["sealed"]))
        except UNOPENABLE:
            self._abort(session, "bad_confirmation_seal", ctx)
            return
        if opened["nonce"] != session.nonce1:
            self._abort(session, "nonce_mismatch", ctx)
            return
        session.expects = None
        ctx.note("verdict", "session_confirmed", about=f"{session.initiator}-{session.responder}")

    def handle_pubkey_answer(self, message: Message, leader_public: bytes, ctx: Ctx) -> None:
        subject = message["subject"]
        payload = encoding.encode("pubkey", subject, message["subject_public"])
        ok = self.provider.verify(leader_public, payload, message["leader_sig"])
        if not ok:
            ctx.note("verdict", "pubkey_answer_rejected", about=subject)
            return
        self.directory[subject] = message["subject_public"]
        if subject in self.pending_initiate:
            del self.pending_initiate[subject]
            self._send_session1(subject, ctx)
        if subject in self.pending_respond:
            t_a, sig_bytes = self.pending_respond.pop(subject)
            self._verify_and_respond(subject, t_a, sig_bytes, ctx)

    def handle_alert(self, message: Message, leader_public: bytes, ctx: Ctx) -> None:
        """Distrust the accused of an alert signed by `leader_public`."""
        accused = message["accused"]
        if not self.provider.verify(
            leader_public, encoding.encode("alert", accused, message["reason"]), message["leader_sig"]
        ):
            return
        self.distrusted.add(accused)
        self.pending_initiate.pop(accused, None)
        self.pending_respond.pop(accused, None)
        for key, session in list(self.sessions.items()):
            if accused in key and session.expects is not None:
                self._abort(session, "leader_alert", ctx)


# ---------------------------------------------------------------------------
# Leader-ring key agreement
# ---------------------------------------------------------------------------


def leader_ring_agree(leaders: list[tuple[str, int]], provider) -> bytes:
    """Ring key agreement over an ordered leader list of (name, ring secret).

    The chain of the leaders' Diffie-Hellman steps (GDH.2's upflow):
    starting from the generator, each leader in turn raises the value to
    its own secret, so the last step yields the generator raised to every
    secret.  The simulator computes the whole chain in one call.  A ring
    needs two leaders: a lone leader has no one to share a key with, and no
    caller asks it to agree one.  Returns the symmetric key derived from the
    result.
    """
    if len(leaders) < 2:
        raise ValueError("ring needs at least two leaders")
    shared = RING_GENERATOR
    for _, secret in leaders:
        shared = dh_contribute(RING_GENERATOR, RING_MODULUS, secret, shared)
    digest = provider.hash(encoding.encode("ring-key", shared))
    return digest[: provider.sym_key_size]
