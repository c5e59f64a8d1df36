"""Group key lifecycle: hierarchy, join handshake, sessions, revocation.

The leader of each group owns a :class:`KeyHierarchy`: the group key (with
its epoch counter and a lineage identifier that changes on every leadership
change), one derived key per member, and the secret number feeding that
derivation.  Joining runs a nine-message handshake in which the node first
authenticates the leader with a quadratic-residue challenge-response and
the leader then authenticates the node by its certificate; only after both
succeed is the node admitted and the group rekeyed.  Leaving (voluntary,
silent, or forced) also rekeys.  Pairs of members agree on session keys
with a four-message timestamped exchange, asking the leader for public
keys they do not hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
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
# Key hierarchy
# ---------------------------------------------------------------------------


def derive_member_key(member_id: int, secret: int, provider) -> bytes:
    """Leader-to-member key: hash of the member id and the leader's secret."""
    digest = provider.hash(encoding.encode("member-key", member_id, secret))
    return digest[: provider.sym_key_size]


@dataclass
class KeyHierarchy:
    group_id: str
    lineage: str
    leader: str
    member_secret: int
    group_key: bytes
    epoch: int = 1
    member_keys: dict = field(default_factory=dict)  # name -> key bytes
    member_ids: dict = field(default_factory=dict)  # name -> int
    member_publics: dict = field(default_factory=dict)  # name -> bytes
    next_member_id: int = 1
    key_history: dict = field(default_factory=dict)  # (lineage, epoch) -> key

    def __post_init__(self):
        self.key_history[(self.lineage, self.epoch)] = self.group_key

    def members(self) -> list[str]:
        """Every member including the leader, sorted."""
        return sorted(set(self.member_publics) | {self.leader})

    def rotate(self, rng: random.Random, provider) -> bytes:
        old = self.group_key
        self.group_key = provider.generate_symmetric_key(rng)
        self.epoch += 1
        self.key_history[(self.lineage, self.epoch)] = self.group_key
        return old

    def reserve_member_id(self) -> int:
        member_id = self.next_member_id
        self.next_member_id += 1
        return member_id

    def enroll(self, name: str, public: bytes, provider) -> tuple[int, bytes]:
        member_id = self.reserve_member_id()
        key = derive_member_key(member_id, self.member_secret, provider)
        self.commit_member(name, public, member_id, key)
        return member_id, key

    def commit_member(self, name: str, public: bytes, member_id: int, key: bytes) -> None:
        self.member_ids[name] = member_id
        self.member_keys[name] = key
        self.member_publics[name] = public

    def drop(self, name: str) -> None:
        self.member_keys.pop(name, None)
        self.member_ids.pop(name, None)
        self.member_publics.pop(name, None)


# ---------------------------------------------------------------------------
# Join handshake
# ---------------------------------------------------------------------------


class JoinPhase(str, Enum):
    REQUESTED = "requested"
    ZK_ANNOUNCED = "zk_announced"
    CHALLENGED = "challenged"
    ZK_PROVED = "zk_proved"
    CERT_VERIFIED = "cert_verified"
    ADMITTED = "admitted"
    REJECTED = "rejected"


@dataclass
class LeaderJoinSession:
    requester: str
    phase: JoinPhase
    witnesses: list  # ephemeral witnesses, one per round
    pending_id: int = 0
    pending_key: Optional[bytes] = None
    pending_public: bytes = b""


# Bit length of each prime in a leader's identification modulus.
PRIME_BITS = 32


@dataclass
class JoinConfig:
    challenge_bits: int = 64
    challenge_rounds: int = 1


def _draw_prime(rng: random.Random, bits: int) -> int:
    return next_prime(rng.getrandbits(bits) | (1 << (bits - 1)))


class LeaderKeyService:
    """Leader-side key management: hierarchy, joins, removals, lookups."""

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
        cfg: JoinConfig = JoinConfig(),
        faults: Optional[set] = None,
    ):
        self.name = name
        self.group_id = group_id
        self.keypair = keypair
        self.provider = provider
        self.authority_public = authority_public
        self.capacity = capacity
        self.cfg = cfg
        self.faults = faults or set()
        p = _draw_prime(rng, PRIME_BITS)
        q = _draw_prime(rng, PRIME_BITS)
        while q == p:
            q = _draw_prime(rng, PRIME_BITS)
        secret = rng.randrange(2, p * q)
        self.zk_params, self.zk_secret = zk_setup(p, q, secret)
        self.hierarchy = KeyHierarchy(
            group_id=group_id,
            lineage=lineage,
            leader=name,
            member_secret=rng.getrandbits(128),
            group_key=provider.generate_symmetric_key(rng),
        )
        self.join_sessions: dict[str, LeaderJoinSession] = {}
        self.heartbeats: dict[str, int] = {}
        self.trust: dict[str, float] = {}

    # -- membership bootstrap / takeover ------------------------------------

    def directory_rows(self) -> list:
        """Membership snapshot carried in key messages: (name, public) rows."""
        rows = [[name, public] for name, public in self.hierarchy.member_publics.items()]
        rows.append([self.name, self.keypair.public])
        return sorted(rows)

    def found_group(self, members: list[tuple[str, bytes]], ctx: Ctx, cause: str) -> None:
        """Enroll members directly and push them the full key set.

        Used at scenario start and when a newly elected leader rebuilds the
        hierarchy: every member gets the group key, a fresh derived key and
        its member id, sealed to its public key.
        """
        for member_name, public in sorted(members):
            if member_name == self.name:
                continue
            self.hierarchy.enroll(member_name, public, self.provider)
        h = self.hierarchy
        ctx.secret(f"member_secret:{h.lineage}", h.member_secret)
        ctx.secret(f"group_key:{h.lineage}:{h.epoch}", h.group_key)
        names = sorted(h.member_publics)
        addressed = [{"member_key": h.member_keys[name], "member_id": h.member_ids[name]} for name in names]
        plains = seal_batch(MessageKind.REKEY, "public", self._keyset_fields(self.directory_rows()), addressed)
        for member_name, plain in zip(names, plains):
            ctx.secret(f"member_key:{member_name}:{h.lineage}", h.member_keys[member_name])
            self._send_keyset(member_name, h.member_publics[member_name], plain, ctx)
            self.heartbeats[member_name] = ctx.now
            self.trust.setdefault(member_name, 0.5)
        ctx.note("rekey", cause, ("lineage", self.hierarchy.lineage), ("epoch", self.hierarchy.epoch))

    # -- rekey messages --------------------------------------------------------

    def _keyset_fields(self, rows: list) -> dict:
        """The fields every public-mode REKEY of the current epoch shares: the
        group key and membership and the leader's identity.  The rest are
        the addressee's derived key and member id, empty when they do not
        change."""
        h = self.hierarchy
        return {
            "group_key": h.group_key, "epoch": h.epoch, "lineage": h.lineage, "rows": rows, "leader": self.name,
            "leader_public": self.keypair.public,
        }

    def _send_keyset(self, member_name: str, public: bytes, plain: bytes, ctx: Ctx) -> None:
        self._emit_rekey("public", self.provider.pk_encrypt(public, plain, ctx.rng), ctx, to=member_name)

    def _emit_rekey(self, mode: str, sealed: bytes, ctx: Ctx, to: str = BROADCAST) -> None:
        """Announce the current epoch.  A group-mode REKEY is sealed under the
        previous group key, so its header names that key's epoch."""
        h = self.hierarchy
        epoch = h.epoch - 1 if mode == "group" else h.epoch
        ctx.emit(
            msg(MessageKind.REKEY, group=self.group_id, lineage=h.lineage, epoch=epoch, mode=mode, sealed=sealed),
            to=to,
        )

    # -- nine-message join, leader side --------------------------------------

    def handle_join(self, message: Message, ctx: Ctx) -> None:
        kind = message.kind
        if kind == MessageKind.JOIN_REQ:
            self._join_request(message, ctx)
        elif kind == MessageKind.ZK_CHALLENGE:
            self._join_challenge(message, ctx)
        elif kind == MessageKind.CERT:
            self._join_cert(message, ctx)
        elif kind == MessageKind.NONCE:
            self._join_nonce(message, ctx)

    def _reject(self, session: LeaderJoinSession, reason: str, ctx: Ctx) -> None:
        session.phase = JoinPhase.REJECTED
        ctx.note("verdict", "join_rejected", reason, about=session.requester)

    def _join_request(self, message: Message, ctx: Ctx) -> None:
        requester = message["requester"]
        if requester in self.hierarchy.members():
            ctx.note("verdict", "join_rejected", "already_member", about=requester)
            return
        if len(self.hierarchy.members()) >= self.capacity:
            session = LeaderJoinSession(requester, JoinPhase.REJECTED, [])
            self.join_sessions[requester] = session
            ctx.note("verdict", "join_rejected", "capacity", about=requester)
            return
        commitments = []
        witnesses = []
        for _ in range(self.cfg.challenge_rounds):
            commitment, witness = zk_commit(ctx.rng, self.zk_params.modulus)
            commitments.append(commitment)
            witnesses.append(witness)
        self.join_sessions[requester] = LeaderJoinSession(
            requester, JoinPhase.ZK_ANNOUNCED, witnesses
        )
        ctx.emit(
            msg(
                MessageKind.ZK_PARAMS,
                join_id=requester,
                modulus=self.zk_params.modulus,
                square=self.zk_params.square,
                commitments=commitments,
            )
        )

    def _join_challenge(self, message: Message, ctx: Ctx) -> None:
        session = self.join_sessions.get(message["join_id"])
        if session is None:
            return
        if session.phase != JoinPhase.ZK_ANNOUNCED:
            self._reject(session, "out_of_order", ctx)
            return
        challenges = message["challenges"]
        if len(challenges) != len(session.witnesses):
            self._reject(session, "bad_challenge_count", ctx)
            return
        responses = [
            zk_respond(w, self.zk_secret.secret, c, self.zk_params.modulus)
            for w, c in zip(session.witnesses, challenges)
        ]
        session.phase = JoinPhase.CHALLENGED
        ctx.emit(msg(MessageKind.ZK_RESPONSE, join_id=session.requester, responses=responses))

    def _join_cert(self, message: Message, ctx: Ctx) -> None:
        session = self.join_sessions.get(message["subject"])
        if session is None:
            return
        if session.phase != JoinPhase.CHALLENGED:
            self._reject(session, "out_of_order", ctx)
            return
        cert = Certificate(
            subject=message["subject"],
            subject_public=message["subject_public"],
            authority_sig=message["authority_sig"],
        )
        if "forge_admit" not in self.faults:
            if not check_certificate(self.provider, self.authority_public, cert):
                self._reject(session, "bad_certificate", ctx)
                self.trust[session.requester] = update_trust(
                    self.trust.get(session.requester, 0.5), "malformed"
                )
                alert = self._alert(cert.subject, "bad_certificate")
                ctx.emit(alert, to=BROADCAST, channel="ring")
                return
            ctx.note("verdict", "cert_ok", about=session.requester)
        # Membership stays pending until the nonce round-trip completes, so a
        # mid-handshake rekey never reaches (or is readable by) the joiner.
        member_id = self.hierarchy.reserve_member_id()
        member_key = derive_member_key(member_id, self.hierarchy.member_secret, self.provider)
        ctx.secret(f"member_key:{session.requester}:{self.hierarchy.lineage}", member_key)
        session.pending_id = member_id
        session.pending_key = member_key
        session.pending_public = cert.subject_public
        session.phase = JoinPhase.CERT_VERIFIED
        plain = seal_plain(
            MessageKind.ADMIT, leader_public=self.keypair.public, member_id=member_id, member_key=member_key
        )
        sealed = self.provider.pk_encrypt(cert.subject_public, plain, ctx.rng)
        ctx.emit(msg(MessageKind.ADMIT, join_id=session.requester, sealed=sealed), to=session.requester)

    def _join_nonce(self, message: Message, ctx: Ctx) -> None:
        session = self.join_sessions.get(message["join_id"])
        if session is None or session.pending_key is None:
            return
        if session.phase != JoinPhase.CERT_VERIFIED:
            self._reject(session, "out_of_order", ctx)
            return
        try:
            opened = open_sealed(message.kind, self.provider.sym_decrypt(session.pending_key, message["sealed"]))
        except UNOPENABLE:
            self._reject(session, "bad_nonce_seal", ctx)
            return
        h = self.hierarchy
        h.commit_member(
            session.requester, session.pending_public, session.pending_id, session.pending_key
        )
        old_key = h.rotate(ctx.rng, self.provider)
        rows = self.directory_rows()
        inner = seal_plain(
            MessageKind.MEMBER_SET, nonce=opened["nonce"], rows=rows, group_key=h.group_key, lineage=h.lineage,
            epoch=h.epoch, group=self.group_id,
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
            MessageKind.REKEY, "group", group_key=h.group_key, epoch=h.epoch, lineage=h.lineage, rows=rows
        )
        self._emit_rekey("group", self.provider.sym_encrypt(old_key, rekey_inner, ctx.rng), ctx)
        session.phase = JoinPhase.ADMITTED
        self.heartbeats[session.requester] = ctx.now
        self.trust.setdefault(session.requester, 0.5)
        ctx.secret(f"group_key:{h.lineage}:{h.epoch}", h.group_key)
        ctx.note("admit", "handshake", about=session.requester)
        ctx.note("rekey", "join", ("lineage", h.lineage), ("epoch", h.epoch))

    # -- removal and liveness -------------------------------------------------

    def remove_member(self, name: str, reason: str, ctx: Ctx) -> None:
        self.remove_members([name], reason, ctx)

    def remove_members(self, names: list, reason: str, ctx: Ctx) -> None:
        """Drop one or more members and rotate the group key once.

        Simultaneous expiries must share a single rotation: rekeying after
        each drop would briefly hand the intermediate epoch to members that
        are being removed in the same sweep.
        """
        h = self.hierarchy
        departed = {}
        for name in names:
            if name not in h.member_publics:
                ctx.note("verdict", "remove_unknown_member", about=name)
                continue
            departed[name] = h.member_publics[name]
            h.drop(name)
            self.heartbeats.pop(name, None)
            ctx.note("remove", reason, about=name)
        if not departed:
            return
        if "skip_rekey" not in self.faults:
            h.rotate(ctx.rng, self.provider)
            ctx.secret(f"group_key:{h.lineage}:{h.epoch}", h.group_key)
            inner = seal_plain(
                MessageKind.REKEY, "public", **self._keyset_fields(self.directory_rows()), member_key=b"", member_id=0
            )
            recipients = sorted(h.member_publics.items())
            if "leak_key" in self.faults:
                recipients += departed.items()
            for member_name, public in recipients:
                self._send_keyset(member_name, public, inner, ctx)
            ctx.note("rekey", "leave", ("lineage", h.lineage), ("epoch", h.epoch))
        if reason == "misbehavior":
            for name in departed:
                ctx.emit(self._alert(name, "misbehavior"), to=BROADCAST, channel="ring")

    def record_heartbeat(self, who: str, now: int) -> None:
        if who in self.hierarchy.member_publics:
            self.heartbeats[who] = now

    def check_liveness(self, now: int, deadline: int) -> list[str]:
        expired = [
            name
            for name, last in sorted(self.heartbeats.items())
            if now - last > deadline
        ]
        for name in expired:
            self.trust[name] = update_trust(self.trust.get(name, 0.5), "heartbeat_missed")
        return expired

    # -- lookups and alerts -----------------------------------------------------

    def handle_pubkey_query(self, message: Message, asker: str, ctx: Ctx) -> None:
        subject = message["subject"]
        public = self.hierarchy.member_publics.get(subject)
        if subject == self.name:
            public = self.keypair.public
        if public is None:
            ctx.emit(self._alert(subject, "not_a_member"))
            ctx.note("alert", "not_a_member", about=subject)
            return
        sig = self.provider.sign(self.keypair.private, encoding.encode("pubkey", subject, public))
        ctx.emit(
            msg(MessageKind.PUBKEY_ANSWER, subject=subject, subject_public=public, leader_sig=sig),
            to=asker,
        )

    def _alert(self, accused: str, reason: str) -> Message:
        sig = self.provider.sign(self.keypair.private, encoding.encode("alert", accused, reason))
        return msg(MessageKind.MALICIOUS_ALERT, accused=accused, reason=reason, leader_sig=sig)


# ---------------------------------------------------------------------------
# Node (member) side of the join, plus the member keyring
# ---------------------------------------------------------------------------


@dataclass
class NodeJoinState:
    leader: str
    phase: JoinPhase = JoinPhase.REQUESTED
    modulus: int = 0
    square: int = 0
    commitments: list = field(default_factory=list)
    challenges: list = field(default_factory=list)
    nonce: int = 0


class MemberKeyService:
    """Member-side keyring and the node half of the join handshake."""

    def __init__(self, name: str, keypair, certificate: Certificate, provider, cfg: JoinConfig = JoinConfig()):
        self.name = name
        self.keypair = keypair
        self.certificate = certificate
        self.provider = provider
        self.cfg = cfg
        self.join: Optional[NodeJoinState] = None
        self.group_id: Optional[str] = None
        self.lineage: Optional[str] = None
        self.epoch: int = 0
        self.keyring: dict[tuple[str, int], bytes] = {}
        self.member_key: Optional[bytes] = None
        self.member_id: int = 0
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

    def _key_fits(self, key: bytes) -> bool:
        """Whether `key` is a symmetric key this provider can use; a member
        adopts no key of another size."""
        return len(key) == self.provider.sym_key_size

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
        if self.join is None:
            return
        kind = message.kind
        if kind == MessageKind.ZK_PARAMS and message["join_id"] == self.name:
            self._zk_params(message, ctx)
        elif kind == MessageKind.ZK_RESPONSE and message["join_id"] == self.name:
            self._zk_response(message, ctx)
        elif kind == MessageKind.ADMIT and message["join_id"] == self.name:
            self._admit(message, ctx)
        elif kind == MessageKind.MEMBER_SET and message["join_id"] == self.name:
            self._member_set(message, ctx)

    def _abort_join(self, reason: str, ctx: Ctx) -> None:
        if self.join is not None:
            self.join.phase = JoinPhase.REJECTED
        ctx.note("verdict", "join_abort", reason, about=self.name)

    def _zk_params(self, message: Message, ctx: Ctx) -> None:
        join = self.join
        if join.phase != JoinPhase.REQUESTED:
            self._abort_join("out_of_order", ctx)
            return
        if message["modulus"] <= 3:  # too small to commit to (see zk_commit)
            self._abort_join("bad_zk_params", ctx)
            return
        join.modulus = message["modulus"]
        join.square = message["square"]
        join.commitments = list(message["commitments"])
        if len(join.commitments) != self.cfg.challenge_rounds:
            self._abort_join("bad_commitment_count", ctx)
            return
        join.challenges = [
            ctx.rng.getrandbits(self.cfg.challenge_bits) for _ in join.commitments
        ]
        join.phase = JoinPhase.CHALLENGED
        ctx.emit(msg(MessageKind.ZK_CHALLENGE, join_id=self.name, challenges=join.challenges))

    def _zk_response(self, message: Message, ctx: Ctx) -> None:
        join = self.join
        if join.phase != JoinPhase.CHALLENGED:
            self._abort_join("out_of_order", ctx)
            return
        responses = message["responses"]
        if len(responses) != len(join.commitments):
            self._abort_join("bad_response_count", ctx)
            return
        ok = all(
            zk_verify(x, join.square, c, y, join.modulus)
            for x, c, y in zip(join.commitments, join.challenges, responses)
        )
        if not ok:
            self._abort_join("leader_unauthenticated", ctx)
            return
        join.phase = JoinPhase.ZK_PROVED
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

    def _admit(self, message: Message, ctx: Ctx) -> None:
        join = self.join
        if join.phase != JoinPhase.ZK_PROVED:
            self._abort_join("out_of_order", ctx)
            return
        try:
            opened = open_sealed(message.kind, self.provider.pk_decrypt(self.keypair.private, message["sealed"]))
        except UNOPENABLE:
            self._abort_join("bad_admit_seal", ctx)
            return
        if not self._key_fits(opened["member_key"]):
            self._abort_join("bad_admit_seal", ctx)
            return
        self.leader = join.leader
        self.leader_public = opened["leader_public"]
        self.member_id = opened["member_id"]
        self.member_key = opened["member_key"]
        join.nonce = ctx.rng.getrandbits(64)
        join.phase = JoinPhase.CERT_VERIFIED
        plain = seal_plain(MessageKind.NONCE, nonce=join.nonce)
        sealed = self.provider.sym_encrypt(self.member_key, plain, ctx.rng)
        ctx.emit(msg(MessageKind.NONCE, join_id=self.name, sealed=sealed), to=join.leader)

    def _member_set(self, message: Message, ctx: Ctx) -> None:
        join = self.join
        if join.phase != JoinPhase.CERT_VERIFIED:
            self._abort_join("out_of_order", ctx)
            return
        try:
            opened = open_sealed(message.kind, self.provider.sym_decrypt(self.member_key, message["sealed"]))
        except UNOPENABLE:
            self._abort_join("bad_member_set_seal", ctx)
            return
        if not self._key_fits(opened["group_key"]):
            self._abort_join("bad_member_set_seal", ctx)
            return
        if opened["nonce"] != join.nonce:
            self._abort_join("nonce_mismatch", ctx)
            return
        self.group_id = opened["group"]
        self._store_keyset(opened)
        join.phase = JoinPhase.ADMITTED
        ctx.note("verdict", "joined", about=self.name)

    # -- rekey handling ------------------------------------------------------------

    def handle_rekey(self, message: Message, ctx: Ctx) -> None:
        mode = message["mode"]
        if mode == "group":
            old = self.keyring.get((message["lineage"], message["epoch"]))
            if old is None:
                ctx.note("verdict", "rekey_undecryptable", "unknown_epoch", about=self.name)
                return
            try:
                opened = open_sealed(message.kind, self.provider.sym_decrypt(old, message["sealed"]), mode)
            except UNOPENABLE:
                ctx.note("verdict", "rekey_undecryptable", "auth", about=self.name)
                return
            if not self._key_fits(opened["group_key"]):
                ctx.note("verdict", "rekey_undecryptable", "bad_key", about=self.name)
                return
            self._store_keyset(opened)
        elif mode == "public":
            try:
                plain = self.provider.pk_decrypt(self.keypair.private, message["sealed"])
                opened = open_sealed(message.kind, plain, mode)
            except UNOPENABLE:
                ctx.note("verdict", "rekey_undecryptable", "not_addressee", about=self.name)
                return
            member_key = opened["member_key"]
            if not self._key_fits(opened["group_key"]) or (member_key and not self._key_fits(member_key)):
                ctx.note("verdict", "rekey_undecryptable", "bad_key", about=self.name)
                return
            self.leader = opened["leader"]
            self.leader_public = opened["leader_public"]
            self.group_id = message["group"]
            self._store_keyset(opened)
            if member_key:
                self.member_key = member_key
                self.member_id = opened["member_id"]

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


class SessionPhase(str, Enum):
    INITIATED = "initiated"
    RESPONDED = "responded"
    KEYED = "keyed"
    CONFIRMED = "confirmed"
    ABORTED = "aborted"


@dataclass
class SessionState:
    initiator: str
    responder: str
    t_a: int = 0
    t_b: int = 0
    nonce1: int = 0
    key: Optional[bytes] = None
    phase: SessionPhase = SessionPhase.INITIATED


def _session1_payload(initiator: str, responder: str, t_a: int) -> bytes:
    return encoding.encode("session1", initiator, responder, t_a)


def _session2_payload(initiator: str, responder: str, t_a: int, t_b: int) -> bytes:
    return encoding.encode("session2", initiator, responder, t_a, t_b)


class SessionService:
    """Four-message pairwise key agreement, run by any group member."""

    def __init__(self, name: str, keypair, provider, freshness_window: int = 50):
        self.name = name
        self.keypair = keypair
        self.provider = provider
        self.window = freshness_window
        self.sessions: dict[tuple[str, str], SessionState] = {}
        self.directory: dict[str, bytes] = {}  # peer name -> public key
        self.distrusted: set = set()
        self.pending_initiate: dict[str, None] = {}
        self.pending_respond: dict[str, tuple] = {}

    def _abort(self, session: SessionState, reason: str, ctx: Ctx) -> None:
        session.phase = SessionPhase.ABORTED
        ctx.note("verdict", "session_aborted", reason, about=f"{session.initiator}-{session.responder}")

    def initiate(self, peer: str, leader: str, ctx: Ctx) -> None:
        if peer in self.distrusted:
            ctx.note("verdict", "session_refused", "distrusted", about=f"{self.name}-{peer}")
            return
        self.sessions[(self.name, peer)] = SessionState(initiator=self.name, responder=peer)
        if peer not in self.directory:
            self.pending_initiate[peer] = None
            ctx.emit(msg(MessageKind.PUBKEY_QUERY, subject=peer), to=leader)
            return
        self._send_session1(peer, ctx)

    def _send_session1(self, peer: str, ctx: Ctx) -> None:
        session = self.sessions[(self.name, peer)]
        session.t_a = ctx.now
        sig = self.provider.sign(self.keypair.private, _session1_payload(self.name, peer, session.t_a))
        plain = seal_plain(MessageKind.SESSION_1, initiator=self.name, responder=peer, t_a=session.t_a, sig=sig)
        sealed = self.provider.pk_encrypt(self.directory[peer], plain, ctx.rng)
        ctx.emit(msg(MessageKind.SESSION_1, sealed=sealed), to=peer)

    def open_addressed(self, message: Message) -> Optional[dict]:
        """The fields of a message sealed to this node's public key, or None."""
        try:
            return open_sealed(message.kind, self.provider.pk_decrypt(self.keypair.private, message["sealed"]))
        except UNOPENABLE:
            return None

    def handle_session1(self, message: Message, leader: str, ctx: Ctx) -> None:
        opened = self.open_addressed(message)
        if opened is None:
            ctx.note("verdict", "session_drop", "not_addressee", about=self.name)
            return
        self.answer_session1(opened, leader, ctx)

    def answer_session1(self, opened: dict, leader: str, ctx: Ctx) -> None:
        """Act on an opened SESSION_1: check it, then sign a reply or ask
        `leader` for the initiator's public key."""
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
        session.phase = SessionPhase.RESPONDED
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
        if session is None or session.phase != SessionPhase.INITIATED:
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
        ctx.secret(f"session_key:{responder}", session.key)
        session.nonce1 = ctx.rng.getrandbits(64)
        plain = seal_plain(MessageKind.SESSION_3, t_a=t_a, t_b=t_b, nonce=session.nonce1, session_key=session.key)
        sealed = self.provider.pk_encrypt(self.directory[responder], plain, ctx.rng)
        session.phase = SessionPhase.KEYED
        ctx.emit(msg(MessageKind.SESSION_3, sealed=sealed), to=responder)

    def handle_session3(self, message: Message, ctx: Ctx) -> None:
        opened = self.open_addressed(message)
        if opened is None:
            return
        t_a = opened["t_a"]
        session = None
        for candidate in self.sessions.values():
            if (
                candidate.responder == self.name
                and candidate.phase == SessionPhase.RESPONDED
                and candidate.t_a == t_a
            ):
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
        session.phase = SessionPhase.CONFIRMED
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
        if session is None or session.phase != SessionPhase.KEYED:
            return
        try:
            opened = open_sealed(message.kind, self.provider.sym_decrypt(session.key, message["sealed"]))
        except UNOPENABLE:
            self._abort(session, "bad_confirmation_seal", ctx)
            return
        if opened["nonce"] != session.nonce1:
            self._abort(session, "nonce_mismatch", ctx)
            return
        session.phase = SessionPhase.CONFIRMED
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

    def handle_alert(self, message: Message, leader_public: Optional[bytes], ctx: Ctx) -> None:
        accused = message["accused"]
        if leader_public is not None and not self.provider.verify(
            leader_public, encoding.encode("alert", accused, message["reason"]), message["leader_sig"]
        ):
            return
        self.distrusted.add(accused)
        self.pending_initiate.pop(accused, None)
        self.pending_respond.pop(accused, None)
        for key, session in list(self.sessions.items()):
            if accused in key and session.phase not in (SessionPhase.CONFIRMED, SessionPhase.ABORTED):
                self._abort(session, "leader_alert", ctx)


# ---------------------------------------------------------------------------
# Leader-ring key agreement
# ---------------------------------------------------------------------------


def leader_ring_agree(
    leaders: list[tuple[str, int]],
    provider,
    generator: int = RING_GENERATOR,
    modulus: int = RING_MODULUS,
) -> bytes:
    """Ring key agreement over an ordered leader list.

    Runs the serialized ring exchange in n-1 passes: on each pass every
    leader raises the value received from its predecessor to its own secret
    and forwards it.  After the last pass each leader holds the generator
    raised to everyone else's secrets and one final own-secret step gives
    all of them the same value; that value never travels, only intermediate
    powers do.  Returns the derived symmetric key.
    """
    if not leaders:
        raise ValueError("ring needs at least one leader")
    secrets = [secret for _, secret in leaders]
    n = len(secrets)
    if n == 1:
        shared = dh_contribute(generator, modulus, secrets[0], generator)
    else:
        holding = [generator] * n
        for _ in range(n - 1):
            outgoing = [
                dh_contribute(generator, modulus, s, h) for h, s in zip(holding, secrets)
            ]
            holding = [outgoing[(i - 1) % n] for i in range(n)]
        finals = [dh_contribute(generator, modulus, s, h) for h, s in zip(holding, secrets)]
        if len(set(finals)) != 1:
            raise ArithmeticError("ring exchange diverged")
        shared = finals[0]
    digest = provider.hash(encoding.encode("ring-key", shared))
    return digest[: provider.sym_key_size]
