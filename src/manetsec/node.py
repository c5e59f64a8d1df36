"""Per-node protocol driver: one object per simulated principal.

A :class:`ProtocolNode` owns the three protocol services (member keyring and
join handshake, pairwise sessions, router) plus, while it leads a group, a
:class:`~manetsec.keymgmt.LeaderKeyService`.  ``handle`` dispatches one
delivered message; ``on_tick`` emits heartbeats, expires silent members,
detects a silent leader and times out pending gateway work.  Cross-group
discovery composes three verified legs: requester to its leader, leader to
leader over the ring channel, and remote leader to the destination.

:class:`AdversaryNode` implements the injectable misbehaviours for nodes
placed as adversaries: stealth relaying, field mutation, replay, and the
impostor flows (fake leader answering joins, forged certificates, rogue
session attempts).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from . import encoding
from .crypto import DecryptionError
from .keymgmt import (
    Certificate,
    JoinConfig,
    LeaderKeyService,
    MemberKeyService,
    SessionService,
)
from .messages import BROADCAST, FIELD_TYPES, UNOPENABLE, Envelope, Message, MessageKind, msg, open_sealed, seal_plain
from .messages import encode_message  # noqa: F401 -- kept: perfbench/tracing.py wraps this binding
from .routing import Discovery, Router
from .runtime import Ctx

if TYPE_CHECKING:
    from .sim import SimParams


class ProtocolNode:
    def __init__(
        self,
        name: str,
        keypair,
        certificate: Certificate,
        provider,
        rng: random.Random,
        params: SimParams,
        authority_public: bytes,
    ):
        self.name = name
        self.keypair = keypair
        self.certificate = certificate
        self.provider = provider
        self.rng = rng
        self.params = params
        self.authority_public = authority_public
        join_cfg = JoinConfig(
            challenge_bits=params.challenge_bits, challenge_rounds=params.challenge_rounds
        )
        self.member = MemberKeyService(name, keypair, certificate, provider, join_cfg)
        self.sessions = SessionService(name, keypair, provider, params.freshness_window)
        self.router = Router(name, keypair, provider, strict_chain=params.strict_chain)
        self.leader_service: Optional[LeaderKeyService] = None
        self.ring_key: Optional[bytes] = None
        self.ring_secret: int = 0
        self.known_leaders: dict[str, bytes] = {}
        self.leader_groups: dict[str, str] = {}
        self.alive = True
        self.leader_last_seen: Optional[int] = None
        self.signals: list = []
        # Cross-group discovery bookkeeping.
        self.relayed: set = set()  # wire bytes of group broadcasts already re-flooded
        self.pending_composed: dict[str, int] = {}  # final dest -> composed seq
        self.gateway_jobs: dict = {}  # (requester, dest, seq) -> {answered, negs, peers}
        self.remote_jobs: dict = {}  # dest -> list of [requester, seq, origin_leader, deadline]

    # ------------------------------------------------------------------ identity

    def is_leader(self) -> bool:
        return self.leader_service is not None

    def group_id(self) -> Optional[str]:
        if self.leader_service is not None:
            return self.leader_service.group_id
        return self.member.group_id if self.member.is_member() else None

    def current_leader_name(self) -> Optional[str]:
        if self.leader_service is not None:
            return self.name
        return self.member.leader

    def group_key_state(self):
        """(key, lineage, epoch) of the current group key, or None."""
        if self.leader_service is not None:
            h = self.leader_service.hierarchy
            return h.group_key, h.lineage, h.epoch
        if self.member.is_member():
            return self.member.group_key, self.member.lineage, self.member.epoch
        return None

    def lookup_group_key(self, lineage: str, epoch: int) -> Optional[bytes]:
        if self.leader_service is not None:
            key = self.leader_service.hierarchy.key_history.get((lineage, epoch))
            if key is not None:
                return key
        return self.member.keyring.get((lineage, epoch))

    def group_members(self) -> set:
        if self.leader_service is not None:
            return set(self.leader_service.hierarchy.members())
        return set(self.member.member_view)

    def routing_directory(self) -> dict:
        if self.leader_service is not None:
            directory = dict(self.leader_service.hierarchy.member_publics)
            directory[self.name] = self.keypair.public
            return directory
        return dict(self.member.member_view)

    # ------------------------------------------------------------------ dispatch

    # Group control broadcasts are cooperatively re-flooded (once per node)
    # so multi-hop groups hear them; re-flooded copies must not re-enter the
    # state machines, so each node handles a given broadcast once.  Discovery
    # traffic has its own per-hop forwarding and dedup rules and is exempt.
    _NO_RELAY = (MessageKind.RREQ, MessageKind.RREP)

    def handle(self, envelope: Envelope, ctx: Ctx) -> None:
        message = envelope.message
        kind = message.kind
        if (
            envelope.channel == "radio"
            and envelope.to == BROADCAST
            and kind not in self._NO_RELAY
        ):
            if message.encoded in self.relayed:
                return
            self.relayed.add(message.encoded)
            ctx.emit(message)
        if kind in (MessageKind.JOIN_REQ, MessageKind.ZK_CHALLENGE, MessageKind.CERT, MessageKind.NONCE):
            if self.leader_service is not None:
                self.leader_service.handle_join(message, ctx)
        elif kind in (MessageKind.ZK_PARAMS, MessageKind.ZK_RESPONSE, MessageKind.ADMIT, MessageKind.MEMBER_SET):
            self.member.handle_join(message, ctx)
        elif kind == MessageKind.REKEY:
            self.member.handle_rekey(message, ctx)
            if message["mode"] == "public" and self.member.leader == envelope.sender:
                self.leader_last_seen = ctx.now
        elif kind == MessageKind.HEARTBEAT:
            self._handle_heartbeat(message, ctx)
        elif kind == MessageKind.LEAVE:
            self._handle_leave(message, ctx)
        elif kind == MessageKind.PUBKEY_QUERY:
            if self.leader_service is not None:
                self.leader_service.handle_pubkey_query(message, envelope.sender, ctx)
        elif kind == MessageKind.PUBKEY_ANSWER:
            if self.member.leader_public is not None:
                self.sessions.handle_pubkey_answer(message, self.member.leader_public, ctx)
        elif kind == MessageKind.MALICIOUS_ALERT:
            verifier = (
                self.known_leaders.get(envelope.sender)
                if envelope.channel == "ring"
                else self.member.leader_public
            )
            self.sessions.handle_alert(message, verifier, ctx)
        elif kind == MessageKind.SESSION_1:
            self._handle_session1(message, ctx)
        elif kind == MessageKind.SESSION_2:
            self.sessions.handle_session2(message, ctx)
        elif kind == MessageKind.SESSION_3:
            self.sessions.handle_session3(message, ctx)
        elif kind == MessageKind.SESSION_4:
            self.sessions.handle_session4(message, ctx)
        elif kind == MessageKind.RREQ:
            if self.group_id() is not None:
                self.router.handle_rreq(message, self.routing_directory(), self.group_members(), ctx)
        elif kind == MessageKind.RREP:
            done = self.router.handle_rrep(message, self.routing_directory(), ctx)
            if done is not None:
                self._discovery_completed(done, ctx)
        elif kind == MessageKind.DATA:
            self._handle_data(message, envelope, ctx)
        elif kind in (MessageKind.GROUP_REQ, MessageKind.GROUP_REP, MessageKind.GROUP_NEG):
            if self.leader_service is not None and self.ring_key is not None:
                self._handle_ring(message, kind, ctx)
        elif kind == MessageKind.LEADER_ANNOUNCE:
            self._handle_leader_announce(message, ctx)

    def _handle_leader_announce(self, message: Message, ctx: Ctx) -> None:
        leader, group = message["leader"], message["group"]
        if leader == self.name:
            return
        is_new = leader not in self.known_leaders
        # One leader per group: an announcement replaces that group's entry.
        for other, g in list(self.leader_groups.items()):
            if g == group and other != leader:
                self.known_leaders.pop(other, None)
                del self.leader_groups[other]
        self.known_leaders[leader] = message["leader_public"]
        self.leader_groups[leader] = group
        if is_new and self.leader_service is not None:
            self.announce(ctx, to=leader)

    def _handle_heartbeat(self, message: Message, ctx: Ctx) -> None:
        if self.leader_service is not None and message["role"] == "member":
            self.leader_service.record_heartbeat(message["who"], ctx.now)
        elif message["role"] == "leader" and message["who"] == self.member.leader:
            self.leader_last_seen = ctx.now

    def _handle_leave(self, message: Message, ctx: Ctx) -> None:
        who = message["who"]
        if self.leader_service is not None:
            self.leader_service.remove_member(who, "announced_leave", ctx)
        elif who == self.member.leader and self.member.is_member():
            group = self.member.group_id
            self.leader_last_seen = None
            self.signals.append(("election", group, who))

    def _handle_session1(self, message: Message, ctx: Ctx) -> None:
        if self.leader_service is None:
            self.sessions.handle_session1(message, self.current_leader_name() or "", ctx)
            return
        # The leader is its own lookup authority: pre-seed the directory
        # and alert the group directly for non-member initiators.  A
        # SESSION_1 the leader cannot open is dropped silently.
        self.sessions.directory.update(self.leader_service.hierarchy.member_publics)
        opened = self.sessions.open_addressed(message)
        if opened is None:
            return
        initiator = opened["initiator"]
        if initiator not in self.leader_service.hierarchy.member_publics:
            ctx.emit(self.leader_service._alert(initiator, "not_a_member"))
            ctx.note("alert", "not_a_member", about=initiator)
            return
        self.sessions.answer_session1(opened, self.name, ctx)

    # ------------------------------------------------------------------ actions

    def announce(self, ctx: Ctx, to: str = BROADCAST) -> None:
        """Tell the other leaders, over the ring, that this node leads its group."""
        ctx.emit(
            msg(
                MessageKind.LEADER_ANNOUNCE,
                leader=self.name,
                group=self.group_id() or "",
                leader_public=self.keypair.public,
            ),
            to=to,
            channel="ring",
        )

    def begin_join(self, leader: str, ctx: Ctx) -> None:
        self.member.begin_join(leader, ctx)

    def announce_leave(self, ctx: Ctx) -> None:
        ctx.emit(msg(MessageKind.LEAVE, who=self.name))
        self.member.forget_membership()

    def start_session(self, peer: str, ctx: Ctx) -> None:
        if self.leader_service is not None:
            self.sessions.directory.update(self.leader_service.hierarchy.member_publics)
        self.sessions.initiate(peer, self.current_leader_name() or "", ctx)

    def start_route_discovery(self, dest: str, ctx: Ctx) -> None:
        if dest == self.name:
            return
        members = self.group_members()
        if dest in members:
            self.router.start_discovery(dest, self.params.rreq_lifetime, ctx)
            return
        if self.leader_service is not None:
            self.router.next_seq += 1
            seq = self.router.next_seq
            self.pending_composed[dest] = seq
            self._gateway_request(self.name, dest, seq, ctx)
            return
        leader = self.current_leader_name()
        if leader is None:
            ctx.note("verdict", "no_route", ("dest", dest), "not_in_group", about=self.name)
            return
        if self.router.route_to(leader) is not None:
            self._request_composed(dest, leader, ctx)
        else:
            self.router.start_discovery(
                leader, self.params.rreq_lifetime, ctx, purpose="gateway_leg1", final_dest=dest
            )

    def _request_composed(self, dest: str, leader: str, ctx: Ctx) -> None:
        self.router.next_seq += 1
        seq = self.router.next_seq
        self.pending_composed[dest] = seq
        plain = seal_plain(MessageKind.DATA, tag="route_wanted", requester=self.name, dest=dest, seq=seq)
        self._send_routed(plain, leader, ctx)

    def send_data(self, dest: str, text: str, ctx: Ctx) -> None:
        plain = seal_plain(MessageKind.DATA, tag="chat", source=self.name, text=text)
        if dest == BROADCAST:
            if not self._emit_data(plain, [], 0, BROADCAST, ctx):
                ctx.note("verdict", "send_failed", "no_group", about=self.name)
            return
        self._send_routed(plain, dest, ctx)

    def _send_routed(self, plain: bytes, dest: str, ctx: Ctx) -> None:
        entry = self.router.route_to(dest)
        if entry is None:
            ctx.note("verdict", "send_failed", "no_route", ("dest", dest), about=self.name)
            return
        to = entry.route[1] if len(entry.route) > 1 else dest
        if not self._emit_data(plain, entry.route, 1, to, ctx):
            ctx.note("verdict", "send_failed", "no_group", about=self.name)

    def _emit_data(self, plain: bytes, route: list, hop: int, to: str, ctx: Ctx) -> bool:
        """Seal `plain` under the current group key and emit it as DATA;
        False when this node holds no group key."""
        state = self.group_key_state()
        if state is None:
            return False
        key, lineage, epoch = state
        ctx.emit(
            msg(
                MessageKind.DATA,
                group=self.group_id() or "",
                lineage=lineage,
                epoch=epoch,
                route=route,
                hop=hop,
                sealed=self.provider.sym_encrypt(key, plain, ctx.rng),
            ),
            to=to,
        )
        return True

    # ------------------------------------------------------------------ data plane

    def _handle_data(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        route, hop = message["route"], message["hop"]
        if not route:
            key = self.lookup_group_key(message["lineage"], message["epoch"])
            if key is None:
                return
            try:
                self.provider.sym_decrypt(key, message["sealed"])
            except DecryptionError:
                pass
            return
        if hop >= len(route) or route[hop] != self.name:
            return
        if envelope.channel == "ring":
            key = self.ring_key
        else:
            key = self.lookup_group_key(message["lineage"], message["epoch"])
        if key is None:
            ctx.note("drop", "data_undecryptable", "no_key", about=self.name)
            return
        try:
            plain = self.provider.sym_decrypt(key, message["sealed"])
            inner = open_sealed(message.kind, plain) if hop == len(route) - 1 else None
        except UNOPENABLE:
            ctx.note("drop", "data_undecryptable", "auth", about=self.name)
            return
        if inner is not None:
            self._consume_data(inner, ctx)
            return
        nxt = route[hop + 1]
        if nxt in self.known_leaders and nxt not in self.group_members() and self.leader_service is not None:
            if self.ring_key is None:
                return
            sealed = self.provider.sym_encrypt(self.ring_key, plain, ctx.rng)
            ctx.emit(
                msg(
                    MessageKind.DATA,
                    group="ring",
                    lineage="ring",
                    epoch=0,
                    route=route,
                    hop=hop + 1,
                    sealed=sealed,
                ),
                to=nxt,
                channel="ring",
            )
            return
        if not self._emit_data(plain, route, hop + 1, nxt, ctx):
            ctx.note("drop", "data_undeliverable", "no_group", about=self.name)

    def _consume_data(self, inner: dict, ctx: Ctx) -> None:
        tag = inner["tag"]
        if tag == "chat":
            ctx.note("verdict", "data_delivered", ("from", inner["source"]), about=self.name)
        elif tag == "route_wanted":
            if self.leader_service is not None:
                self._gateway_request(inner["requester"], inner["dest"], inner["seq"], ctx)
        elif tag == "route_composed":
            dest, seq = inner["dest"], inner["seq"]
            if self.pending_composed.get(dest) == seq:
                del self.pending_composed[dest]
                self.router.install(dest, inner["route"], seq, ctx.now)
                ctx.note("verdict", "route_installed", ("dest", dest), ("seq", seq), "composed", about=self.name)
        elif tag == "route_failed":
            dest, seq = inner["dest"], inner["seq"]
            if self.pending_composed.get(dest) == seq:
                del self.pending_composed[dest]
            ctx.note("verdict", "no_route", ("dest", dest), ("seq", seq), about=self.name)

    # ------------------------------------------------------------------ gateway

    def _ring_seal(self, kind: MessageKind, ctx: Ctx, **fields) -> bytes:
        return self.provider.sym_encrypt(self.ring_key, seal_plain(kind, **fields), ctx.rng)

    def _gateway_request(self, requester: str, dest: str, seq: int, ctx: Ctx) -> None:
        if self.leader_service is None or self.ring_key is None:
            return
        peers = sorted(set(self.known_leaders) - {self.name})
        if not peers:
            self._gateway_fail(requester, dest, seq, ctx)
            return
        self.gateway_jobs[(requester, dest, seq)] = {"answered": False, "negs": 0, "peers": len(peers)}
        sealed = self._ring_seal(
            MessageKind.GROUP_REQ, ctx, tag="route_query", requester=requester, dest=dest, seq=seq,
            origin=self.name,
        )
        ctx.emit(msg(MessageKind.GROUP_REQ, from_leader=self.name, sealed=sealed), channel="ring")

    def _gateway_fail(self, requester: str, dest: str, seq: int, ctx: Ctx) -> None:
        if requester == self.name:
            self.pending_composed.pop(dest, None)
            ctx.note("verdict", "no_route", ("dest", dest), ("seq", seq), about=self.name)
        else:
            self._send_routed(seal_plain(MessageKind.DATA, tag="route_failed", dest=dest, seq=seq), requester, ctx)

    def _handle_ring(self, message: Message, kind: MessageKind, ctx: Ctx) -> None:
        try:
            inner = open_sealed(kind, self.provider.sym_decrypt(self.ring_key, message["sealed"]))
        except UNOPENABLE:
            ctx.note("drop", "ring_undecryptable", about=self.name)
            return
        requester, dest, seq = inner["requester"], inner["dest"], inner["seq"]
        if kind == MessageKind.GROUP_REQ:
            origin = inner["origin"]
            if dest in self.leader_service.hierarchy.members() or dest == self.name:
                entry = self.router.route_to(dest)
                if dest == self.name:
                    self._answer_group_req(requester, dest, seq, origin, [self.name], ctx)
                elif entry is not None:
                    self._answer_group_req(requester, dest, seq, origin, entry.route, ctx)
                else:
                    jobs = self.remote_jobs.setdefault(dest, [])
                    jobs.append([requester, seq, origin, ctx.now + self.params.discovery_timeout])
                    if len(jobs) == 1:
                        self.router.start_discovery(dest, self.params.rreq_lifetime, ctx, purpose="gateway_leg3")
            else:
                self._send_route_missing(requester, dest, seq, origin, ctx)
        elif kind == MessageKind.GROUP_REP:
            job = self.gateway_jobs.get((requester, dest, seq))
            if job is None or job["answered"]:
                return
            job["answered"] = True
            remote_route = inner["route"]
            if requester == self.name:
                self.pending_composed.pop(dest, None)
                self.router.install(dest, [self.name] + remote_route, seq, ctx.now)
                ctx.note("verdict", "route_installed", ("dest", dest), ("seq", seq), "composed", about=self.name)
                return
            entry = self.router.route_to(requester)
            if entry is None:
                self._gateway_fail(requester, dest, seq, ctx)
                return
            composed = list(reversed(entry.route)) + remote_route
            plain = seal_plain(MessageKind.DATA, tag="route_composed", dest=dest, seq=seq, route=composed)
            self._send_routed(plain, requester, ctx)
        elif kind == MessageKind.GROUP_NEG:
            job = self.gateway_jobs.get((requester, dest, seq))
            if job is None or job["answered"]:
                return
            job["negs"] += 1
            if job["negs"] >= job["peers"]:
                job["answered"] = True
                self._gateway_fail(requester, dest, seq, ctx)

    def _answer_group_req(self, requester, dest, seq, origin, route, ctx: Ctx) -> None:
        sealed = self._ring_seal(
            MessageKind.GROUP_REP, ctx, tag="route_found", requester=requester, dest=dest, seq=seq,
            leader=self.name, route=list(route),
        )
        ctx.emit(msg(MessageKind.GROUP_REP, from_leader=self.name, sealed=sealed), to=origin, channel="ring")

    def _send_route_missing(self, requester, dest, seq, origin, ctx: Ctx) -> None:
        sealed = self._ring_seal(
            MessageKind.GROUP_NEG, ctx, tag="route_missing", requester=requester, dest=dest, seq=seq,
            leader=self.name,
        )
        ctx.emit(msg(MessageKind.GROUP_NEG, from_leader=self.name, sealed=sealed), to=origin, channel="ring")

    def _discovery_completed(self, discovery: Discovery, ctx: Ctx) -> None:
        if discovery.purpose == "gateway_leg1":
            self._request_composed(discovery.final_dest, discovery.dest, ctx)
        elif discovery.purpose == "gateway_leg3":
            entry = self.router.route_to(discovery.dest)
            for requester, seq, origin, _deadline in self.remote_jobs.pop(discovery.dest, []):
                self._answer_group_req(requester, discovery.dest, seq, origin, entry.route, ctx)

    # ------------------------------------------------------------------ clock

    def on_tick(self, ctx: Ctx) -> list:
        self.signals = []
        if not self.alive:
            return self.signals
        period = self.params.heartbeat_period
        if self.leader_service is not None:
            if ctx.now > 0 and ctx.now % period == 0:
                ctx.emit(
                    msg(
                        MessageKind.HEARTBEAT,
                        who=self.name,
                        role="leader",
                        group=self.group_id() or "",
                        beat=ctx.now,
                    )
                )
            expired = self.leader_service.check_liveness(ctx.now, self.params.liveness_deadline)
            if expired:
                self.leader_service.remove_members(expired, "silent_timeout", ctx)
            self._expire_remote_jobs(ctx)
        elif self.member.is_member():
            if ctx.now > 0 and ctx.now % period == 0 and self.member.leader:
                ctx.emit(
                    msg(
                        MessageKind.HEARTBEAT,
                        who=self.name,
                        role="member",
                        group=self.group_id() or "",
                        beat=ctx.now,
                    ),
                    to=self.member.leader,
                )
            if (
                self.leader_last_seen is not None
                and ctx.now - self.leader_last_seen > self.params.liveness_deadline
            ):
                self.leader_last_seen = None
                self.signals.append(("election", self.member.group_id, self.member.leader))
        return self.signals

    def _expire_remote_jobs(self, ctx: Ctx) -> None:
        for dest in sorted(self.remote_jobs):
            still = []
            for requester, seq, origin, deadline in self.remote_jobs[dest]:
                if ctx.now >= deadline and self.router.route_to(dest) is None:
                    self._send_route_missing(requester, dest, seq, origin, ctx)
                else:
                    still.append([requester, seq, origin, deadline])
            if still:
                self.remote_jobs[dest] = still
            else:
                del self.remote_jobs[dest]


# ---------------------------------------------------------------------------
# Adversarial node behaviours
# ---------------------------------------------------------------------------


@dataclass
class AdversaryState:
    recorded_params: Optional[Message] = None
    recorded_responses: Optional[Message] = None
    replay_buffer: list = field(default_factory=list)
    active_impostor_joins: set = field(default_factory=set)
    forged_join_leader: Optional[str] = None
    seen_broadcasts: set = field(default_factory=set)


class AdversaryNode:
    """A placed node following one scripted misbehaviour.

    It overhears whatever reaches its position (the engine logs those
    deliveries, which is how the auditor knows what it learned) but holds
    no certificate, so every active behaviour is caught by the protocol's
    checks; the stealth relay is caught by the chain reconstruction.
    """

    def __init__(self, name: str, keypair, provider, rng: random.Random, behavior: str, args: dict, publics: dict):
        self.name = name
        self.keypair = keypair
        self.provider = provider
        self.rng = rng
        self.behavior = behavior
        self.args = args
        self.publics = publics  # certificate directory: public material only
        self.alive = True
        self.state = AdversaryState()
        self.signals: list = []

    def is_leader(self) -> bool:
        return False

    def handle(self, envelope: Envelope, ctx: Ctx) -> None:
        message = envelope.message
        kind = message.kind
        if envelope.to == BROADCAST:
            if message.encoded in self.state.seen_broadcasts:
                return
            self.state.seen_broadcasts.add(message.encoded)
        if kind == MessageKind.ZK_PARAMS:
            self.state.recorded_params = message
        elif kind == MessageKind.ZK_RESPONSE:
            self.state.recorded_responses = message
        if self.state.forged_join_leader is not None and kind in (
            MessageKind.ZK_PARAMS,
            MessageKind.ZK_RESPONSE,
        ):
            if message["join_id"] == self.name:
                self.continue_forged_join(envelope, ctx)
                return
        if self.behavior == "impersonate":
            self._impostor_step(envelope, ctx)
            return
        if self.behavior == "replay":
            self.state.replay_buffer.append((ctx.now + self.args.get("delay", 5), envelope))
            return
        if envelope.to != BROADCAST:
            return
        if self.behavior == "mitm_relay":
            self._relay(message, ctx)
        elif self.behavior == "modify_field":
            if self.args["field"] in message.fields:
                mutated = mutate_message(
                    message, self.args["field"], self.args["op"], self.args.get("value"), ctx.rng
                )
                ctx.emit(mutated)

    def _relay(self, message: Message, ctx: Ctx) -> None:
        if message.kind == MessageKind.RREQ:
            if message["lifetime"] < 1:
                return
            ctx.emit(message.replace(lifetime=message["lifetime"] - 1))
        else:
            ctx.emit(message)

    def _impostor_step(self, envelope: Envelope, ctx: Ctx) -> None:
        """Pose as a group leader: answer join attempts with replayed or
        random identification values (no knowledge of the real secret)."""
        message = envelope.message
        if message.kind == MessageKind.JOIN_REQ and envelope.to == self.name:
            requester = message["requester"]
            self.state.active_impostor_joins.add(requester)
            strategy = self.args.get("strategy", "replay")
            recorded = self.state.recorded_params
            if strategy == "replay" and recorded is not None:
                ctx.emit(
                    msg(
                        MessageKind.ZK_PARAMS,
                        join_id=requester,
                        modulus=recorded["modulus"],
                        square=recorded["square"],
                        commitments=list(recorded["commitments"]),
                    )
                )
            else:
                modulus = self.args.get("modulus", (1 << 61) - 1)
                ctx.emit(
                    msg(
                        MessageKind.ZK_PARAMS,
                        join_id=requester,
                        modulus=modulus,
                        square=self.rng.randrange(2, modulus),
                        commitments=[self.rng.randrange(2, modulus)],
                    )
                )
        elif message.kind == MessageKind.ZK_CHALLENGE:
            join_id = message["join_id"]
            if join_id not in self.state.active_impostor_joins:
                return
            strategy = self.args.get("strategy", "replay")
            recorded = self.state.recorded_responses
            if strategy == "replay" and recorded is not None:
                responses = list(recorded["responses"])[: len(message["challenges"])]
            else:
                responses = [self.rng.getrandbits(64) + 2 for _ in message["challenges"]]
            ctx.emit(msg(MessageKind.ZK_RESPONSE, join_id=join_id, responses=responses))

    # Scripted active attacks ---------------------------------------------------

    def begin_forged_join(self, leader: str, ctx: Ctx) -> None:
        self.state.forged_join_leader = leader
        ctx.emit(msg(MessageKind.JOIN_REQ, requester=self.name), to=leader)

    def continue_forged_join(self, envelope: Envelope, ctx: Ctx) -> None:
        message = envelope.message
        if message.kind == MessageKind.ZK_PARAMS and message["join_id"] == self.name:
            ctx.emit(
                msg(
                    MessageKind.ZK_CHALLENGE,
                    join_id=self.name,
                    challenges=[self.rng.getrandbits(64) for _ in message["commitments"]],
                )
            )
        elif message.kind == MessageKind.ZK_RESPONSE and message["join_id"] == self.name:
            ctx.emit(
                msg(
                    MessageKind.CERT,
                    subject=self.name,
                    subject_public=self.keypair.public,
                    authority_sig=self.rng.randbytes(32),
                ),
                to=self.state.forged_join_leader,
            )

    def begin_rogue_session(self, peer: str, ctx: Ctx) -> None:
        """Initiate a session as a non-member; the leader lookup exposes us."""
        peer_public = self.publics.get(peer)
        if peer_public is None:
            return
        payload = encoding.encode("session1", self.name, peer, ctx.now)
        sig = self.provider.sign(self.keypair.private, payload)
        plain = seal_plain(MessageKind.SESSION_1, initiator=self.name, responder=peer, t_a=ctx.now, sig=sig)
        sealed = self.provider.pk_encrypt(peer_public, plain, ctx.rng)
        ctx.emit(msg(MessageKind.SESSION_1, sealed=sealed), to=peer)

    def on_tick(self, ctx: Ctx) -> list:
        due = [item for item in self.state.replay_buffer if item[0] <= ctx.now]
        self.state.replay_buffer = [item for item in self.state.replay_buffer if item[0] > ctx.now]
        for _, envelope in due:
            ctx.emit(envelope.message, to=envelope.to, channel=envelope.channel)
        return []


# The single-field mutations `mutate_message` knows, each with the wire
# types (`messages.FIELD_TYPES`) it applies to; those in VALUE_OPS take a
# value.
_LISTS = ("list[int]", "list[name]", "list[bytes]")
MUTATION_OPS = {
    "add": ("int",),
    "set": ("int", "str", "name"),
    "flip": ("bytes",),
    "flipbit": ("bytes",),
    "flip_item": ("list[bytes]",),
    "swap": _LISTS,
    "drop_last": _LISTS,
    "dup_last": _LISTS,
}
VALUE_OPS = ("add", "set")


def _flip_bit(data: bytes, rng: random.Random) -> bytes:
    if not data:
        return data
    bit = rng.randrange(len(data) * 8)
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def mutate_message(message: Message, fieldname: str, op: str, value, rng: random.Random) -> Message:
    """Apply one named single-field mutation; used by adversaries and fuzzing.
    A mutation with nothing to act on (an empty list or byte string) leaves
    the field as it is."""
    if op not in MUTATION_OPS:
        raise ValueError(f"unknown mutation op {op!r}")
    wire_type = FIELD_TYPES[fieldname]
    if wire_type not in MUTATION_OPS[op]:
        raise ValueError(f"mutation op {op!r} does not apply to {fieldname} ({wire_type})")
    current = message[fieldname]
    mutated = current
    if op == "add":
        mutated = max(0, current + int(value))
    elif op == "set":
        mutated = int(value) if wire_type == "int" else str(value)
    elif op == "flip":
        if current:
            mutated = current[:-1] + bytes([current[-1] ^ 0x01])
    elif op == "flipbit":
        mutated = _flip_bit(current, rng)
    elif op == "flip_item":
        if current:
            mutated = list(current)
            index = rng.randrange(len(mutated))
            mutated[index] = _flip_bit(mutated[index], rng)
    elif op == "swap":
        mutated = list(current)
        if len(mutated) >= 2:
            mutated[0], mutated[1] = mutated[1], mutated[0]
    elif op == "drop_last":
        mutated = list(current[:-1])
    elif op == "dup_last":
        if current:
            mutated = list(current) + [current[-1]]
    return message.replace(**{fieldname: mutated})
