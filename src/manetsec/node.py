"""Per-node protocol driver: one object per simulated principal.

A :class:`ProtocolNode` owns the three protocol services (member keyring and
join handshake, pairwise sessions, router) plus, while it leads a group, a
:class:`~manetsec.keymgmt.LeaderKeyService`.  It reads its group through
one view, ``keys``: its leader service while it leads, its member keyring
otherwise, which answer the same names, so only a leader's own duties
branch on its role.  ``handle`` dispatches one delivered message, through
one lookup of its kind in ``HANDLERS``; ``on_tick`` emits heartbeats
(each the node's last one with a new beat, while its role and group hold),
expires silent members, detects a silent leader and times out pending
gateway work.  The simulator steps a node only when it has work due:
after each step it asks ``next_due`` for the earliest later tick at which
``on_tick`` could act, and a handler that gives the node a role or an
earlier deadline lowers that wakeup through ``wake_by``.  Waking early is
safe, since each duty of ``on_tick`` keeps its own due test and an early
call does nothing; a node in no group is never stepped.  Cross-group
discovery composes three verified legs: requester to its leader, leader to
leader over the ring channel, and remote leader to the destination.  Each
DATA hop is sealed for its next hop, the first included: under the ring
key, over the ring, from a leader to another group's leader; under the
group key otherwise.  A group broadcast is logged as delivered, and its
receivers do not open it.  ``handle`` sees each group broadcast once and
re-floods it: the simulator records every group broadcast a node sends,
and logs each later copy as delivered without handing it over.

:class:`AdversaryNode` implements the injectable misbehaviours for nodes
placed as adversaries: stealth relaying, field mutation, replay, and a fake
leader answering joins.  An adversary joins, and opens sessions, as any node
does, with a certificate it signed itself and its own key.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from .keymgmt import Certificate, LeaderKeyService, MemberKeyService, SessionService
from .messages import BROADCAST, FIELD_TYPES, NAME_RE, UNOPENABLE, Envelope, Message, MessageKind, msg
from .messages import open_sealed, seal_plain
from .messages import encode_message  # noqa: F401 -- kept: perfbench/tracing.py wraps this binding
from .routing import Discovery, Router
from .runtime import Ctx

if TYPE_CHECKING:
    from .sim import SimParams


# Group control broadcasts are cooperatively re-flooded (once per node) so
# multi-hop groups hear them; re-flooded copies must not re-enter the state
# machines, so the simulator hands a protocol node each broadcast once (see
# its relay record, `Simulation.relayed`).  Discovery traffic has its own
# per-hop forwarding and dedup rules and is exempt.
_NO_RELAY = (MessageKind.RREQ, MessageKind.RREP)


def _unclocked(tick) -> None:
    """The `wake_by` of a node outside a simulation: nothing steps it."""


def refloods(envelope: Envelope) -> bool:
    """Whether `envelope` is a group broadcast, which every node passes on once."""
    return envelope.to == BROADCAST and envelope.channel == "radio" and envelope.message.kind not in _NO_RELAY


class ProtocolNode:
    def __init__(
        self,
        name: str,
        keypair,
        certificate: Certificate,
        provider,
        rng: random.Random,
        params: SimParams,
    ):
        self.name = name
        self.keypair = keypair
        self.provider = provider
        self.rng = rng
        self.params = params
        self.member = MemberKeyService(name, keypair, certificate, provider, params)
        self.sessions = SessionService(name, keypair, provider, params)
        self.router = Router(name, keypair, provider, params)
        self.leader_service: Optional[LeaderKeyService] = None
        self.ring_key: Optional[bytes] = None
        self.known_leaders: dict[str, tuple[str, bytes]] = {}  # leader -> (its group, its public key)
        self.leader_last_seen: Optional[int] = None
        self.last_heartbeat: Optional[Message] = None  # the last HEARTBEAT this node emitted
        # Cross-group discovery bookkeeping.
        self.pending_composed: dict[str, int] = {}  # final dest -> composed seq
        self.gateway_jobs: dict = {}  # (requester, dest, seq) -> peer leaders still awaited
        self.remote_jobs: dict = {}  # dest -> list of [requester, seq, origin_leader, deadline]
        # Set by the simulator: wake_by(tick) makes sure `on_tick` runs again
        # no later than `tick` (None: no sooner than already filed).
        self.wake_by = _unclocked

    # ------------------------------------------------------------------ group view

    @property
    def keys(self) -> LeaderKeyService | MemberKeyService:
        """This node's view of its group: its leader service while it leads,
        its member keyring otherwise.  Both answer `group_id`, `group_key`,
        `lineage`, `epoch`, `keyring`, `leader`, `leader_public` and
        `member_view` (every member's public key, the leader's included)."""
        return self.member if self.leader_service is None else self.leader_service

    def lookup_group_key(self, lineage: str, epoch: int) -> Optional[bytes]:
        return self.keys.keyring.get((lineage, epoch)) or self.member.keyring.get((lineage, epoch))

    def _seed_session_directory(self) -> None:
        """A leader is its own lookup authority: its session directory holds
        every other member's key, never its own, so a session it opens with
        itself still starts with a key query."""
        self.sessions.directory.update(
            (name, public) for name, public in self.leader_service.member_view.items() if name != self.name
        )

    # ------------------------------------------------------------------ dispatch

    def handle(self, envelope: Envelope, ctx: Ctx) -> None:
        """Pass a group broadcast on first, then hand the message to its
        kind's entry in `HANDLERS`; a kind with no entry does nothing."""
        message = envelope.message
        if refloods(envelope):  # the first copy: the simulator hands a node no other
            ctx.emit(message)
        handler = self.HANDLERS.get(message.kind)
        if handler is not None:
            handler(self, message, envelope, ctx)

    # Each handler takes (message, envelope, ctx), whatever it reads of them.

    def _handle_leader_join(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        if self.leader_service is not None:
            self.leader_service.handle_join(message, ctx)

    def _handle_member_join(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        self.member.handle_join(message, ctx)
        self._rearm(ctx)

    def _handle_rekey(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        self.member.handle_rekey(message, ctx)
        if message["mode"] == "public" and self.member.leader == envelope.sender:
            self.leader_last_seen = ctx.now
        self._rearm(ctx)

    def _handle_pubkey_query(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        if self.leader_service is not None:
            self.leader_service.handle_pubkey_query(message, envelope.sender, ctx)

    def _handle_pubkey_answer(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        if self.member.leader_public is not None:
            self.sessions.handle_pubkey_answer(message, self.member.leader_public, ctx)

    def _handle_alert(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        verifier = self._alert_verifier(envelope)
        if verifier is not None:
            self.sessions.handle_alert(message, verifier, ctx)

    def _handle_session2(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        self.sessions.handle_session2(message, ctx)

    def _handle_session3(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        self.sessions.handle_session3(message, ctx)

    def _handle_session4(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        self.sessions.handle_session4(message, ctx)

    def _handle_rreq(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        keys = self.keys
        if keys.group_id is not None:
            self.router.handle_rreq(message, keys.member_view, ctx)

    def _handle_rrep(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        done = self.router.handle_rrep(message, self.keys.member_view, ctx)
        if done is not None:
            self._discovery_completed(done, ctx)

    def _alert_verifier(self, envelope: Envelope) -> Optional[bytes]:
        """The key an alert must be signed under: on the ring, its sending
        leader's; by radio, this node's group leader's, its own when it leads.
        None when there is no such key."""
        if envelope.channel == "ring":
            return self.known_leaders.get(envelope.sender, (None, None))[1]
        return self.keys.leader_public

    def _handle_leader_announce(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        leader, group = message["leader"], message["group"]
        if leader == self.name:
            return
        is_new = leader not in self.known_leaders
        # One leader per group: an announcement replaces that group's entry.
        self.known_leaders = {
            other: entry for other, entry in self.known_leaders.items() if entry[0] != group or other == leader
        }
        self.known_leaders[leader] = (group, message["leader_public"])
        if is_new and self.leader_service is not None:
            self.announce(ctx, to=leader)

    def _handle_heartbeat(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        if self.leader_service is not None and message["role"] == "member":
            self.leader_service.record_heartbeat(message["who"], ctx.now)
        elif message["role"] == "leader" and message["who"] == self.member.leader:
            self.leader_last_seen = ctx.now

    def _handle_leave(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        who = message["who"]
        if self.leader_service is not None:
            self.leader_service.remove_members([who], "announced_leave", ctx)
        elif who == self.member.leader and self.member.is_member():
            self.leader_last_seen = None
            ctx.signals.append((self.member.group_id, who))

    def _handle_session1(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        if self.leader_service is None:
            self.sessions.handle_session1(message, self.member.leader, ctx)
            return
        # A leader alerts the group directly for non-member initiators.  A
        # SESSION_1 the leader cannot open is dropped silently.
        self._seed_session_directory()
        opened = self.sessions.open_addressed(message)
        if opened is None:
            return
        initiator = opened["initiator"]
        if initiator not in self.leader_service.member_view:
            self.leader_service.alert_not_member(initiator, ctx)
            return
        self.sessions.answer_session1(opened, self.name, ctx)

    # ------------------------------------------------------------------ actions

    def announce(self, ctx: Ctx, to: str = BROADCAST) -> None:
        """Tell the other leaders, over the ring, that this node leads its group."""
        ctx.emit(
            msg(
                MessageKind.LEADER_ANNOUNCE,
                leader=self.name,
                group=self.keys.group_id or "",
                leader_public=self.keypair.public,
            ),
            to=to,
            channel="ring",
        )

    def announce_leave(self, ctx: Ctx) -> None:
        ctx.emit(msg(MessageKind.LEAVE, who=self.name))
        self.member.forget_membership()

    def start_session(self, peer: str, ctx: Ctx) -> None:
        if self.leader_service is not None:
            self._seed_session_directory()
        self.sessions.initiate(peer, self.keys.leader, ctx)

    def start_route_discovery(self, dest: str, ctx: Ctx) -> None:
        if dest == self.name:
            return
        if dest in self.keys.member_view:
            self.router.start_discovery(dest, self.params.rreq_lifetime, ctx)
            return
        if self.leader_service is not None:
            self._gateway_request(self.name, dest, self._composed_seq(dest), ctx)
            return
        leader = self.member.leader
        if leader is None:
            ctx.note("verdict", "no_route", ("dest", dest), "not_in_group", about=self.name)
            return
        if self.router.route_to(leader) is not None:
            self._request_composed(dest, leader, ctx)
        else:
            self.router.start_discovery(
                leader, self.params.rreq_lifetime, ctx, purpose="gateway_leg1", final_dest=dest
            )

    def _composed_seq(self, dest: str) -> int:
        """Number a request for a composed route to `dest`, and await its answer."""
        self.router.next_seq += 1
        self.pending_composed[dest] = self.router.next_seq
        return self.router.next_seq

    def _request_composed(self, dest: str, leader: str, ctx: Ctx) -> None:
        seq = self._composed_seq(dest)
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
        if not self._emit_data(plain, entry.route, 1, entry.next_hop, ctx):
            ctx.note("verdict", "send_failed", "no_group", about=self.name)

    def _emit_data(self, plain: bytes, route: list, hop: int, to: str, ctx: Ctx) -> bool:
        """Seal `plain` for its next hop `to` and emit it as DATA: under the
        ring key, over the ring, when this node leads and `to` leads another
        group; under the group view's key otherwise.  False when this node
        holds no such key."""
        keys = self.keys
        if self.leader_service is not None and to in self.known_leaders and to not in keys.member_view:
            key, group, lineage, epoch, channel = self.ring_key, "ring", "ring", 0, "ring"
        else:
            key, group, lineage, epoch, channel = keys.group_key, keys.group_id or "", keys.lineage, keys.epoch, "radio"
        if key is None:
            return False
        sealed = self.provider.sym_encrypt(key, plain, ctx.rng)
        data = msg(MessageKind.DATA, group=group, lineage=lineage, epoch=epoch, route=route, hop=hop, sealed=sealed)
        ctx.emit(data, to=to, channel=channel)
        return True

    # ------------------------------------------------------------------ data plane

    def _handle_data(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        """Open a routed DATA addressed to this hop, then consume it at the
        route's end or pass it on.  A group broadcast (an empty route) is
        not opened."""
        route, hop = message["route"], message["hop"]
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
        elif not self._emit_data(plain, route, hop + 1, route[hop + 1], ctx):
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
                self.router.install(dest, inner["route"], seq)
                ctx.note("verdict", "route_installed", ("dest", dest), ("seq", seq), "composed", about=self.name)
        elif tag == "route_failed":
            dest, seq = inner["dest"], inner["seq"]
            if self.pending_composed.get(dest) == seq:
                del self.pending_composed[dest]
            ctx.note("verdict", "no_route", ("dest", dest), ("seq", seq), about=self.name)

    # ------------------------------------------------------------------ gateway

    def _ring_send(self, kind: MessageKind, ctx: Ctx, to: str, **fields) -> None:
        """Seal `fields` under the ring key and send them over the ring as
        this leader's `kind` message."""
        sealed = self.provider.sym_encrypt(self.ring_key, seal_plain(kind, **fields), ctx.rng)
        ctx.emit(msg(kind, from_leader=self.name, sealed=sealed), to=to, channel="ring")

    def _gateway_request(self, requester: str, dest: str, seq: int, ctx: Ctx) -> None:
        peers = sorted(set(self.known_leaders) - {self.name})
        if self.ring_key is None or not peers:
            self._gateway_fail(requester, dest, seq, ctx)
            return
        self.gateway_jobs[(requester, dest, seq)] = len(peers)
        self._ring_send(
            MessageKind.GROUP_REQ, ctx, BROADCAST, tag="route_query", requester=requester, dest=dest, seq=seq,
            origin=self.name,
        )

    def _gateway_fail(self, requester: str, dest: str, seq: int, ctx: Ctx) -> None:
        if requester == self.name:
            self.pending_composed.pop(dest, None)
            ctx.note("verdict", "no_route", ("dest", dest), ("seq", seq), about=self.name)
        else:
            self._send_routed(seal_plain(MessageKind.DATA, tag="route_failed", dest=dest, seq=seq), requester, ctx)

    def _handle_ring(self, message: Message, envelope: Envelope, ctx: Ctx) -> None:
        """Act on a ring message, while this node leads and holds the ring key."""
        if self.leader_service is None or self.ring_key is None:
            return
        kind = message.kind
        try:
            inner = open_sealed(kind, self.provider.sym_decrypt(self.ring_key, message["sealed"]))
        except UNOPENABLE:
            ctx.note("drop", "ring_undecryptable", about=self.name)
            return
        requester, dest, seq = inner["requester"], inner["dest"], inner["seq"]
        job = (requester, dest, seq)
        if kind == MessageKind.GROUP_REQ:
            origin = inner["origin"]
            if dest in self.leader_service.member_view:
                entry = self.router.route_to(dest)
                if dest == self.name:
                    self._answer_group_req(requester, dest, seq, origin, [self.name], ctx)
                elif entry is not None:
                    self._answer_group_req(requester, dest, seq, origin, entry.route, ctx)
                else:
                    jobs = self.remote_jobs.setdefault(dest, [])
                    jobs.append([requester, seq, origin, ctx.now + self.params.discovery_timeout])
                    self.wake_by(jobs[-1][3])
                    if len(jobs) == 1:
                        self.router.start_discovery(dest, self.params.rreq_lifetime, ctx, purpose="gateway_leg3")
            else:
                self._send_route_missing(requester, dest, seq, origin, ctx)
        elif kind == MessageKind.GROUP_REP:
            if self.gateway_jobs.pop(job, None) is None:
                return
            remote_route = inner["route"]
            if requester == self.name:
                self.pending_composed.pop(dest, None)
                self.router.install(dest, [self.name] + remote_route, seq)
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
            awaited = self.gateway_jobs.pop(job, None)
            if awaited is None:
                return
            if awaited > 1:
                self.gateway_jobs[job] = awaited - 1
            else:
                self._gateway_fail(requester, dest, seq, ctx)

    def _answer_group_req(self, requester, dest, seq, origin, route, ctx: Ctx) -> None:
        self._ring_send(
            MessageKind.GROUP_REP, ctx, origin, tag="route_found", requester=requester, dest=dest, seq=seq,
            leader=self.name, route=list(route),
        )

    def _send_route_missing(self, requester, dest, seq, origin, ctx: Ctx) -> None:
        self._ring_send(
            MessageKind.GROUP_NEG, ctx, origin, tag="route_missing", requester=requester, dest=dest, seq=seq,
            leader=self.name,
        )

    def _discovery_completed(self, discovery: Discovery, ctx: Ctx) -> None:
        if discovery.purpose == "gateway_leg1":
            self._request_composed(discovery.final_dest, discovery.dest, ctx)
        elif discovery.purpose == "gateway_leg3":
            entry = self.router.route_to(discovery.dest)
            for requester, seq, origin, _deadline in self.remote_jobs.pop(discovery.dest, []):
                self._answer_group_req(requester, discovery.dest, seq, origin, entry.route, ctx)

    # ------------------------------------------------------------------ clock

    def next_due(self, now: int) -> Optional[int]:
        """The earliest tick after `now` at which `on_tick` could act, or None
        while it could act at no tick.  A leader is due at its next beat, at
        its earliest member expiry and at its earliest remote-job deadline,
        where the job ends; a member at its next beat, when it has a leader,
        and at its leader's expiry.  A new member deadline or leader expiry
        needs no wakeup of its own: validation keeps the liveness deadline
        at least one heartbeat period, so it falls after the next beat, which
        a node with a leader always has filed, and that beat's step files
        it."""
        params = self.params
        period = params.heartbeat_period
        beat = (max(now, 0) // period + 1) * period  # beats fall on positive multiples of the period
        leader = self.leader_service
        if leader is not None:
            due = beat
            if leader.heartbeats:
                due = min(due, min(leader.heartbeats.values()) + params.liveness_deadline + 1)
            for jobs in self.remote_jobs.values():
                due = min(due, min(job[3] for job in jobs))
        elif self.member.is_member():
            due = beat if self.member.leader else None
            if self.leader_last_seen is not None:
                expiry = self.leader_last_seen + params.liveness_deadline + 1
                due = expiry if due is None else min(due, expiry)
            if due is None:
                return None
        else:
            return None
        return max(due, now + 1)

    def _rearm(self, ctx: Ctx) -> None:
        """After a handler that may have given this node a role or an earlier
        deadline: wake it by its next due tick, this one included, since a
        delivery comes before the tick's steps."""
        self.wake_by(self.next_due(ctx.now - 1))

    def on_tick(self, ctx: Ctx) -> None:
        """Do whatever is due at `ctx.now`; each duty tests that it is, so a
        call at a tick `next_due` skipped does nothing."""
        if ctx.now > 0 and ctx.now % self.params.heartbeat_period == 0:
            self._heartbeat(ctx)
        if self.leader_service is not None:
            expired = self.leader_service.check_liveness(ctx.now, self.params.liveness_deadline)
            if expired:
                self.leader_service.remove_members(expired, "silent_timeout", ctx)
            self._expire_remote_jobs(ctx)
        elif self.member.is_member():
            if (
                self.leader_last_seen is not None
                and ctx.now - self.leader_last_seen > self.params.liveness_deadline
            ):
                self.leader_last_seen = None
                ctx.signals.append((self.member.group_id, self.member.leader))

    def _heartbeat(self, ctx: Ctx) -> None:
        """A leader beats to its group, a member to its leader.  A beat in
        the role and group of this node's last one is that beat with a new
        `beat` (`Message.with_beat`, which checks and encodes that one int);
        a first beat, or one after a change of role or group, is built and
        checked whole."""
        if self.leader_service is not None:
            role, to = "leader", BROADCAST
        elif self.member.is_member() and self.member.leader:
            role, to = "member", self.member.leader
        else:
            return
        group = self.keys.group_id or ""
        last = self.last_heartbeat  # its `who` is this node's name, which never changes
        if last is not None and last.fields["role"] == role and last.fields["group"] == group:
            beat = last.with_beat(ctx.now)
        else:
            beat = msg(MessageKind.HEARTBEAT, who=self.name, role=role, group=group, beat=ctx.now)
        self.last_heartbeat = beat
        ctx.emit(beat, to=to)

    def _expire_remote_jobs(self, ctx: Ctx) -> None:
        """End each remote job at its deadline as `_handle_ring` answers a
        request on arrival: with the route this leader holds, else missing."""
        for dest in sorted(self.remote_jobs):
            entry = self.router.route_to(dest)
            still = []
            for job in self.remote_jobs[dest]:
                requester, seq, origin, deadline = job
                if ctx.now < deadline:
                    still.append(job)
                elif entry is not None:
                    self._answer_group_req(requester, dest, seq, origin, entry.route, ctx)
                else:
                    self._send_route_missing(requester, dest, seq, origin, ctx)
            if still:
                self.remote_jobs[dest] = still
            else:
                del self.remote_jobs[dest]

    # Message kind -> the handler `handle` calls, one lookup per delivery.
    HANDLERS = {
        **dict.fromkeys(LeaderKeyService.JOIN_HANDLERS, _handle_leader_join),
        **dict.fromkeys(MemberKeyService.JOIN_HANDLERS, _handle_member_join),
        MessageKind.REKEY: _handle_rekey,
        MessageKind.HEARTBEAT: _handle_heartbeat,
        MessageKind.LEAVE: _handle_leave,
        MessageKind.PUBKEY_QUERY: _handle_pubkey_query,
        MessageKind.PUBKEY_ANSWER: _handle_pubkey_answer,
        MessageKind.MALICIOUS_ALERT: _handle_alert,
        MessageKind.SESSION_1: _handle_session1,
        MessageKind.SESSION_2: _handle_session2,
        MessageKind.SESSION_3: _handle_session3,
        MessageKind.SESSION_4: _handle_session4,
        MessageKind.RREQ: _handle_rreq,
        MessageKind.RREP: _handle_rrep,
        MessageKind.DATA: _handle_data,
        **dict.fromkeys((MessageKind.GROUP_REQ, MessageKind.GROUP_REP, MessageKind.GROUP_NEG), _handle_ring),
        MessageKind.LEADER_ANNOUNCE: _handle_leader_announce,
    }


# ---------------------------------------------------------------------------
# Adversarial node behaviours
# ---------------------------------------------------------------------------

# Every adversary behavior, with the default of each argument it reads; a
# placed adversary runs with these under the arguments its scenario gives.
# `modify_field` also needs `field=` and `op=`, which have no default.
BEHAVIORS = {
    "mitm_relay": {},
    "modify_field": {"value": None},
    "replay": {"delay": 5},
    "impersonate": {"strategy": "replay"},
    "drop_all": {},
    "drop_probabilistic": {"p": 1.0},
}
# The modulus of the identification values a random impostor makes up.
_IMPOSTOR_MODULUS = (1 << 61) - 1
# The stealth relay forwards whatever it carries to stay invisible.  Every
# placed node relays addressed traffic on its path alike, passing on what
# `intercept` leaves of it; a dropper there goes unnoticed, since no node
# yet watches what its next hop passes on.
STEALTH_RELAY = "mitm_relay"
# The node adversaries that pass on broadcasts they hear: a stealth relay
# all of them, a mutator those it changed.  The others keep them, and draw
# nothing from their random stream for them.
_REBROADCASTS = (STEALTH_RELAY, "modify_field")


def intercept(kind: str, args: dict, message: Message, rng: random.Random) -> Optional[Message]:
    """What one interception by a `kind` adversary, with every argument in
    `args`, does to `message`: the message it passes on, or None when it eats
    it.  A stealth relay burns one hop of a request's budget but alters
    nothing else, a mutator rewrites one field of the messages that have it,
    and a replayer or impostor passes the message on as it is."""
    if kind == "drop_all":
        return None
    if kind == "drop_probabilistic":
        return None if rng.random() < args["p"] else message
    if kind == "mitm_relay" and message.kind == MessageKind.RREQ:
        lifetime = message["lifetime"]
        return message.replace(lifetime=lifetime - 1) if lifetime >= 1 else None
    if kind == "modify_field" and args["field"] in message.fields:
        return mutate_message(message, args["field"], args["op"], args["value"], rng)
    return message


class AdversaryNode:
    """A placed node following one scripted misbehaviour.

    It overhears whatever reaches its position (the engine logs those
    deliveries, which is how the auditor knows what it learned) but holds
    only a certificate it signed itself, so every active behaviour is caught
    by the protocol's checks; the stealth relay is caught by the chain
    reconstruction.  On a unicast's path it relays what `intercept` leaves
    of what it carries, so a dropper there eats the message, and no node
    detects that yet.
    """

    def __init__(self, name: str, keypair, provider, rng, params: SimParams, behavior: str, args: dict, publics: dict):
        self.name = name
        self.rng = rng
        self.behavior = behavior
        self.args = args  # every argument its behavior reads, defaults included
        signed = provider.sign(keypair.private, Certificate(name, keypair.public, b"").signed_payload())
        self.member = MemberKeyService(name, keypair, Certificate(name, keypair.public, signed), provider, params)
        self.sessions = SessionService(name, keypair, provider, params)
        self.sessions.directory = publics  # the certificate directory: public material only
        self.recorded_params: Optional[Message] = None  # the last ZK_PARAMS overheard
        self.recorded_responses: Optional[Message] = None  # the last ZK_RESPONSE overheard
        self.replay_buffer: list = []  # (due tick, envelope) to replay
        self.active_impostor_joins: set = set()  # joiners this impostor answers
        self.seen_broadcasts: set = set()  # wire bytes of broadcasts already handled
        self.wake_by = _unclocked  # set by the simulator, as for a ProtocolNode

    def handle(self, envelope: Envelope, ctx: Ctx) -> None:
        message = envelope.message
        kind = message.kind
        if envelope.to == BROADCAST:
            if message.encoded in self.seen_broadcasts:
                return
            self.seen_broadcasts.add(message.encoded)
        if kind == MessageKind.ZK_PARAMS:
            self.recorded_params = message
        elif kind == MessageKind.ZK_RESPONSE:
            self.recorded_responses = message
        if self.member.join is not None and kind in MemberKeyService.JOIN_HANDLERS and message["join_id"] == self.name:
            self.member.handle_join(message, ctx)
            return
        if self.behavior == "impersonate":
            self._impostor_step(envelope, ctx)
            return
        if self.behavior == "replay":
            self.replay_buffer.append((ctx.now + self.args["delay"], envelope))
            self.wake_by(self.replay_buffer[-1][0])
            return
        if envelope.to != BROADCAST or self.behavior not in _REBROADCASTS:
            return
        passed = intercept(self.behavior, self.args, message, ctx.rng)
        if passed is not None and (self.behavior == STEALTH_RELAY or passed is not message):
            ctx.emit(passed)

    def _impostor_step(self, envelope: Envelope, ctx: Ctx) -> None:
        """Pose as a group leader: answer join attempts with replayed or
        random identification values (no knowledge of the real secret)."""
        message = envelope.message
        if message.kind == MessageKind.JOIN_REQ and envelope.to == self.name:
            requester = message["requester"]
            self.active_impostor_joins.add(requester)
            recorded = self.recorded_params
            if self.args["strategy"] == "replay" and recorded is not None:
                ctx.emit(recorded.replace(join_id=requester))
            else:
                ctx.emit(
                    msg(
                        MessageKind.ZK_PARAMS,
                        join_id=requester,
                        modulus=_IMPOSTOR_MODULUS,
                        square=self.rng.randrange(2, _IMPOSTOR_MODULUS),
                        commitments=[self.rng.randrange(2, _IMPOSTOR_MODULUS)],
                    )
                )
        elif message.kind == MessageKind.ZK_CHALLENGE:
            join_id = message["join_id"]
            if join_id not in self.active_impostor_joins:
                return
            recorded = self.recorded_responses
            if self.args["strategy"] == "replay" and recorded is not None:
                responses = list(recorded["responses"])[: len(message["challenges"])]
            else:
                responses = [self.rng.getrandbits(64) + 2 for _ in message["challenges"]]
            ctx.emit(msg(MessageKind.ZK_RESPONSE, join_id=join_id, responses=responses))

    def start_session(self, peer: str, ctx: Ctx) -> None:
        """Open a session as a non-member, with `peer`'s key from the
        certificate directory; the leader lookup exposes it."""
        self.sessions.initiate(peer, None, ctx)

    def next_due(self, now: int) -> Optional[int]:
        """The earliest tick after `now` at which a replay falls due, or None
        with nothing to replay."""
        if not self.replay_buffer:
            return None
        return max(now + 1, min(due for due, _ in self.replay_buffer))

    def on_tick(self, ctx: Ctx) -> None:
        due = [item for item in self.replay_buffer if item[0] <= ctx.now]
        self.replay_buffer = [item for item in self.replay_buffer if item[0] > ctx.now]
        for _, envelope in due:
            ctx.emit(envelope.message, to=envelope.to, channel=envelope.channel)


# The single-field mutations `mutate_message` knows, each with the wire
# types (`messages.FIELD_TYPES`) it applies to; those that write a scalar,
# `add` and `set`, take a value.
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


def mutation_problems(fieldname: Optional[str], op: str, value) -> list:
    """What keeps mutation `op`, with `value`, from applying to the field
    `fieldname` (to any field, when None): at most one problem.  This is the
    rule `mutate_message` and scenario validation both keep."""
    if op not in MUTATION_OPS:
        return [f"unknown modify_field op {op!r}"]
    if op in ("add", "set") and value is None:
        return [f"modify_field op {op} needs value="]
    wire_type = FIELD_TYPES.get(fieldname)
    if fieldname is not None and wire_type not in MUTATION_OPS[op]:
        return [f"modify_field op {op} does not apply to {fieldname}, whose type is {wire_type}"]
    # An op that fits an int or name field is a value op, so `value` is set.
    if wire_type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
        return [f"modify_field value {value!r} for int field {fieldname} is not an integer"]
    if wire_type == "name" and not NAME_RE.fullmatch(str(value)):
        return [f"modify_field value {value!r} for name field {fieldname} is not a name"]
    return []


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
    the field as it is.  A mutation that breaks `mutation_problems`' rule
    raises ValueError."""
    problems = mutation_problems(fieldname, op, value)
    if problems:
        raise ValueError(problems[0])
    wire_type = FIELD_TYPES[fieldname]
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
