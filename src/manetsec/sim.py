"""Deterministic tick-based network simulator.

A :class:`Scenario` fully determines a run: the seed feeds a tree of named
random streams (one per node, adversary, and engine purpose), deliveries
inside a tick are processed in schedule order, and every iteration over
principals is sorted, so two runs of the same scenario produce byte-equal
event logs.

Radio model: a broadcast reaches every live node within the configured
radius of the transmitter, whatever group it belongs to (group scoping is
the protocol's job, and the discard of foreign-group requests has to be
observable).  An addressed message rides a transport underlay: it follows
the shortest live radio path to its addressee at one tick per hop, with
link adversaries intercepting on whichever hop they own -- the key
management design takes deliverability of addressed control traffic for
granted, so the simulator provides it rather than making every protocol
reimplement relaying.  Adversarially placed nodes within range of a
transmitter overhear addressed traffic.  Leaders additionally share an
out-of-band "ring" channel for leader-to-leader traffic.

Adversaries come in two shapes: a *node* adversary is a placed radio
participant (it hears and transmits like any node, following its scripted
misbehaviour), and a *link* adversary owns one directed pair of nodes and
intercepts whatever crosses it.  Everything an adversary receives is in
the log, which is how the auditor bounds what it could have learned.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, field
from typing import Optional

from .crypto import make_provider
from .group import NodeAttributes, WeightConfig, elect_leader, mobility
from .keymgmt import CertificateAuthority, LeaderKeyService, leader_ring_agree
from .messages import BROADCAST, Envelope, Message, MessageKind, msg
from .messages import encode_message  # noqa: F401 -- kept: perfbench/tracing.py wraps this binding
from .node import AdversaryNode, NodeParams, ProtocolNode, mutate_message
from .runtime import Ctx

LOG_HEADER = "#manetsec-log v1"
LOG_FOOTER = "#complete"
PAYLOAD_MAGIC = b"MSPAY1\n"
EVENT_KINDS = frozenset(
    ("send", "deliver", "drop", "verdict", "rekey", "admit", "remove", "elect", "alert")
)
NAME_RE = re.compile(r"^[A-Za-z0-9_.]+$")


class SimulationError(Exception):
    """Scenario invalid or log unusable."""


# ---------------------------------------------------------------------------
# Scenario description
# ---------------------------------------------------------------------------


@dataclass
class NodeSpec:
    name: str
    trace: list  # [(x, y), ...] sampled once per tick; last position persists
    battery: float = 1.0


@dataclass
class GroupSpec:
    group_id: str
    capacity: int
    members: list


@dataclass
class AdversarySpec:
    kind: str  # mitm_relay | modify_field | replay | impersonate | drop_all | drop_probabilistic
    placement: tuple  # ("node", name) or ("link", u, v)
    args: dict = field(default_factory=dict)


@dataclass
class Action:
    tick: int
    op: str
    args: tuple


@dataclass
class Expectation:
    kind: str
    args: tuple


@dataclass
class SimParams:
    radio_radius: float = 130.0
    rreq_lifetime: int = 8
    heartbeat_period: int = 10
    liveness_deadline: int = 30
    freshness_window: int = 50
    challenge_bits: int = 64
    challenge_rounds: int = 1
    strict_chain: bool = False
    discovery_timeout: int = 30
    trust_initial: float = 0.5
    duration: Optional[int] = None

    def node_params(self) -> NodeParams:
        return NodeParams(
            rreq_lifetime=self.rreq_lifetime,
            heartbeat_period=self.heartbeat_period,
            liveness_deadline=self.liveness_deadline,
            freshness_window=self.freshness_window,
            challenge_bits=self.challenge_bits,
            challenge_rounds=self.challenge_rounds,
            strict_chain=self.strict_chain,
            discovery_timeout=self.discovery_timeout,
        )


@dataclass
class Scenario:
    seed: int
    nodes: list  # NodeSpec
    groups: list  # GroupSpec
    params: SimParams = field(default_factory=SimParams)
    weights: WeightConfig = field(default_factory=lambda: WeightConfig(0.4, 0.4, 0.2))
    script: list = field(default_factory=list)  # Action
    adversaries: list = field(default_factory=list)  # AdversarySpec
    expectations: list = field(default_factory=list)  # Expectation
    faults: set = field(default_factory=set)  # test hooks: leak_key, skip_rekey, forge_admit
    provider_name: str = "test_double"


_KNOWN_ACTIONS = {
    "join": 2,
    "join_via": 2,
    "leave": 1,
    "crash": 1,
    "crash_leader": 1,
    "discover": 2,
    "send_data": 2,
    "session": 2,
    "expel": 2,
    "forged_join": 2,
    "rogue_session": 2,
}

_KNOWN_EXPECTATIONS = {
    "route": 2,
    "no_route": 2,
    "verdict": 2,
    "no_verdict": 2,
    "admitted": 1,
    "not_admitted": 1,
    "session": 3,
    "alerted": 1,
}


def validate_scenario(scenario: Scenario) -> list:
    """Structural and referential checks; returns a list of problems."""
    problems = []
    names = set()
    for spec in scenario.nodes:
        if spec.name in names:
            problems.append(f"duplicate node name {spec.name!r}")
        names.add(spec.name)
        if not NAME_RE.match(spec.name):
            problems.append(f"node name {spec.name!r} must be alphanumeric/underscore/dot")
        if not spec.trace:
            problems.append(f"node {spec.name}: empty position trace")
        for x, y in spec.trace:
            if not (math.isfinite(x) and math.isfinite(y)):
                problems.append(f"node {spec.name}: non-finite coordinate")
                break
        if not 0.0 <= spec.battery <= 1.0:
            problems.append(f"node {spec.name}: battery must be within [0, 1]")
    adversarial = set()
    for i, adv in enumerate(scenario.adversaries):
        where = adv.placement
        if where[0] == "node":
            if where[1] not in names:
                problems.append(f"adversary {i}: unknown node {where[1]!r}")
            adversarial.add(where[1])
        elif where[0] == "link":
            for end in where[1:]:
                if end not in names:
                    problems.append(f"adversary {i}: unknown link endpoint {end!r}")
        else:
            problems.append(f"adversary {i}: unknown placement kind {where[0]!r}")
        if adv.kind not in (
            "mitm_relay",
            "modify_field",
            "replay",
            "impersonate",
            "drop_all",
            "drop_probabilistic",
        ):
            problems.append(f"adversary {i}: unknown behavior {adv.kind!r}")
        if adv.kind == "drop_probabilistic":
            p = adv.args.get("p", 1.0)
            if not 0.0 <= p <= 1.0:
                problems.append(f"adversary {i}: drop probability must be within [0, 1]")
    grouped = set()
    group_ids = set()
    for spec in scenario.groups:
        if spec.group_id in group_ids:
            problems.append(f"duplicate group id {spec.group_id!r}")
        if not NAME_RE.match(spec.group_id):
            problems.append(f"group id {spec.group_id!r} must be alphanumeric/underscore/dot")
        group_ids.add(spec.group_id)
        for member in spec.members:
            if member not in names:
                problems.append(f"group {spec.group_id}: unknown member {member!r}")
            if member in grouped:
                problems.append(f"node {member} appears in more than one group")
            if member in adversarial:
                problems.append(f"group {spec.group_id}: adversarial node {member} cannot be a member")
            grouped.add(member)
        if spec.capacity < len(spec.members):
            problems.append(
                f"group {spec.group_id}: capacity {spec.capacity} below initial size {len(spec.members)}"
            )
    try:
        WeightConfig(scenario.weights.w0, scenario.weights.w1, scenario.weights.w2)
    except ValueError as exc:
        problems.append(str(exc))
    last_tick = 0
    for action in scenario.script:
        if action.tick < last_tick:
            problems.append(f"script time {action.tick} decreases (after {last_tick})")
        last_tick = max(last_tick, action.tick)
        if action.op not in _KNOWN_ACTIONS:
            problems.append(f"unknown script action {action.op!r}")
            continue
        if len(action.args) < _KNOWN_ACTIONS[action.op]:
            problems.append(f"action {action.op} expects {_KNOWN_ACTIONS[action.op]} arguments")
            continue
        actor = action.args[0]
        if action.op in ("crash_leader",):
            if actor not in group_ids:
                problems.append(f"action {action.op}: unknown group {actor!r}")
        elif actor not in names:
            problems.append(f"action {action.op}: unknown node {actor!r}")
        if action.op in ("join", "expel"):
            target = action.args[1]
            if action.op == "join" and target not in group_ids:
                problems.append(f"action join: unknown group {target!r}")
            if action.op == "expel" and target not in names:
                problems.append(f"action expel: unknown node {target!r}")
        if action.op in ("join_via", "discover", "session", "rogue_session", "forged_join"):
            target = action.args[1]
            if action.op == "forged_join":
                if target not in group_ids:
                    problems.append(f"action forged_join: unknown group {target!r}")
            elif target not in names:
                problems.append(f"action {action.op}: unknown node {target!r}")
        if action.op == "send_data":
            target = action.args[1]
            if target != BROADCAST and target not in names:
                problems.append(f"action send_data: unknown node {target!r}")
        if action.op in ("forged_join", "rogue_session") and actor not in adversarial:
            problems.append(f"action {action.op}: {actor!r} is not an adversarial node")
        if action.op in ("join", "join_via", "leave", "discover", "send_data", "session", "expel"):
            if actor in adversarial:
                problems.append(f"action {action.op}: {actor!r} is adversarial, not a protocol node")
    for expect in scenario.expectations:
        if expect.kind not in _KNOWN_EXPECTATIONS:
            problems.append(f"unknown expectation {expect.kind!r}")
    return problems


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


@dataclass
class SimEvent:
    tick: int
    seq: int
    kind: str
    principals: str
    digest: str
    detail: str

    def line(self) -> str:
        return f"{self.tick}\t{self.seq}\t{self.kind}\t{self.principals}\t{self.digest}\t{self.detail}"


@dataclass
class RunRegistry:
    """Auditor-side record of the run: key material and configuration.

    Never part of the wire traffic; holding it is what lets the auditor
    attempt decryptions on behalf of every principal.
    """

    provider_name: str = "test_double"
    seed: int = 0
    params: SimParams = field(default_factory=SimParams)
    weights: WeightConfig = field(default_factory=lambda: WeightConfig(0.4, 0.4, 0.2))
    keypairs: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    authority_public: bytes = b""
    secrets: list = field(default_factory=list)  # (tick, owner, label, bytes)
    expectations: list = field(default_factory=list)
    adversary_names: list = field(default_factory=list)
    node_names: list = field(default_factory=list)


@dataclass
class EventLog:
    events: list = field(default_factory=list)
    payloads: dict = field(default_factory=dict)  # digest hex -> bytes
    registry: RunRegistry = field(default_factory=RunRegistry)
    complete: bool = False

    def to_text(self) -> str:
        lines = [LOG_HEADER]
        lines.extend(event.line() for event in self.events)
        if self.complete:
            lines.append(LOG_FOOTER)
        return "\n".join(lines) + "\n"

    def payload_blob(self) -> bytes:
        chunks = [PAYLOAD_MAGIC]
        for digest, data in self.payloads.items():
            chunks.append(digest.encode("ascii"))
            chunks.append(len(data).to_bytes(8, "big"))
            chunks.append(data)
        return b"".join(chunks)


def parse_log_text(text: str) -> EventLog:
    lines = text.splitlines()
    if not lines or lines[0] != LOG_HEADER:
        raise SimulationError("not an event log (bad header)")
    log = EventLog()
    body = lines[1:]
    if body and body[-1] == LOG_FOOTER:
        log.complete = True
        body = body[:-1]
    for i, line in enumerate(body, start=2):
        parts = line.split("\t")
        if len(parts) != 6:
            raise SimulationError(f"line {i}: expected 6 tab-separated fields")
        try:
            tick, seq = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise SimulationError(f"line {i}: bad tick/sequence") from exc
        if parts[2] not in EVENT_KINDS:
            raise SimulationError(f"line {i}: unknown event kind {parts[2]!r}")
        if log.events:
            last = log.events[-1]
            if seq <= last.seq:
                raise SimulationError(f"line {i}: sequence {seq} does not follow {last.seq}")
            if tick < last.tick:
                raise SimulationError(f"line {i}: tick {tick} is before tick {last.tick}")
        log.events.append(SimEvent(tick, seq, parts[2], parts[3], parts[4], parts[5]))
    return log


_HEX_DIGITS = frozenset(b"0123456789abcdef")


def parse_payload_blob(blob: bytes) -> dict:
    if not blob.startswith(PAYLOAD_MAGIC):
        raise SimulationError("not a payload sidecar (bad magic)")
    payloads = {}
    pos = len(PAYLOAD_MAGIC)
    while pos < len(blob):
        start = pos + 72
        if start > len(blob):
            raise SimulationError(f"payload sidecar byte {pos}: truncated entry header")
        digest = blob[pos : pos + 64]
        if not _HEX_DIGITS.issuperset(digest):
            raise SimulationError(f"payload sidecar byte {pos}: digest is not 64 lowercase hex digits")
        end = start + int.from_bytes(blob[pos + 64 : start], "big")
        if end > len(blob):
            missing = end - len(blob)
            raise SimulationError(f"payload sidecar byte {start}: payload is {missing} bytes short")
        payloads[digest.decode("ascii")] = blob[start:end]
        pos = end
    return payloads


# ---------------------------------------------------------------------------
# Link adversaries
# ---------------------------------------------------------------------------


@dataclass
class LinkTap:
    name: str
    spec: AdversarySpec
    rng: random.Random
    outbox: list = field(default_factory=list)  # (due, envelope, recipient)

    def matches(self, a: str, b: str) -> bool:
        _, u, v = self.spec.placement
        return {a, b} == {u, v}


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def adversary_apply(kind: str, args: dict, message: Message, rng: random.Random):
    """What one interception does to a message.

    Returns (outcome, message): outcome is "forward", "drop", or "mutate";
    a stealth relay burns one hop of a request's budget but alters nothing
    else, mutations rewrite one field, drops eat the message.
    """
    if kind == "drop_all":
        return "drop", None
    if kind == "drop_probabilistic":
        if rng.random() < float(args.get("p", 1.0)):
            return "drop", None
        return "forward", message
    if kind == "mitm_relay":
        if message.kind == MessageKind.RREQ:
            if message["lifetime"] < 1:
                return "drop", None
            return "forward", message.replace(lifetime=message["lifetime"] - 1)
        return "forward", message
    if kind == "modify_field":
        if args["field"] not in message.fields:
            return "forward", message
        return "mutate", mutate_message(message, args["field"], args["op"], args.get("value"), rng)
    if kind == "impersonate":
        return "forward", message
    if kind == "replay":
        return "forward", message
    raise ValueError(f"unknown adversary kind {kind!r}")


class Simulation:
    def __init__(self, scenario: Scenario):
        problems = validate_scenario(scenario)
        if problems:
            raise SimulationError("; ".join(problems))
        self.scenario = scenario
        self.params = scenario.params
        self.provider = make_provider(scenario.provider_name)
        self.now = 0
        self._event_seq = 0
        self._tx = 0
        self.log = EventLog()
        self.queue: dict[int, list] = {}
        self.specs = {spec.name: spec for spec in scenario.nodes}
        self.group_map: dict[str, str] = {}
        self.leaders: dict[str, Optional[str]] = {}
        self.lineage_counters: dict[str, int] = {}
        self.last_trust: dict[str, dict] = {}
        self.ring_version = 0
        self._signals: list = []
        self._reach: dict[str, list] = {}  # name -> _neighbours row, for self.now

        seed_bytes = scenario.seed.to_bytes(8, "big", signed=True)

        def rng_for(label: str) -> random.Random:
            digest = hashlib.blake2b(seed_bytes + label.encode(), digest_size=8).digest()
            return random.Random(int.from_bytes(digest, "big"))

        self.rng_for = rng_for
        authority_rng = rng_for("authority")
        self.authority = CertificateAuthority(self.provider, authority_rng)

        adversarial = {
            adv.placement[1] for adv in scenario.adversaries if adv.placement[0] == "node"
        }
        node_specs = {spec.name: spec for spec in scenario.nodes}
        registry = self.log.registry
        registry.provider_name = scenario.provider_name
        registry.seed = scenario.seed
        registry.params = scenario.params
        registry.weights = scenario.weights
        registry.authority_public = self.authority.public
        registry.expectations = list(scenario.expectations)
        registry.node_names = sorted(node_specs)
        registry.adversary_names = sorted(adversarial)

        publics = {}
        keypairs = {}
        for name in sorted(node_specs):
            keypairs[name] = self.provider.generate_keypair(rng_for(f"key:{name}"))
            publics[name] = keypairs[name].public
        registry.keypairs = keypairs

        self.nodes: dict[str, object] = {}  # in sorted name order
        node_params = scenario.params.node_params()
        for name in sorted(node_specs):
            if name in adversarial:
                spec = next(
                    adv for adv in scenario.adversaries
                    if adv.placement[0] == "node" and adv.placement[1] == name
                )
                self.nodes[name] = AdversaryNode(
                    name, keypairs[name], self.provider, rng_for(f"node:{name}"), spec.kind, spec.args, publics
                )
            else:
                cert = self.authority.issue(name, keypairs[name].public)
                registry.certificates[name] = cert
                self.nodes[name] = ProtocolNode(
                    name,
                    keypairs[name],
                    cert,
                    self.provider,
                    rng_for(f"node:{name}"),
                    node_params,
                    self.authority.public,
                )
        self.taps = [
            LinkTap(f"tap{i}", adv, rng_for(f"tap:{i}"))
            for i, adv in enumerate(scenario.adversaries)
            if adv.placement[0] == "link"
        ]
        registry.adversary_names.extend(tap.name for tap in self.taps)

    # -- logging helpers -------------------------------------------------------

    def _log(self, kind: str, principals: str, detail: str, payload: Optional[bytes] = None) -> None:
        digest = "-"
        if payload is not None:
            digest = self.provider.hash(payload).hex()
            self.log.payloads.setdefault(digest, payload)
        self.log.events.append(SimEvent(self.now, self._event_seq, kind, principals, digest, detail))
        self._event_seq += 1

    def _schedule(self, tick: int, envelope: Envelope, recipient: str, via: str, detail: str) -> None:
        self.queue.setdefault(tick, []).append((envelope, recipient, via, detail))

    # -- radio ------------------------------------------------------------------

    def _position(self, name: str):
        trace = self.specs[name].trace
        return trace[min(self.now, len(trace) - 1)]

    def _in_range(self, a: str, b: str) -> bool:
        ax, ay = self._position(a)
        bx, by = self._position(b)
        return math.hypot(ax - bx, ay - by) <= self.params.radio_radius

    def _neighbours(self, name: str) -> list:
        """Sorted names within radio range of `name` this tick, dead or alive:
        positions change only between ticks, liveness at any time, so callers
        check liveness themselves."""
        row = self._reach.get(name)
        if row is None:
            row = [v for v in self.nodes if v != name and self._in_range(name, v)]
            self._reach[name] = row
        return row

    def _tap_for(self, a: str, b: str) -> Optional[LinkTap]:
        for tap in self.taps:
            if tap.matches(a, b):
                return tap
        return None

    def _relay_capable(self, name: str) -> bool:
        node = self.nodes[name]
        if not isinstance(node, AdversaryNode):
            return True
        # A stealth relay keeps the link alive to stay invisible; the other
        # behaviours do not cooperate with transport.
        return node.behavior == "mitm_relay"

    def _radio_path(self, source: str, target: str) -> Optional[list]:
        """Shortest live radio path; relays are honest nodes or stealth relays."""
        if target == source or target in self._neighbours(source):
            return [source, target]
        frontier = [source]
        parents = {source: None}
        while frontier:
            nxt = []
            for u in frontier:
                for v in self._neighbours(u):
                    if v in parents or not self.nodes[v].alive:
                        continue
                    if v != target and not self._relay_capable(v):
                        continue
                    parents[v] = u
                    if v == target:
                        path = [v]
                        while parents[path[-1]] is not None:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    nxt.append(v)
            frontier = nxt
        return None

    def _send(self, envelope: Envelope, sender: str, to: str) -> int:
        """Number and log one transmission; returns its tx number."""
        tx = self._tx
        self._tx += 1
        message = envelope.message
        detail = f"{message.kind.name}:to={to}:ch={envelope.channel}:tx={tx}"
        self._log("send", sender, detail, message.encoded)
        return tx

    def _transmit(self, envelope: Envelope) -> None:
        tx = self._send(envelope, envelope.sender, envelope.to)
        if envelope.channel == "ring":
            if envelope.to == BROADCAST:
                targets = sorted(
                    leader for leader in self.leaders.values()
                    if leader is not None and leader != envelope.sender
                )
            else:
                targets = [envelope.to]
            for target in targets:
                self._schedule(self.now + 1, envelope, target, envelope.sender, f"tx={tx}")
            return
        if envelope.to == BROADCAST:
            for name in self._neighbours(envelope.sender):
                if self.nodes[name].alive:
                    self._dispatch_radio(envelope, name, tx)
            return
        self._unicast(envelope, tx)

    def _overhear(self, envelope: Envelope, tx: int, skip=()) -> None:
        """Live adversarial nodes in range of the transmitter, except those in
        `skip`, overhear an addressed message."""
        for name in self._neighbours(envelope.sender):
            node = self.nodes[name]
            if isinstance(node, AdversaryNode) and node.alive and name not in skip:
                self._schedule(self.now + 1, envelope, name, envelope.sender, f"overheard:tx={tx}")

    def _unicast(self, envelope: Envelope, tx: int) -> None:
        target = envelope.to
        node = self.nodes.get(target)
        path = None
        if node is not None and node.alive:
            path = self._radio_path(envelope.sender, target)
        if path is None:
            reason = "out_of_range" if (node is not None and node.alive) else "dead"
            self._log("drop", f"{envelope.sender}>{target}", f"{reason}:tx={tx}")
            self._overhear(envelope, tx)
            return
        hops = len(path) - 1
        message = envelope.message
        extra = 0
        skip = {target}  # the addressee, and adversarial relays that hear it in transit
        for i, relay in enumerate(path[1:-1], start=1):
            if isinstance(self.nodes.get(relay), AdversaryNode):
                skip.add(relay)
                self._schedule(
                    self.now + i, envelope, relay, path[i - 1], f"overheard:hops={i}:tx={tx}"
                )
        self._overhear(envelope, tx, skip)
        for i in range(hops):
            u, v = path[i], path[i + 1]
            tap = self._tap_for(u, v)
            if tap is None:
                continue
            arrive = self.now + i + 1 + extra
            link_hops = arrive - self.now
            tapped = Envelope(message=message, sender=envelope.sender, to=target, channel="radio")
            if tap.spec.kind == "replay":
                self._schedule(arrive, tapped, tap.name, u, f"overheard:hops={link_hops}:tx={tx}")
                delay = int(tap.spec.args.get("delay", 5))
                tap.outbox.append((arrive + delay, tapped, target))
                continue
            self._schedule(arrive, tapped, tap.name, u, f"intercepted:hops={link_hops}:tx={tx}")
            outcome, modified = adversary_apply(tap.spec.kind, tap.spec.args, message, tap.rng)
            if outcome == "drop":
                return
            message = modified
            extra += 1
        delivered = Envelope(message=message, sender=envelope.sender, to=target, channel="radio")
        self._schedule(
            self.now + hops + extra, delivered, target, envelope.sender, f"hops={hops + extra}:tx={tx}"
        )

    def _dispatch_radio(self, envelope: Envelope, recipient: str, tx: int) -> None:
        tap = self._tap_for(envelope.sender, recipient)
        if tap is None:
            self._schedule(self.now + 1, envelope, recipient, envelope.sender, f"tx={tx}")
            return
        kind = tap.spec.kind
        if kind == "replay":
            # A passive tap: traffic flows normally, a copy is re-emitted later.
            self._schedule(self.now + 1, envelope, recipient, envelope.sender, f"tx={tx}")
            self._schedule(self.now + 1, envelope, tap.name, envelope.sender, f"overheard:tx={tx}")
            delay = int(tap.spec.args.get("delay", 5))
            tap.outbox.append((self.now + 1 + delay, envelope, recipient))
            return
        self._schedule(self.now + 1, envelope, tap.name, envelope.sender, f"intercepted:tx={tx}")
        outcome, modified = adversary_apply(kind, tap.spec.args, envelope.message, tap.rng)
        if outcome == "drop":
            return
        relayed = Envelope(
            message=modified, sender=envelope.sender, to=envelope.to, channel=envelope.channel
        )
        tap.outbox.append((self.now + 1, relayed, recipient))

    def _drain_taps(self) -> None:
        for tap in self.taps:
            due = [item for item in tap.outbox if item[0] <= self.now]
            tap.outbox = [item for item in tap.outbox if item[0] > self.now]
            for _, envelope, recipient in due:
                tx = self._send(envelope, tap.name, recipient)
                self._schedule(self.now + 1, envelope, recipient, tap.name, f"tx={tx}")

    # -- context plumbing ----------------------------------------------------------

    def _ctx(self, name: str) -> Ctx:
        return Ctx(name, self.now, self.nodes[name].rng, self.provider)

    def _flush(self, name: str, ctx: Ctx) -> None:
        for label, value in ctx.secrets:
            self.log.registry.secrets.append((self.now, name, label, value))
        for note in ctx.notes:
            principals = name if not note.about else f"{name}:{note.about}"
            payload = None if note.message is None else note.message.encoded
            self._log(note.kind, principals, note.detail, payload)
            if note.kind == "admit":
                node = self.nodes.get(name)
                if isinstance(node, ProtocolNode) and node.leader_service is not None:
                    self.group_map[note.about] = node.leader_service.group_id
            elif note.kind == "remove":
                self.group_map.pop(note.about, None)
        for envelope in ctx.outbound:
            node = self.nodes.get(name)
            if (
                isinstance(node, ProtocolNode)
                and envelope.channel == "radio"
                and envelope.to == BROADCAST
                and envelope.message.kind not in ProtocolNode._NO_RELAY
            ):
                node.relayed.add(envelope.message.encoded)
            self._transmit(envelope)
        node = self.nodes.get(name)
        if node is not None and getattr(node, "signals", None):
            self._signals.extend(node.signals)
            node.signals = []

    # -- membership orchestration ---------------------------------------------------

    def _make_leader(self, name: str, group_id: str, member_names: list, cause: str) -> None:
        node = self.nodes[name]
        self.lineage_counters[group_id] = self.lineage_counters.get(group_id, 0) + 1
        lineage = f"{group_id}-{self.lineage_counters[group_id]}"
        capacity = next(g.capacity for g in self.scenario.groups if g.group_id == group_id)
        node.leader_service = LeaderKeyService(
            name,
            group_id,
            lineage,
            node.keypair,
            self.provider,
            node.rng,
            self.authority.public,
            capacity,
            node.member.cfg,
            faults=set(self.scenario.faults),
        )
        trust_seed = self.last_trust.get(group_id, {})
        for member, value in trust_seed.items():
            node.leader_service.trust[member] = value
        node.ring_secret = node.rng.getrandbits(192)
        node.leader_last_seen = None
        ctx = self._ctx(name)
        members_with_pubs = [
            (m, self.log.registry.keypairs[m].public) for m in sorted(member_names) if m != name
        ]
        node.leader_service.found_group(members_with_pubs, ctx, cause)
        for member, _ in members_with_pubs:
            self._log("admit", f"{name}:{member}", cause)
            self.group_map[member] = group_id
        self.group_map[name] = group_id
        self.leaders[group_id] = name
        ctx.emit(
            msg(
                MessageKind.LEADER_ANNOUNCE,
                leader=name,
                group=group_id,
                leader_public=node.keypair.public,
            ),
            channel="ring",
        )
        self._flush(name, ctx)

    def _ring_rekey(self) -> None:
        leaders = sorted(name for name in self.leaders.values() if name is not None)
        if not leaders:
            return
        self.ring_version += 1
        pairs = [(name, self.nodes[name].ring_secret) for name in leaders]
        key = leader_ring_agree(pairs, self.provider)
        for name in leaders:
            self.nodes[name].ring_key = key
            self.log.registry.secrets.append(
                (self.now, name, f"ring_key:{self.ring_version}", key.bytes)
            )
        self._log("rekey", ",".join(leaders), f"ring:version={self.ring_version}")

    def _attrs(self, candidates: list, trust_table: dict) -> list:
        out = []
        for name in sorted(candidates):
            trace = self.specs[name].trace[: self.now + 1]
            out.append(
                NodeAttributes(
                    node=name,
                    mobility_m=mobility(trace),
                    battery_b=self.specs[name].battery,
                    trust_t=trust_table.get(name, self.params.trust_initial),
                )
            )
        return out

    def _election(self, group_id: str, departed: str) -> None:
        candidates = [
            name
            for name, group in sorted(self.group_map.items())
            if group == group_id and name != departed and self.nodes[name].alive
        ]
        if not candidates:
            self._log("alert", group_id, "group_dissolved")
            self.leaders[group_id] = None
            return
        trust_table = self.last_trust.get(group_id, {})
        winner = elect_leader(self._attrs(candidates, trust_table), self.scenario.weights)
        self._log("elect", winner, f"group={group_id}:cause=leader_departure")
        self._make_leader(winner, group_id, [c for c in candidates if c != winner], "election")
        self._ring_rekey()

    def _stash_trust(self, name: str) -> None:
        node = self.nodes.get(name)
        if isinstance(node, ProtocolNode) and node.leader_service is not None:
            self.last_trust[node.leader_service.group_id] = dict(node.leader_service.trust)

    # -- script actions ---------------------------------------------------------------

    def _action(self, action: Action) -> None:
        op, args = action.op, action.args
        if op not in ("crash", "crash_leader"):
            actor = self.leaders.get(args[0]) if op == "expel" else args[0]
            if actor is None:
                return
            node = self.nodes.get(actor)
            if node is not None and not node.alive:
                self._log("alert", actor, f"action_skipped_dead:{op}")
                return
        if op in ("join", "join_via"):
            name, target = args[0], args[1]
            node = self.nodes[name]
            leader = self.leaders.get(target) if op == "join" else target
            if leader is None:
                self._log("alert", name, f"join_failed:no_leader:{target}")
                return
            ctx = self._ctx(name)
            node.begin_join(leader, ctx)
            self._flush(name, ctx)
        elif op == "leave":
            name = args[0]
            node = self.nodes[name]
            ctx = self._ctx(name)
            if isinstance(node, ProtocolNode):
                was_leader = node.leader_service is not None
                group = node.group_id()
                node.announce_leave(ctx)
                if was_leader:
                    self._stash_trust(name)
                    node.leader_service = None
                    if group is not None:
                        self.leaders[group] = None
                self.group_map.pop(name, None)
                if was_leader and group is not None:
                    remaining = [n for n, g in self.group_map.items() if g == group]
                    if not remaining:
                        self._log("alert", group, "group_dissolved")
            self._flush(name, ctx)
        elif op in ("crash", "crash_leader"):
            name = args[0]
            if op == "crash_leader":
                leader = self.leaders.get(name)
                if leader is None:
                    return
                name = leader
            node = self.nodes[name]
            lost_group = None
            if isinstance(node, ProtocolNode) and node.leader_service is not None:
                self._stash_trust(name)
                lost_group = node.leader_service.group_id
                self.leaders[lost_group] = None
            node.alive = False
            self.group_map.pop(name, None)
            self._log("alert", name, "node_crashed")
            if lost_group is not None:
                remaining = [n for n, g in self.group_map.items() if g == lost_group]
                if not remaining:
                    self._log("alert", lost_group, "group_dissolved")
        elif op == "discover":
            source, dest = args[0], args[1]
            ctx = self._ctx(source)
            self.nodes[source].start_route_discovery(dest, ctx)
            self._flush(source, ctx)
        elif op == "send_data":
            source, dest = args[0], args[1]
            text = args[2] if len(args) > 2 else f"payload@{self.now}"
            ctx = self._ctx(source)
            self.nodes[source].send_data(dest, text, ctx)
            self._flush(source, ctx)
        elif op == "session":
            initiator, peer = args[0], args[1]
            ctx = self._ctx(initiator)
            self.nodes[initiator].start_session(peer, ctx)
            self._flush(initiator, ctx)
        elif op == "expel":
            leader_name, member = args[0], args[1]
            node = self.nodes[leader_name]
            if isinstance(node, ProtocolNode) and node.leader_service is not None:
                ctx = self._ctx(leader_name)
                node.leader_service.remove_member(member, "misbehavior", ctx)
                self._flush(leader_name, ctx)
        elif op == "forged_join":
            name, group = args[0], args[1]
            leader = self.leaders.get(group)
            if leader is None:
                return
            ctx = self._ctx(name)
            self.nodes[name].begin_forged_join(leader, ctx)
            self._flush(name, ctx)
        elif op == "rogue_session":
            name, peer = args[0], args[1]
            ctx = self._ctx(name)
            self.nodes[name].begin_rogue_session(peer, ctx)
            self._flush(name, ctx)

    # -- main loop --------------------------------------------------------------------

    def _setup(self) -> None:
        founding = []
        for spec in sorted(self.scenario.groups, key=lambda g: g.group_id):
            attrs = self._attrs(list(spec.members), {})
            leader = elect_leader(attrs, self.scenario.weights)
            self._log("elect", leader, f"group={spec.group_id}:cause=founding")
            founding.append((leader, spec))
        for leader, spec in founding:
            self._make_leader(leader, spec.group_id, [m for m in spec.members if m != leader], "founding")
        # Announce again once every leader exists so they all know each other.
        for leader, spec in founding:
            ctx = self._ctx(leader)
            ctx.emit(
                msg(
                    MessageKind.LEADER_ANNOUNCE,
                    leader=leader,
                    group=spec.group_id,
                    leader_public=self.nodes[leader].keypair.public,
                ),
                channel="ring",
            )
            self._flush(leader, ctx)
        self._ring_rekey()

    def run(self) -> EventLog:
        script = sorted(self.scenario.script, key=lambda a: a.tick)
        last_tick = max((a.tick for a in script), default=0)
        duration = self.params.duration if self.params.duration is not None else last_tick + 40
        self.now = 0
        self._setup()
        pending = list(script)
        for tick in range(duration + 1):
            self.now = tick
            self._reach = {}
            while pending and pending[0].tick <= tick:
                self._action(pending.pop(0))
            self._drain_taps()
            for envelope, recipient, via, detail in self.queue.pop(tick, []):
                node = self.nodes.get(recipient)
                kind_name = envelope.message.kind.name
                if node is None:
                    # Tap pseudo-principal: logging the delivery is the point.
                    self._log("deliver", f"{via}>{recipient}", f"{kind_name}:{detail}", envelope.message.encoded)
                    continue
                if not node.alive:
                    self._log("drop", f"{via}>{recipient}", f"dead:{detail}")
                    continue
                self._log("deliver", f"{via}>{recipient}", f"{kind_name}:{detail}", envelope.message.encoded)
                ctx = self._ctx(recipient)
                if isinstance(node, AdversaryNode):
                    node.handle(envelope, ctx, overheard="overheard" in detail)
                else:
                    node.handle(envelope, ctx)
                self._flush(recipient, ctx)
            for name in sorted(self.nodes):
                node = self.nodes[name]
                if not node.alive:
                    continue
                ctx = self._ctx(name)
                node.on_tick(ctx)
                self._flush(name, ctx)
            if self._signals:
                signaled = {}
                for signal in self._signals:
                    if signal[0] == "election":
                        signaled[signal[1]] = signal[2]
                self._signals = []
                for group_id in sorted(signaled):
                    current = self.leaders.get(group_id)
                    if current is not None and self.nodes[current].alive:
                        continue  # already re-elected
                    self._election(group_id, signaled[group_id])
        self.log.complete = True
        return self.log


def run(scenario: Scenario) -> EventLog:
    """Execute a scenario and return its replayable event log."""
    return Simulation(scenario).run()
