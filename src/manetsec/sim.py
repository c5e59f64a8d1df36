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
from .messages import BROADCAST, FIELD_TYPES, HEADER_FIELDS, NAME_RE, Envelope, Message, MessageKind
from .messages import encode_message  # noqa: F401 -- kept: perfbench/tracing.py wraps this binding
from .node import MUTATION_OPS, VALUE_OPS, AdversaryNode, ProtocolNode, mutate_message
from .runtime import Ctx

LOG_HEADER = "#manetsec-log v1"
LOG_FOOTER = "#complete"
PAYLOAD_MAGIC = b"MSPAY1\n"
EVENT_KINDS = frozenset(
    ("send", "deliver", "drop", "verdict", "rekey", "admit", "remove", "elect", "alert")
)


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _adversary_arg_problems(adv: AdversarySpec) -> list:
    """What is wrong with one adversary's `key=value` arguments."""
    args, problems = adv.args, []
    if adv.kind == "drop_probabilistic":
        p = args.get("p", 1.0)
        if not (_is_finite(p) and 0.0 <= p <= 1.0):
            problems.append("drop probability must be within [0, 1]")
    elif adv.kind == "replay":
        delay = args.get("delay", 5)
        if not (_is_int(delay) and delay >= 0):
            problems.append(f"replay delay must be a non-negative integer, not {delay!r}")
    elif adv.kind == "impersonate":
        if args.get("strategy", "replay") not in ("replay", "random"):
            problems.append(f"impersonate strategy must be replay or random, not {args['strategy']!r}")
        if "modulus" in args and not (_is_int(args["modulus"]) and args["modulus"] >= 4):
            problems.append(f"impersonate modulus must be an integer of at least 4, not {args['modulus']!r}")
    elif adv.kind == "modify_field":
        for key in ("field", "op"):
            if key not in args:
                problems.append(f"modify_field needs {key}=")
        fieldname, op = args.get("field"), args.get("op")
        if op is not None and op not in MUTATION_OPS:
            problems.append(f"unknown modify_field op {op!r}")
        elif op in VALUE_OPS and "value" not in args:
            problems.append(f"modify_field op {op} needs value=")
        if fieldname is not None and fieldname not in HEADER_FIELDS:
            problems.append(f"modify_field field {fieldname!r} names no message field")
        elif fieldname is not None and op in MUTATION_OPS:
            wire_type = FIELD_TYPES[fieldname]
            if wire_type not in MUTATION_OPS[op]:
                problems.append(f"modify_field op {op} does not apply to {fieldname}, whose type is {wire_type}")
            elif op in VALUE_OPS and "value" in args:
                value = args["value"]
                if wire_type == "int" and not _is_int(value):
                    problems.append(f"modify_field value {value!r} for int field {fieldname} is not an integer")
                elif wire_type == "name" and not NAME_RE.fullmatch(str(value)):
                    problems.append(f"modify_field value {value!r} for name field {fieldname} is not a name")
    return problems


def _param_problems(params: SimParams) -> list:
    """What is wrong with a scenario's `[params]`: values the run would
    divide by, crash on, or silently run with no radio, no liveness or a
    join that asks for no secret."""
    problems = []
    radius = params.radio_radius
    if not (_is_finite(radius) and radius > 0):
        problems.append(f"radio_radius must be finite and positive, not {radius!r}")
    for name in (
        "heartbeat_period", "rreq_lifetime", "liveness_deadline", "discovery_timeout", "challenge_bits",
        "challenge_rounds",
    ):
        value = getattr(params, name)
        if not (_is_int(value) and value >= 1):
            problems.append(f"{name} must be an integer of at least 1, not {value!r}")
    if not (_is_int(params.freshness_window) and params.freshness_window >= 0):
        problems.append(f"freshness_window must be a non-negative integer, not {params.freshness_window!r}")
    trust = params.trust_initial
    if not (_is_finite(trust) and 0.0 <= trust <= 1.0):
        problems.append(f"trust_initial must be within [0, 1], not {trust!r}")
    if params.duration is not None and not (_is_int(params.duration) and params.duration >= 0):
        problems.append(f"duration must be a non-negative integer, not {params.duration!r}")
    return problems


def validate_scenario(scenario: Scenario) -> list:
    """Structural and referential checks; returns a list of problems."""
    problems = []
    names = set()
    for spec in scenario.nodes:
        if spec.name in names:
            problems.append(f"duplicate node name {spec.name!r}")
        names.add(spec.name)
        if not NAME_RE.fullmatch(spec.name):
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
        problems += [f"adversary {i}: {problem}" for problem in _adversary_arg_problems(adv)]
    grouped = set()
    group_ids = set()
    for spec in scenario.groups:
        if spec.group_id in group_ids:
            problems.append(f"duplicate group id {spec.group_id!r}")
        if not NAME_RE.fullmatch(spec.group_id):
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
    problems += _param_problems(scenario.params)
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
        elif len(expect.args) != _KNOWN_EXPECTATIONS[expect.kind]:
            problems.append(f"expectation {expect.kind} expects {_KNOWN_EXPECTATIONS[expect.kind]} arguments")
    return problems


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SimEvent:
    """One logged event, held as the parts its log line is rendered from.

    The principals are the `actor`, plus the `recipient` of a transmission
    (`actor>recipient`, None when there is none) or what a note is `about`
    (`actor:about`, "" when nothing).  The detail is its ordered `parts`,
    each a word or a (name, value) pair, rendered `:`-joined with each pair
    as `name=value`.  Every part is held as the text it renders to, so a
    line read back by :func:`parse_log_text` is equal to the event logged.
    """

    tick: int
    seq: int
    kind: str
    actor: str
    recipient: Optional[str]
    about: str
    digest: str
    parts: tuple

    @property
    def principals(self) -> str:
        if self.recipient is not None:
            return f"{self.actor}>{self.recipient}"
        if self.about:
            return f"{self.actor}:{self.about}"
        return self.actor

    @property
    def detail(self) -> str:
        return render_detail(self.parts)

    @property
    def word(self) -> str:
        """The detail's leading word, or "" when it leads with a pair."""
        first = self.parts[0]
        return first if isinstance(first, str) else ""

    @property
    def words(self) -> str:
        """The detail without its pairs, as it renders:
        `duplicate:source=S:seq=1` -> `duplicate`."""
        return ":".join(part for part in self.parts if isinstance(part, str))

    def get(self, name: str, default=None):
        """The value of the detail's last `name` pair, or `default`."""
        for part in reversed(self.parts):
            if not isinstance(part, str) and part[0] == name:
                return part[1]
        return default

    def line(self) -> str:
        return f"{self.tick}\t{self.seq}\t{self.kind}\t{self.principals}\t{self.digest}\t{render_detail(self.parts)}"


def render_detail(parts) -> str:
    """The `:`-joined text of detail parts, each pair as `name=value`."""
    return ":".join([part if isinstance(part, str) else "=".join(part) for part in parts])


@dataclass
class RunRegistry:
    """Auditor-side record of the run: provider, principals, key material
    and expectations.

    Never part of the wire traffic; holding it is what lets the auditor
    attempt decryptions on behalf of every principal.
    """

    provider_name: str = "test_double"
    keypairs: dict = field(default_factory=dict)
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


# The pieces of an event's text.  An actor, a word or a pair's name is never
# empty; a recipient or a pair's value may be, and an empty about is none.
_PIECE = re.compile(r"[^>:=]+")
_OPTIONAL_PIECE = re.compile(r"[^>:=]*")


def _read_principals(text: str) -> tuple:
    """(actor, recipient, about) of `actor`, `actor>recipient` or
    `actor:about`."""
    actor, arrow, recipient = text.partition(">")
    actor, _, about = actor.partition(":")
    if not (_PIECE.fullmatch(actor) and _OPTIONAL_PIECE.fullmatch(recipient) and _OPTIONAL_PIECE.fullmatch(about)):
        raise ValueError(f"principals {text!r} are not actor, actor>recipient or actor:about")
    return actor, (recipient if arrow else None), about


def _read_detail(text: str) -> tuple:
    """The parts of a `:`-joined detail, each a word or a `name=value` pair."""
    parts = []
    for part in text.split(":"):
        name, equals, value = part.partition("=")
        if not (_PIECE.fullmatch(name) and _OPTIONAL_PIECE.fullmatch(value)):
            raise ValueError(f"detail {text!r} has a part {part!r} that is neither a word nor name=value")
        parts.append((name, value) if equals else name)
    return tuple(parts)


def parse_log_text(text: str) -> EventLog:
    """Read a log back into the events that were logged.  A line that does
    not follow the grammar of :class:`SimEvent`, or does not render back to
    itself, is rejected with its line number."""
    lines = text.splitlines()
    if not lines or lines[0] != LOG_HEADER:
        raise SimulationError("not an event log (bad header)")
    log = EventLog()
    body = lines[1:]
    if body and body[-1] == LOG_FOOTER:
        log.complete = True
        body = body[:-1]
    for i, line in enumerate(body, start=2):
        fields = line.split("\t")
        if len(fields) != 6:
            raise SimulationError(f"line {i}: expected 6 tab-separated fields")
        try:
            tick, seq = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise SimulationError(f"line {i}: bad tick/sequence") from exc
        if fields[2] not in EVENT_KINDS:
            raise SimulationError(f"line {i}: unknown event kind {fields[2]!r}")
        try:
            event = SimEvent(tick, seq, fields[2], *_read_principals(fields[3]), fields[4], _read_detail(fields[5]))
        except ValueError as exc:
            raise SimulationError(f"line {i}: {exc}") from None
        if event.line() != line:
            raise SimulationError(f"line {i}: does not render back to itself")
        if log.events:
            last = log.events[-1]
            if seq <= last.seq:
                raise SimulationError(f"line {i}: sequence {seq} does not follow {last.seq}")
            if tick < last.tick:
                raise SimulationError(f"line {i}: tick {tick} is before tick {last.tick}")
        log.events.append(event)
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
        key = digest.decode("ascii")
        if key in payloads:
            raise SimulationError(f"payload sidecar byte {pos}: digest {key} repeats an earlier entry")
        payloads[key] = blob[start:end]
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
        if rng.random() < args.get("p", 1.0):
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
        # name -> _neighbours row.  Positions change only on ticks 1 ..
        # _last_move, so rows built on the last of those stay valid after it.
        self._reach: dict[str, list] = {}
        self._last_move = max((len(spec.trace) for spec in scenario.nodes), default=1) - 1
        self._where: dict[str, tuple] = {}  # name -> position on the tick _cells was built
        self._cells: Optional[dict] = None  # (column, row) -> names in that cell
        self._side = 0.0
        self._digests: dict[bytes, str] = {}  # logged payload -> its digest, hex
        # addressee -> its resumable path search, [hops, FIFO queue, head];
        # emptied with _reach and whenever a node dies.
        self._searches: dict[str, list] = {}

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
                self.nodes[name] = ProtocolNode(
                    name,
                    keypairs[name],
                    self.authority.issue(name, keypairs[name].public),
                    self.provider,
                    rng_for(f"node:{name}"),
                    scenario.params,
                    self.authority.public,
                )
        self.taps = [
            LinkTap(f"tap{i}", adv, rng_for(f"tap:{i}"))
            for i, adv in enumerate(scenario.adversaries)
            if adv.placement[0] == "link"
        ]
        registry.adversary_names.extend(tap.name for tap in self.taps)
        # Nodes that never relay: no node changes its behaviour during a run.
        self._no_relay = frozenset(name for name in self.nodes if not self._relay_capable(name))

    # -- logging helpers -------------------------------------------------------

    def _log(
        self,
        kind: str,
        actor,
        parts: tuple,
        payload: Optional[bytes] = None,
        recipient: Optional[str] = None,
        about: str = "",
    ) -> None:
        """Log one event.  Its `parts` are text already; `str` makes the
        actor text too (an election signalled for no group logs `None`)."""
        digest = "-"
        if payload is not None:
            digest = self._digests.get(payload)
            if digest is None:
                digest = self.provider.hash(payload).hex()
                self._digests[payload] = digest
                self.log.payloads.setdefault(digest, payload)
        self.log.events.append(SimEvent(self.now, self._event_seq, kind, str(actor), recipient, about, digest, parts))
        self._event_seq += 1

    def _schedule(self, tick: int, envelope: Envelope, recipient: str, via: str, parts: tuple) -> None:
        """Queue a delivery; `parts` end the detail its deliver or drop logs."""
        self.queue.setdefault(tick, []).append((envelope, recipient, via, parts))

    # -- radio ------------------------------------------------------------------

    def _index_cells(self) -> None:
        """Read every node's position for this tick and bucket it into square
        cells, so that a node's neighbours lie in the 3x3 block around its
        cell.  The side exceeds the radius by a margin that outweighs the
        rounding of `x / side` (relative to the largest coordinate), so two
        nodes within the radius never land two cells apart, and that keeps
        `x / side` finite however small the radius."""
        where = {}
        for name in self.nodes:
            trace = self.specs[name].trace
            where[name] = trace[min(self.now, len(trace) - 1)]
        radius = self.params.radio_radius
        extent = max((max(abs(x), abs(y)) for x, y in where.values()), default=0.0)
        side = radius + (radius + extent) * 1e-9
        cells: dict[tuple, list] = {}
        for name, (x, y) in where.items():
            cells.setdefault((math.floor(x / side), math.floor(y / side)), []).append(name)
        self._where, self._cells, self._side = where, cells, side

    def _in_range(self, a: str, b: str) -> bool:
        ax, ay = self._where[a]
        bx, by = self._where[b]
        return math.hypot(ax - bx, ay - by) <= self.params.radio_radius

    def _neighbours(self, name: str) -> list:
        """Sorted names within radio range of `name` this tick, dead or alive:
        positions change only between ticks, liveness at any time, so callers
        check liveness themselves."""
        row = self._reach.get(name)
        if row is None:
            if self._cells is None:
                self._index_cells()
            x, y = self._where[name]
            column, line = math.floor(x / self._side), math.floor(y / self._side)
            near = [
                v
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                for v in self._cells.get((column + dx, line + dy), ())
            ]
            row = sorted(v for v in near if v != name and self._in_range(name, v))
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
        """Shortest live radio path; relays are honest nodes or stealth relays.
        Of several, it is the one whose names, read from `source`, sort first.

        One breadth-first search per addressee serves every sender that
        addresses it while reach and liveness hold: rooted at `target`, it
        counts hops in FIFO order until `source` has a count, and the next
        call resumes it there.  A live node that cannot relay gets a count but
        is never expanded; the root always is.  The path then walks from
        `source`, taking at each hop the first name in the sorted row that is
        one hop nearer and is the addressee or can relay.  Only live nodes
        send, so `source` gets a count whenever a path exists."""
        if target == source or target in self._neighbours(source):
            return [source, target]
        nodes, no_relay = self.nodes, self._no_relay
        if not nodes[target].alive:
            return None
        search = self._searches.get(target)
        if search is None:
            search = self._searches[target] = [{target: 0}, [target], 0]
        hops, queue, head = search
        while source not in hops and head < len(queue):
            u = queue[head]
            head += 1
            count = hops[u] + 1
            for v in self._neighbours(u):
                if v not in hops and nodes[v].alive:
                    hops[v] = count
                    if v not in no_relay:
                        queue.append(v)
        search[2] = head
        count = hops.get(source)
        if count is None:
            return None
        path = [source]
        for nearer in range(count - 1, 0, -1):
            path.append(next(v for v in self._neighbours(path[-1]) if hops.get(v) == nearer and v not in no_relay))
        path.append(target)
        return path

    def _send(self, envelope: Envelope, sender: str, to: str) -> tuple:
        """Number and log one transmission; returns its `("tx", number)`
        part, which every delivery and drop of it shares."""
        tx = ("tx", str(self._tx))
        self._tx += 1
        message = envelope.message
        self._log("send", sender, (message.kind.name, ("to", to), ("ch", envelope.channel), tx), message.encoded)
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
                self._schedule(self.now + 1, envelope, target, envelope.sender, (tx,))
            return
        if envelope.to == BROADCAST:
            for name in self._neighbours(envelope.sender):
                if self.nodes[name].alive:
                    self._dispatch_radio(envelope, name, tx)
            return
        self._unicast(envelope, tx)

    def _overhear(self, envelope: Envelope, tx: tuple, skip=()) -> None:
        """Live adversarial nodes in range of the transmitter, except those in
        `skip`, overhear an addressed message."""
        for name in self._neighbours(envelope.sender):
            node = self.nodes[name]
            if isinstance(node, AdversaryNode) and node.alive and name not in skip:
                self._schedule(self.now + 1, envelope, name, envelope.sender, ("overheard", tx))

    def _unicast(self, envelope: Envelope, tx: tuple) -> None:
        target = envelope.to
        node = self.nodes.get(target)
        path = None
        if node is not None and node.alive:
            path = self._radio_path(envelope.sender, target)
        if path is None:
            reason = "out_of_range" if (node is not None and node.alive) else "dead"
            self._log("drop", envelope.sender, (reason, tx), recipient=target)
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
                    self.now + i, envelope, relay, path[i - 1], ("overheard", ("hops", str(i)), tx)
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
                self._schedule(arrive, tapped, tap.name, u, ("overheard", ("hops", str(link_hops)), tx))
                delay = tap.spec.args.get("delay", 5)
                tap.outbox.append((arrive + delay, tapped, target))
                continue
            self._schedule(arrive, tapped, tap.name, u, ("intercepted", ("hops", str(link_hops)), tx))
            outcome, modified = adversary_apply(tap.spec.kind, tap.spec.args, message, tap.rng)
            if outcome == "drop":
                return
            message = modified
            extra += 1
        delivered = Envelope(message=message, sender=envelope.sender, to=target, channel="radio")
        self._schedule(
            self.now + hops + extra, delivered, target, envelope.sender, (("hops", str(hops + extra)), tx)
        )

    def _dispatch_radio(self, envelope: Envelope, recipient: str, tx: tuple) -> None:
        tap = self._tap_for(envelope.sender, recipient)
        if tap is None:
            self._schedule(self.now + 1, envelope, recipient, envelope.sender, (tx,))
            return
        kind = tap.spec.kind
        if kind == "replay":
            # A passive tap: traffic flows normally, a copy is re-emitted later.
            self._schedule(self.now + 1, envelope, recipient, envelope.sender, (tx,))
            self._schedule(self.now + 1, envelope, tap.name, envelope.sender, ("overheard", tx))
            delay = tap.spec.args.get("delay", 5)
            tap.outbox.append((self.now + 1 + delay, envelope, recipient))
            return
        self._schedule(self.now + 1, envelope, tap.name, envelope.sender, ("intercepted", tx))
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
                self._schedule(self.now + 1, envelope, recipient, tap.name, (tx,))

    # -- context plumbing ----------------------------------------------------------

    def _ctx(self, name: str) -> Ctx:
        return Ctx(name, self.now, self.nodes[name].rng, self.provider)

    def _step(self, name: str, act, *args) -> None:
        """One step of node `name`: `act(*args, ctx)`, then log and send what
        it noted and emitted."""
        ctx = self._ctx(name)
        act(*args, ctx)
        self._flush(name, ctx)

    def _flush(self, name: str, ctx: Ctx) -> None:
        node = self.nodes[name]
        for label, value in ctx.secrets:
            self.log.registry.secrets.append((self.now, name, label, value))
        for note in ctx.notes:
            payload = None if note.message is None else note.message.encoded
            self._log(note.kind, name, note.parts, payload, about=note.about)
            if note.kind == "admit":
                if isinstance(node, ProtocolNode) and node.leader_service is not None:
                    self.group_map[note.about] = node.leader_service.group_id
            elif note.kind == "remove":
                self.group_map.pop(note.about, None)
        for envelope in ctx.outbound:
            if (
                isinstance(node, ProtocolNode)
                and envelope.channel == "radio"
                and envelope.to == BROADCAST
                and envelope.message.kind not in ProtocolNode._NO_RELAY
            ):
                node.relayed.add(envelope.message.encoded)
            self._transmit(envelope)
        if node.signals:
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
            self._log("admit", name, (cause,), about=member)
            self.group_map[member] = group_id
        self.group_map[name] = group_id
        self.leaders[group_id] = name
        node.announce(ctx)
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
                (self.now, name, f"ring_key:{self.ring_version}", key)
            )
        self._log("rekey", ",".join(leaders), ("ring", ("version", str(self.ring_version))))

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
            self._log("alert", group_id, ("group_dissolved",))
            self.leaders[group_id] = None
            return
        trust_table = self.last_trust.get(group_id, {})
        winner = elect_leader(self._attrs(candidates, trust_table), self.scenario.weights)
        self._log("elect", winner, (("group", group_id), ("cause", "leader_departure")))
        self._make_leader(winner, group_id, [c for c in candidates if c != winner], "election")
        self._ring_rekey()

    def _stash_trust(self, name: str) -> None:
        node = self.nodes.get(name)
        if isinstance(node, ProtocolNode) and node.leader_service is not None:
            self.last_trust[node.leader_service.group_id] = dict(node.leader_service.trust)

    # -- script actions ---------------------------------------------------------------

    def _action(self, action: Action) -> None:
        op, args = action.op, action.args
        if op in ("crash", "crash_leader"):
            name = args[0] if op == "crash" else self.leaders.get(args[0])
            if name is None:
                return
            node = self.nodes[name]
            lost_group = None
            if isinstance(node, ProtocolNode) and node.leader_service is not None:
                self._stash_trust(name)
                lost_group = node.leader_service.group_id
                self.leaders[lost_group] = None
            node.alive = False
            self._searches = {}
            self.group_map.pop(name, None)
            self._log("alert", name, ("node_crashed",))
            if lost_group is not None:
                remaining = [n for n, g in self.group_map.items() if g == lost_group]
                if not remaining:
                    self._log("alert", lost_group, ("group_dissolved",))
            return
        actor = args[0]
        node = self.nodes[actor]
        if not node.alive:
            self._log("alert", actor, ("action_skipped_dead", op))
            return
        if op in ("join", "join_via"):
            leader = self.leaders.get(args[1]) if op == "join" else args[1]
            if leader is None:
                self._log("alert", actor, ("join_failed", "no_leader", args[1]))
                return
            self._step(actor, node.begin_join, leader)
        elif op == "leave":
            self._step(actor, self._leave)
        elif op == "discover":
            self._step(actor, node.start_route_discovery, args[1])
        elif op == "send_data":
            text = args[2] if len(args) > 2 else f"payload@{self.now}"
            self._step(actor, node.send_data, args[1], text)
        elif op == "session":
            self._step(actor, node.start_session, args[1])
        elif op == "expel":
            if node.leader_service is None:
                self._log("alert", actor, ("expel_failed", "not_leader", args[1]))
                return
            self._step(actor, node.leader_service.remove_member, args[1], "misbehavior")
        elif op == "forged_join":
            leader = self.leaders.get(args[1])
            if leader is not None:
                self._step(actor, node.begin_forged_join, leader)
        elif op == "rogue_session":
            self._step(actor, node.begin_rogue_session, args[1])

    def _leave(self, ctx: Ctx) -> None:
        """Scripted leave: the node announces it, and a leaving leader's group
        is left leaderless until its members notice."""
        name = ctx.name
        node = self.nodes[name]
        was_leader = node.leader_service is not None
        group = node.group_id()
        node.announce_leave(ctx)
        if was_leader:
            self._stash_trust(name)
            node.leader_service = None
        self.group_map.pop(name, None)
        if was_leader and group is not None:
            self.leaders[group] = None
            if group not in self.group_map.values():
                self._log("alert", group, ("group_dissolved",))

    # -- main loop --------------------------------------------------------------------

    def _setup(self) -> None:
        founding = []
        for spec in sorted(self.scenario.groups, key=lambda g: g.group_id):
            attrs = self._attrs(list(spec.members), {})
            leader = elect_leader(attrs, self.scenario.weights)
            self._log("elect", leader, (("group", spec.group_id), ("cause", "founding")))
            founding.append((leader, spec))
        for leader, spec in founding:
            self._make_leader(leader, spec.group_id, [m for m in spec.members if m != leader], "founding")
        # Announce again once every leader exists so they all know each other.
        for leader, _ in founding:
            self._step(leader, self.nodes[leader].announce)
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
            if 0 < tick <= self._last_move:
                self._reach, self._cells, self._searches = {}, None, {}
            while pending and pending[0].tick <= tick:
                self._action(pending.pop(0))
            self._drain_taps()
            for envelope, recipient, via, parts in self.queue.pop(tick, []):
                node = self.nodes.get(recipient)
                if node is not None and not node.alive:
                    self._log("drop", via, ("dead",) + parts, recipient=recipient)
                    continue
                message = envelope.message
                self._log("deliver", via, (message.kind.name,) + parts, message.encoded, recipient=recipient)
                if node is None:
                    continue  # a tap pseudo-principal: logging the delivery is the point
                self._step(recipient, node.handle, envelope)
            for name in sorted(self.nodes):
                node = self.nodes[name]
                if not node.alive:
                    continue
                self._step(name, node.on_tick)
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
