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
reimplement relaying.  Taps and adversarial relays on the path see what
reaches them, when it does.  Adversarially placed nodes within range of a
transmitter overhear addressed traffic.  Leaders additionally share an
out-of-band "ring" channel for leader-to-leader traffic.

Adversaries come in two shapes: a *node* adversary is a placed radio
participant (it hears and transmits like any node, following its scripted
misbehaviour), and a *link* adversary owns the link between two nodes and
intercepts whatever crosses it either way.  Everything an adversary
receives is in the log, which is how the auditor bounds what it could have
learned.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import sys
from dataclasses import dataclass, field, is_dataclass, replace
from dataclasses import fields as dc_fields
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .crypto import PROVIDERS, make_provider
from .group import TRUST_INITIAL, NodeAttributes, WeightConfig, elect_leader, mobility
from .keymgmt import FAULTS, CertificateAuthority, LeaderKeyService, leader_ring_agree
from .messages import BROADCAST, FIELD_TYPES, HEADER_FIELDS, NAME_RE, Envelope, MessageKind
from .messages import encode_message  # noqa: F401 -- kept: perfbench/tracing.py wraps this binding
from .node import BEHAVIORS, MUTATION_OPS, STEALTH_RELAY, VALUE_OPS, AdversaryNode, ProtocolNode, intercept, refloods
from .runtime import Ctx, render_detail

LOG_HEADER = "#manetsec-log v1"
LOG_FOOTER = "#complete"
PAYLOAD_MAGIC = b"MSPAY1\n"
EVENT_KINDS = frozenset(
    ("send", "deliver", "drop", "verdict", "rekey", "admit", "remove", "elect", "alert")
)
# Each message kind's name, for send and deliver events: a table lookup
# costs a fraction of a read of the Enum's `name` property.
_KIND_NAMES = {kind: kind.name for kind in MessageKind}


class SimulationError(Exception):
    """Scenario invalid or log unusable; `problems` lists what is wrong."""

    def __init__(self, *problems):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


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
    members: list[str]


# The length of each adversary placement: ("node", NAME) or ("link", U, V).
# A node, or a link either way round, has at most one adversary.
PLACEMENTS = {"node": 2, "link": 3}


@dataclass
class AdversarySpec:
    kind: str  # a behavior of node.BEHAVIORS
    placement: tuple[str, ...]  # ("node", name) or ("link", u, v)
    args: dict = field(default_factory=dict)

    @property
    def settings(self) -> dict:
        """Its arguments over the defaults of its behavior."""
        return {**BEHAVIORS[self.kind], **self.args}


@dataclass
class Action:
    tick: int
    op: str
    args: tuple[str, ...]


@dataclass
class Expectation:
    kind: str
    args: tuple[str, ...]


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
    trust_initial: float = TRUST_INITIAL
    duration: Optional[int] = None


@dataclass
class Scenario:
    seed: int
    nodes: list[NodeSpec]
    groups: list[GroupSpec]
    params: SimParams = field(default_factory=SimParams)
    weights: WeightConfig = field(default_factory=WeightConfig)
    script: list[Action] = field(default_factory=list)
    adversaries: list[AdversarySpec] = field(default_factory=list)
    expectations: list[Expectation] = field(default_factory=list)
    faults: set[str] = field(default_factory=set)  # test hooks, of keymgmt.FAULTS
    provider_name: str = "test_double"


# The roles an argument of a script action or an expectation can play.
ANY_NODE = "node"
PROTOCOL_NODE = "protocol node"  # a node that is not adversarial
ADVERSARIAL_NODE = "adversarial node"
GROUP = "group"
NODE_OR_ALL = "node or *"  # `*` addresses the whole group
TEXT = "text"
OPTIONAL_TEXT = "optional text"  # only ever the last argument

# Each script action with the roles of its arguments, in order.
ACTIONS = {
    "join": (PROTOCOL_NODE, GROUP),
    "join_via": (PROTOCOL_NODE, ANY_NODE),
    "leave": (PROTOCOL_NODE,),
    "crash": (ANY_NODE,),
    "crash_leader": (GROUP,),
    "discover": (PROTOCOL_NODE, ANY_NODE),
    "send_data": (PROTOCOL_NODE, NODE_OR_ALL, OPTIONAL_TEXT),
    "session": (PROTOCOL_NODE, ANY_NODE),
    "expel": (PROTOCOL_NODE, ANY_NODE),
    "forged_join": (ADVERSARIAL_NODE, GROUP),
    "rogue_session": (ADVERSARIAL_NODE, ANY_NODE),
}

# Each expectation with the roles of its arguments: a verdict's detail
# prefix and a session's status are free text.
EXPECTATIONS = {
    "route": (ANY_NODE, ANY_NODE),
    "no_route": (ANY_NODE, ANY_NODE),
    "verdict": (ANY_NODE, TEXT),
    "no_verdict": (ANY_NODE, TEXT),
    "admitted": (ANY_NODE,),
    "not_admitted": (ANY_NODE,),
    "session": (ANY_NODE, ANY_NODE, TEXT),
    "alerted": (ANY_NODE,),
}


# What a value of each declared type must be, and how a problem names it.
# A list type and a tuple type each take a list or a tuple, as scenario
# files and code build them differently.
_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "a bool"),
    str: (str, "a string"),
    list: ((list, tuple), "a list"),
    tuple: ((list, tuple), "a tuple"),
    set: ((set, frozenset), "a set"),
    dict: (dict, "a dict"),
}


def _is(value, types) -> bool:
    """isinstance, except that a bool is of no type but bool."""
    return isinstance(value, types) and (type(value) is not bool or types is bool)


# Each spec class reachable from Scenario -> a (field, check) pair per
# field, compiled once from its annotations.  check(value) is None when a
# value is of the field's declared type, and otherwise lists what is wrong
# as (path below it, problem) pairs.
SHAPES: dict[type, tuple] = {}


def _shape(kind):
    """The check of a value declared of type `kind`."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union and args[1:] == (type(None),):  # Optional[T]
        inner = _shape(args[0])
        return lambda value: None if value is None else inner(value)
    if is_dataclass(kind):
        hints = get_type_hints(kind)
        SHAPES[kind] = table = tuple((f.name, _shape(hints[f.name])) for f in dc_fields(kind))

        def check(value):
            if not isinstance(value, kind):
                return [("", f"must be a {kind.__name__}, not {value!r}")]
            # A value that fits costs one check per part; paths are
            # formatted only where a part does not fit.
            for name, field_check in table:
                if field_check(getattr(value, name)):
                    return [
                        (f".{name}{path}", problem)
                        for name, field_check in table
                        for path, problem in field_check(getattr(value, name)) or ()
                    ]

        return check
    types, what = _TYPES[origin or kind]
    if not args:
        return lambda value: None if _is(value, types) else [("", f"must be {what}, not {value!r}")]
    item_check = _shape(args[0])

    def check(value):
        if not isinstance(value, types):
            return [("", f"must be {what}, not {value!r}")]
        if any(map(item_check, value)):
            return [
                (f"[{i}]{path}", problem)
                for i, item in enumerate(value)
                for path, problem in item_check(item) or ()
            ]

    return check


_shape(Scenario)  # fills SHAPES

# The least value of each integer parameter, below which the run would
# divide by it, crash, or run with no radio hop, no liveness or a join that
# asks for no secret; a freshness window and a duration may be 0.
_PARAM_LEAST = {name: 1 for name, kind in get_type_hints(SimParams).items() if kind in (int, Optional[int])}
_PARAM_LEAST.update(freshness_window=0, duration=0)


def _adversary_arg_problems(adv: AdversarySpec) -> list:
    """What is wrong with one adversary's `key=value` arguments, read over
    its behavior's defaults."""
    if adv.kind not in BEHAVIORS:
        return [f"unknown behavior {adv.kind!r}"]
    # A behavior reads the arguments its BEHAVIORS row names, each of the
    # type of its default (any, for a default of None); `modify_field` also
    # reads `field` and `op`, strings with no default.
    reads = {key: type(default) for key, default in BEHAVIORS[adv.kind].items()}
    if adv.kind == "modify_field":
        reads.update(field=str, op=str)
    problems = [f"{adv.kind} reads no argument {key!r}" for key in adv.args if key not in reads]
    args = adv.settings
    mistyped = [
        f"{adv.kind} {key} must be {_TYPES[kind][1]}, not {args[key]!r}"
        for key, kind in reads.items()
        if key in args and kind in _TYPES and not _is(args[key], _TYPES[kind][0])
    ]
    if mistyped:
        return problems + mistyped
    if adv.kind == "drop_probabilistic" and not 0.0 <= args["p"] <= 1.0:
        problems.append("drop probability must be within [0, 1]")
    elif adv.kind == "replay" and args["delay"] < 0:
        problems.append(f"replay delay must be a non-negative integer, not {args['delay']!r}")
    elif adv.kind == "impersonate":
        if args["strategy"] not in ("replay", "random"):
            problems.append(f"impersonate strategy must be replay or random, not {args['strategy']!r}")
        if args["modulus"] < 4:
            problems.append(f"impersonate modulus must be an integer of at least 4, not {args['modulus']!r}")
    elif adv.kind == "modify_field":
        for key in ("field", "op"):
            if key not in args:
                problems.append(f"modify_field needs {key}=")
        fieldname, op, value = args.get("field"), args.get("op"), args["value"]
        if op is not None and op not in MUTATION_OPS:
            problems.append(f"unknown modify_field op {op!r}")
        elif op in VALUE_OPS and value is None:
            problems.append(f"modify_field op {op} needs value=")
        if fieldname is not None and fieldname not in HEADER_FIELDS:
            problems.append(f"modify_field field {fieldname!r} names no message field")
        elif fieldname is not None and op in MUTATION_OPS:
            wire_type = FIELD_TYPES[fieldname]
            if wire_type not in MUTATION_OPS[op]:
                problems.append(f"modify_field op {op} does not apply to {fieldname}, whose type is {wire_type}")
            elif op in VALUE_OPS and value is not None:
                if wire_type == "int" and not _is(value, int):
                    problems.append(f"modify_field value {value!r} for int field {fieldname} is not an integer")
                elif wire_type == "name" and not NAME_RE.fullmatch(str(value)):
                    problems.append(f"modify_field value {value!r} for name field {fieldname} is not a name")
    return problems


def _argument_problems(what: str, word: str, args: tuple, table: dict, names, adversarial, groups) -> list:
    """What is wrong with one script action or expectation (`what`, of kind
    `word`): a kind its `table` lacks, or arguments that do not fit the
    roles of its row."""
    if word not in table:
        return [f"unknown {what} {word!r}"]
    roles = table[word]
    required = sum(role != OPTIONAL_TEXT for role in roles)
    if not required <= len(args) <= len(roles):
        count = required if required == len(roles) else f"{required} or {len(roles)}"
        return [f"{what} {word} expects {count} arguments"]
    problems = []
    for role, arg in zip(roles, args):
        if role in (TEXT, OPTIONAL_TEXT) or (role == NODE_OR_ALL and arg == BROADCAST):
            continue
        if role == GROUP:
            if arg not in groups:
                problems.append(f"{what} {word}: unknown group {arg!r}")
        elif arg not in names:
            problems.append(f"{what} {word}: unknown node {arg!r}")
        elif role == PROTOCOL_NODE and arg in adversarial:
            problems.append(f"{what} {word}: {arg!r} is adversarial, not a protocol node")
        elif role == ADVERSARIAL_NODE and arg not in adversarial:
            problems.append(f"{what} {word}: {arg!r} is not an adversarial node")
    return problems


def validate_scenario(scenario: Scenario) -> list:
    """What is wrong with a scenario, as a list of problems.  Each field is
    first checked against its declared type (:data:`SHAPES`); a scenario of
    the wrong shape is reported as that alone, and otherwise the bounds,
    the name rules and the references are checked."""
    problems = [
        f"{name}{path} {problem}"
        for name, check in SHAPES[Scenario]
        for path, problem in check(getattr(scenario, name)) or ()
    ]
    if problems:
        return problems
    # Simulation.__init__ packs the seed into 8 signed bytes.
    if not -(2**63) <= scenario.seed < 2**63:
        problems.append(f"seed must be an integer within signed 64 bits, not {scenario.seed!r}")
    if scenario.provider_name not in PROVIDERS:
        problems.append(f"unknown crypto provider {scenario.provider_name!r}")
    problems += [f"unknown fault {fault!r}" for fault in sorted(scenario.faults - FAULTS)]
    names = set()
    for spec in scenario.nodes:
        if spec.name in names:
            problems.append(f"duplicate node name {spec.name!r}")
        names.add(spec.name)
        if not NAME_RE.fullmatch(spec.name):
            problems.append(f"node name {spec.name!r} must be alphanumeric/underscore/dot")
        if not spec.trace:
            problems.append(f"node {spec.name}: empty position trace")
        for point in spec.trace:
            # One check per tick of a trace, kept as cheap as unpacking it.
            try:
                x, y = point
                finite = math.isfinite(x) and math.isfinite(y)
            except (TypeError, ValueError, OverflowError):  # an int too large for a float overflows
                finite = False
            if not finite:
                problems.append(f"node {spec.name}: trace point {point!r} is not an (x, y) pair of finite numbers")
                break
        if not 0.0 <= spec.battery <= 1.0:
            problems.append(f"node {spec.name}: battery must be within [0, 1], not {spec.battery!r}")
    adversarial = set()  # the nodes an adversary is placed on
    taken = set()  # (placement kind, set of its ends) of each adversary
    for i, adv in enumerate(scenario.adversaries):
        kind, *ends = adv.placement or (None,)
        if kind not in PLACEMENTS:
            problems.append(f"adversary {i}: unknown placement kind {kind!r}")
        elif 1 + len(ends) != PLACEMENTS[kind]:
            where = tuple(adv.placement)
            problems.append(f"adversary {i}: placement {where!r} is neither ('node', NAME) nor ('link', U, V)")
        else:
            problems += [f"adversary {i}: unknown node {end!r}" for end in ends if end not in names]
            if len(set(ends)) < len(ends):
                problems.append(f"adversary {i}: link {'-'.join(ends)} joins a node to itself")
            elif (kind, frozenset(ends)) in taken:
                problems.append(f"adversary {i}: {kind} {'-'.join(ends)} already has an adversary")
            taken.add((kind, frozenset(ends)))
            if kind == "node":
                adversarial.add(ends[0])
        problems += [f"adversary {i}: {problem}" for problem in _adversary_arg_problems(adv)]
    grouped = set()
    group_ids = set()
    for spec in scenario.groups:
        if spec.group_id in group_ids:
            problems.append(f"duplicate group id {spec.group_id!r}")
        if not NAME_RE.fullmatch(spec.group_id):
            problems.append(f"group id {spec.group_id!r} must be alphanumeric/underscore/dot")
        group_ids.add(spec.group_id)
        if not spec.members:
            problems.append(f"group {spec.group_id}: needs at least one member")
        listed = set()
        for member in spec.members:
            if member in listed:
                problems.append(f"group {spec.group_id}: lists member {member} twice")
                continue
            listed.add(member)
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
        replace(scenario.weights)  # WeightConfig checks itself; this catches one built around that
    except ValueError as exc:
        problems.append(str(exc))
    params = scenario.params
    if not 0 < params.radio_radius <= sys.float_info.max:  # an int too large for a float is not finite
        problems.append(f"radio_radius must be finite and positive, not {params.radio_radius!r}")
    for name, least in _PARAM_LEAST.items():
        value = getattr(params, name)
        if value is not None and value < least:
            bound = "a non-negative integer" if least == 0 else "an integer of at least 1"
            problems.append(f"{name} must be {bound}, not {value!r}")
    if not 0.0 <= params.trust_initial <= 1.0:
        problems.append(f"trust_initial must be within [0, 1], not {params.trust_initial!r}")
    duration, last_tick = params.duration, 0
    for action in scenario.script:
        if action.tick < last_tick:
            problems.append(f"script time {action.tick} decreases (after {last_tick})")
        last_tick = max(last_tick, action.tick)
        if duration is not None and action.tick > duration:
            problems.append(f"script time {action.tick} is after the duration {duration}, so it would never run")
        problems += _argument_problems("action", action.op, action.args, ACTIONS, names, adversarial, group_ids)
    for expect in scenario.expectations:
        problems += _argument_problems(
            "expectation", expect.kind, expect.args, EXPECTATIONS, names, adversarial, group_ids
        )
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


@dataclass
class RunRegistry:
    """Auditor-side record of the run: provider, principals, key material
    and expectations.

    Never part of the wire traffic; holding it is what lets the auditor
    attempt decryptions on behalf of every principal.
    """

    provider_name: str = "test_double"
    keypairs: dict = field(default_factory=dict)
    secrets: list = field(default_factory=list)  # (tick, owner, label tuple, bytes); see Ctx.secret
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
# Pairs whose value the auditor reads as a count, written as `str(int)` does.
_COUNT_PAIRS = ("epoch", "hops")
_COUNT = re.compile(r"0|[1-9][0-9]*")


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
        if equals and name in _COUNT_PAIRS and not _COUNT.fullmatch(value):
            raise ValueError(f"detail {text!r} has a part {part!r} whose value is not a decimal count")
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
    kind: str  # a behavior of node.BEHAVIORS
    ends: frozenset  # the two nodes of its link
    settings: dict  # its arguments over its behavior's defaults
    rng: random.Random
    outbox: list = field(default_factory=list)  # (due, envelope, recipient)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class Simulation:
    def __init__(self, scenario: Scenario):
        problems = validate_scenario(scenario)
        if problems:
            raise SimulationError(*problems)
        self.scenario = scenario
        self.params = scenario.params
        self.provider = make_provider(scenario.provider_name)
        self.now = 0
        self._ran = False
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

        authority_rng = rng_for("authority")
        self.authority = CertificateAuthority(self.provider, authority_rng)

        # name -> the adversary placed at that node; validation allows one.
        placed = {adv.placement[1]: adv for adv in scenario.adversaries if adv.placement[0] == "node"}
        registry = self.log.registry
        registry.provider_name = scenario.provider_name
        registry.expectations = list(scenario.expectations)
        registry.node_names = sorted(self.specs)
        registry.adversary_names = sorted(placed)

        publics = {}
        keypairs = {}
        for name in registry.node_names:
            keypairs[name] = self.provider.generate_keypair(rng_for(f"key:{name}"))
            publics[name] = keypairs[name].public
        registry.keypairs = keypairs

        self.nodes: dict[str, object] = {}  # in sorted name order
        for name in registry.node_names:
            spec = placed.get(name)
            if spec is not None:
                self.nodes[name] = AdversaryNode(
                    name, keypairs[name], self.provider, rng_for(f"node:{name}"), spec.kind, spec.settings, publics
                )
            else:
                self.nodes[name] = ProtocolNode(
                    name,
                    keypairs[name],
                    self.authority.issue(name, keypairs[name].public),
                    self.provider,
                    rng_for(f"node:{name}"),
                    scenario.params,
                )
        self.taps = [
            LinkTap(f"tap{i}", adv.kind, frozenset(adv.placement[1:]), adv.settings, rng_for(f"tap:{i}"))
            for i, adv in enumerate(scenario.adversaries)
            if adv.placement[0] == "link"
        ]
        registry.adversary_names.extend(tap.name for tap in self.taps)
        # One step context per node for the run; see runtime.py.
        self.contexts = {name: Ctx(name, 0, node.rng, self.provider) for name, node in self.nodes.items()}
        # Nodes that never relay, all adversaries but stealth relays: no node
        # changes its behaviour during a run.
        self._no_relay = frozenset(
            name for name, node in self.nodes.items()
            if isinstance(node, AdversaryNode) and node.behavior != STEALTH_RELAY
        )

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
        events = self.log.events
        events.append(SimEvent(self.now, len(events), kind, str(actor), recipient, about, digest, parts))

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
        """The tap on the link `a`-`b`, either way; a leader's unicast to
        itself crosses the hop `(a, a)`, which is no tap's link."""
        for tap in self.taps:
            if tap.ends == {a, b}:
                return tap
        return None

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
        parts = (_KIND_NAMES[message.kind], ("to", to), ("ch", envelope.channel), tx)
        self._log("send", sender, parts, message.encoded)
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
        """Walk an addressed message along its path once, a tick a hop.  A
        hop's tap acts on what reaches it (what an intercepting tap passes on
        arrives a tick later), then an adversarial relay at its far end
        overhears what arrives.  Nothing is scheduled past an eaten message."""
        target = envelope.to
        node = self.nodes.get(target)
        alive = node is not None and node.alive
        path = self._radio_path(envelope.sender, target) if alive else None
        if path is None:
            self._log("drop", envelope.sender, ("out_of_range" if alive else "dead", tx), recipient=target)
            self._overhear(envelope, tx)
            return
        nodes, taps = self.nodes, self.taps
        carried = envelope
        arrive = now = self.now
        for u, v in zip(path, path[1:]):
            arrive += 1
            tap = self._tap_for(u, v) if taps else None
            if tap is not None:
                if tap.kind == "replay":
                    self._schedule(arrive, carried, tap.name, u, ("overheard", ("hops", str(arrive - now)), tx))
                    tap.outbox.append((arrive + tap.settings["delay"], carried, target))
                else:
                    self._schedule(arrive, carried, tap.name, u, ("intercepted", ("hops", str(arrive - now)), tx))
                    passed = intercept(tap.kind, tap.settings, carried.message, tap.rng)
                    if passed is None:
                        carried = None
                        break
                    carried = replace(carried, message=passed)
                    arrive += 1
            if v != target and isinstance(nodes[v], AdversaryNode):
                self._schedule(arrive, carried, v, u, ("overheard", ("hops", str(arrive - now)), tx))
        # Each node on the path is reached by the walk, not by overhearing.
        self._overhear(envelope, tx, path)
        if carried is not None:
            self._schedule(arrive, carried, target, envelope.sender, (("hops", str(arrive - now)), tx))

    def _dispatch_radio(self, envelope: Envelope, recipient: str, tx: tuple) -> None:
        tap = self._tap_for(envelope.sender, recipient) if self.taps else None
        if tap is None:
            self._schedule(self.now + 1, envelope, recipient, envelope.sender, (tx,))
            return
        if tap.kind == "replay":
            # A passive tap: traffic flows normally, a copy is re-emitted later.
            self._schedule(self.now + 1, envelope, recipient, envelope.sender, (tx,))
            self._schedule(self.now + 1, envelope, tap.name, envelope.sender, ("overheard", tx))
            tap.outbox.append((self.now + 1 + tap.settings["delay"], envelope, recipient))
            return
        self._schedule(self.now + 1, envelope, tap.name, envelope.sender, ("intercepted", tx))
        passed = intercept(tap.kind, tap.settings, envelope.message, tap.rng)
        if passed is not None:
            tap.outbox.append((self.now + 1, replace(envelope, message=passed), recipient))

    def _drain_taps(self) -> None:
        for tap in self.taps:
            due = [item for item in tap.outbox if item[0] <= self.now]
            tap.outbox = [item for item in tap.outbox if item[0] > self.now]
            for _, envelope, recipient in due:
                tx = self._send(envelope, tap.name, recipient)
                self._schedule(self.now + 1, envelope, recipient, tap.name, (tx,))

    # -- context plumbing ----------------------------------------------------------

    def _step(self, name: str, act, *args) -> None:
        """One step of node `name`: `act(*args, ctx)`, then log and send what
        it noted and emitted."""
        ctx = self.contexts[name]
        ctx.now = self.now
        act(*args, ctx)
        self._flush_pending(name, ctx)

    def _flush_pending(self, name: str, ctx: Ctx) -> None:
        """Flush a step's context unless the step left it empty."""
        if ctx.outbound or ctx.notes or ctx.secrets or ctx.signals:
            self._flush(name, ctx)

    def _flush(self, name: str, ctx: Ctx) -> None:
        """Log and send what a step noted and emitted, and empty its context."""
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
            if isinstance(node, ProtocolNode) and refloods(envelope):
                node.relayed.add(envelope.message.encoded)
            self._transmit(envelope)
        self._signals.extend(ctx.signals)
        ctx.secrets.clear()
        ctx.notes.clear()
        ctx.outbound.clear()
        ctx.signals.clear()

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
            self.params.challenge_rounds,
            faults=set(self.scenario.faults),
            trust_initial=self.params.trust_initial,
        )
        trust_seed = self.last_trust.get(group_id, {})
        for member, value in trust_seed.items():
            node.leader_service.trust[member] = value
        node.leader_last_seen = None
        ctx = self.contexts[name]
        ctx.now = self.now
        members_with_pubs = [
            (m, self.log.registry.keypairs[m].public) for m in sorted(member_names) if m != name
        ]
        node.leader_service.found_group(members_with_pubs, ctx, cause)
        self.group_map[name] = group_id
        self.leaders[group_id] = name
        node.announce(ctx)
        self._flush_pending(name, ctx)

    def _ring_rekey(self) -> None:
        leaders = sorted(name for name in self.leaders.values() if name is not None)
        if not leaders:
            return
        self.ring_version += 1
        pairs = [(name, self.nodes[name].leader_service.ring_secret) for name in leaders]
        key = leader_ring_agree(pairs, self.provider)
        for name in leaders:
            self.nodes[name].ring_key = key
            self.log.registry.secrets.append((self.now, name, ("ring_key", self.ring_version), key))
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

    def _unseat(self, name: str) -> None:
        """Leader `name` leads no more: its trust table seeds its successor's,
        and a group it leaves empty is dissolved."""
        service = self.nodes[name].leader_service
        group = service.group_id
        self.last_trust[group] = dict(service.trust)
        self.leaders[group] = None
        if group not in self.group_map.values():
            self._log("alert", group, ("group_dissolved",))

    # -- script actions ---------------------------------------------------------------

    def _action(self, action: Action) -> None:
        op, args = action.op, action.args
        actor = self.leaders.get(args[0]) if op == "crash_leader" else args[0]
        if actor is None:
            return
        node = self.nodes[actor]
        if not node.alive:
            self._log("alert", actor, ("action_skipped_dead", op))
            return
        if op in ("crash", "crash_leader"):
            node.alive = False
            self._searches = {}
            self.group_map.pop(actor, None)
            self._log("alert", actor, ("node_crashed",))
            if isinstance(node, ProtocolNode) and node.leader_service is not None:
                self._unseat(actor)
        elif op in ("join", "join_via"):
            leader = self.leaders.get(args[1]) if op == "join" else args[1]
            if leader is None:
                self._log("alert", actor, ("join_failed", "no_leader", args[1]))
                return
            self._step(actor, node.member.begin_join, leader)
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
            self._step(actor, node.leader_service.remove_members, [args[1]], "misbehavior")
        elif op == "forged_join":
            leader = self.leaders.get(args[1])
            if leader is not None:
                self._step(actor, node.begin_forged_join, leader)
        elif op == "rogue_session":
            self._step(actor, node.begin_rogue_session, args[1])

    def _leave(self, ctx: Ctx) -> None:
        """Scripted leave: the node announces it, and a leaving leader's group
        is left leaderless until its members notice."""
        node = self.nodes[ctx.name]
        node.announce_leave(ctx)
        self.group_map.pop(ctx.name, None)
        if node.leader_service is not None:
            self._unseat(ctx.name)
            node.leader_service = None

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
        """Run the scenario once and return its log.  A second call raises:
        the first left the nodes, the queue and the log in their final state."""
        if self._ran:
            raise SimulationError("this Simulation has already run; build a new one to run its scenario again")
        self._ran = True
        script = sorted(self.scenario.script, key=lambda a: a.tick)
        last_tick = max((a.tick for a in script), default=0)
        duration = self.params.duration if self.params.duration is not None else last_tick + 40
        self.now = 0
        self._setup()
        pending = list(script)
        nodes, contexts, flush_pending = self.nodes, self.contexts, self._flush_pending
        stepping = [(name, node, contexts[name]) for name, node in nodes.items()]
        for tick in range(duration + 1):
            self.now = tick
            if 0 < tick <= self._last_move:
                self._reach, self._cells, self._searches = {}, None, {}
            while pending and pending[0].tick <= tick:
                self._action(pending.pop(0))
            self._drain_taps()
            for envelope, recipient, via, parts in self.queue.pop(tick, []):
                node = nodes.get(recipient)
                if node is not None and not node.alive:
                    self._log("drop", via, ("dead",) + parts, recipient=recipient)
                    continue
                message = envelope.message
                self._log("deliver", via, (_KIND_NAMES[message.kind],) + parts, message.encoded, recipient=recipient)
                if node is None:
                    continue  # a tap pseudo-principal: logging the delivery is the point
                ctx = contexts[recipient]
                ctx.now = tick
                node.handle(envelope, ctx)
                flush_pending(recipient, ctx)
            for name, node, ctx in stepping:
                if node.alive:
                    ctx.now = tick
                    node.on_tick(ctx)
                    flush_pending(name, ctx)
            if self._signals:
                signaled = dict(self._signals)  # group -> the leader its members lost
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
