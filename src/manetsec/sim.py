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
the shortest live radio path to its addressee at one tick per hop -- the
key management design takes deliverability of addressed control traffic
for granted, so the simulator provides it rather than making every
protocol reimplement relaying.  Relays are chosen by position and liveness
alone, so a placed adversary may lie on the path; it and the link
adversaries on the path see what reaches them, when it does, and pass on
what their behaviour leaves of it.  Adversarially placed nodes within
range of a transmitter overhear addressed traffic.  Leaders additionally
share an out-of-band "ring" channel for leader-to-leader traffic.

Adversaries come in two shapes: a *node* adversary is a placed radio
participant (it hears and transmits like any node, following its scripted
misbehaviour), and a *link* adversary owns the link between two nodes and
intercepts whatever crosses it either way.  What a link adversary passes on
of a broadcast or a unicast stays the sender's transmission; it transmits
only its replays.  Everything an adversary receives is in the log, which is
how the auditor bounds what it could have learned.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import re
import sys
from dataclasses import dataclass, field, is_dataclass, replace
from dataclasses import fields as dc_fields
from itertools import chain
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .crypto import PROVIDERS, make_provider
from .group import TRUST_INITIAL, NodeAttributes, WeightConfig, elect_leader, mobility
from .keymgmt import CertificateAuthority, LeaderKeyService, leader_ring_agree
from .messages import BROADCAST, HEADER_FIELDS, NAME_RE, Envelope, MessageKind
from .messages import encode_message  # noqa: F401 -- kept: perfbench/tracing.py wraps this binding
from .node import BEHAVIORS, AdversaryNode, ProtocolNode, intercept, mutation_problems, refloods
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
# The `ch` part of a send, one shared pair per channel.
_CHANNEL_PARTS = {channel: ("ch", channel) for channel in ("radio", "ring")}


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
    provider_name: str = "test_double"


# The roles an argument of a script action or an expectation can play.
ANY_NODE = "node"
PROTOCOL_NODE = "protocol node"  # a node that is not adversarial
GROUP = "group"
NODE_OR_ALL = "node or *"  # `*` addresses the whole group
TEXT = "text"
OPTIONAL_TEXT = "optional text"  # only ever the last argument

# Each script action with the roles of its arguments, in order.
ACTIONS = {
    "join": (ANY_NODE, GROUP),
    "join_via": (ANY_NODE, ANY_NODE),
    "leave": (PROTOCOL_NODE,),
    "crash": (ANY_NODE,),
    "crash_leader": (GROUP,),
    "discover": (PROTOCOL_NODE, ANY_NODE),
    "send_data": (PROTOCOL_NODE, NODE_OR_ALL, OPTIONAL_TEXT),
    "session": (ANY_NODE, ANY_NODE),
    "expel": (PROTOCOL_NODE, ANY_NODE),
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
    elif adv.kind == "impersonate" and args["strategy"] not in ("replay", "random"):
        problems.append(f"impersonate strategy must be replay or random, not {args['strategy']!r}")
    elif adv.kind == "modify_field":
        problems += [f"modify_field needs {key}=" for key in ("field", "op") if key not in args]
        fieldname = args.get("field")
        if fieldname is not None and fieldname not in HEADER_FIELDS:
            problems.append(f"modify_field field {fieldname!r} names no message field")
            fieldname = None
        if "op" in args:
            problems += mutation_problems(fieldname, args["op"], args["value"])
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
    return problems


def _tap_name(position: int) -> str:
    """The pseudo-principal that runs the link adversary at `position` in a
    scenario's adversaries; `validate_scenario` keeps it from naming a node."""
    return f"tap{position}"


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
            elif _tap_name(i) in names:
                problems.append(f"adversary {i}: its link tap is named {_tap_name(i)!r}, like a node")
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
    # A shorter deadline drops every member before its first beat can arrive.
    deadline, period = params.liveness_deadline, params.heartbeat_period
    if deadline < period:
        problems.append(f"liveness_deadline {deadline} is shorter than the heartbeat_period {period}")
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
        return _principals(self.actor, self.recipient, self.about)

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
        """The event's log line: the reference :meth:`EventLog.to_text` is
        tested against."""
        return f"{self.tick}\t{self.seq}\t{self.kind}\t{self.principals}\t{self.digest}\t{render_detail(self.parts)}"


def _principals(actor: str, recipient: Optional[str], about: str) -> str:
    """An event's principals field: `actor`, `actor>recipient` or `actor:about`."""
    if recipient is not None:
        return f"{actor}>{recipient}"
    if about:
        return f"{actor}:{about}"
    return actor


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
        """The header, each event's :meth:`SimEvent.line` and, for a run that
        completed, the footer.  A tick's text is rendered once, and so is the
        digest-and-detail tail of a run of consecutive events that share one
        parts tuple and one digest: the deliveries of one queued hop, or lines
        read back with one detail text and one digest."""
        lines = [LOG_HEADER]
        append = lines.append
        tick = parts = digest = None
        for event in self.events:
            if event.tick != tick:
                tick = event.tick
                tick_text = f"{tick}"
            if event.parts is not parts or event.digest != digest:
                parts, digest = event.parts, event.digest
                tail = f"{digest}\t{render_detail(parts)}"
            append(f"{tick_text}\t{event.seq}\t{event.kind}\t{_principals(event.actor, event.recipient, event.about)}\t{tail}")
        if self.complete:
            append(LOG_FOOTER)
        append("")
        return "\n".join(lines)

    def payload_blob(self) -> bytes:
        chunks = [PAYLOAD_MAGIC]
        for digest, data in self.payloads.items():
            chunks.append(digest.encode("ascii"))
            chunks.append(len(data).to_bytes(8, "big"))
            chunks.append(data)
        return b"".join(chunks)


# A piece of an event's text: an actor, a recipient, an about, a word, or a
# pair's name or value.  None is empty; an empty about is none.
_PIECE = re.compile(r"[^>:=]+")
# Pairs whose value the auditor reads as a count, written as `str(int)` does.
_COUNT_PAIRS = ("epoch", "hops")
_COUNT = re.compile(r"0|[1-9][0-9]*")
# A digest field: `-` for an event that names no payload, else the payload's
# hash as `Simulation._digest` writes it.
_DIGEST = re.compile(r"-|[0-9a-f]{64}")


def _read_principals(text: str) -> tuple:
    """(actor, recipient, about) of `actor`, `actor>recipient` or
    `actor:about`, and whether they render back to `text`."""
    actor, arrow, recipient = text.partition(">")
    actor, _, about = actor.partition(":")
    if not (
        _PIECE.fullmatch(actor) and (not arrow or _PIECE.fullmatch(recipient)) and (not about or _PIECE.fullmatch(about))
    ):
        raise ValueError(f"principals {text!r} are not actor, actor>recipient or actor:about")
    fields = actor, (recipient if arrow else None), about
    return fields, _principals(*fields) == text


def _read_part(part: str):
    """A detail part: a word, or a `name=value` pair as (name, value)."""
    name, equals, value = part.partition("=")
    if equals and name in _COUNT_PAIRS and not _COUNT.fullmatch(value):
        raise ValueError(f"has a part {part!r} whose value is not a decimal count")
    if not (_PIECE.fullmatch(name) and (not equals or _PIECE.fullmatch(value))):
        raise ValueError(f"has a part {part!r} that is neither a word nor name=value")
    return (name, value) if equals else name


def _read_detail(text: str, read_part) -> tuple:
    """The parts of a `:`-joined detail, each read by `read_part`, and
    whether they render back to `text`."""
    try:
        parts = tuple(map(read_part, text.split(":")))
    except ValueError as exc:
        raise ValueError(f"detail {text!r} {exc}") from None
    return parts, render_detail(parts) == text


def parse_log_text(text: str) -> EventLog:
    """Read a log back into the events that were logged.  A line that does
    not follow the grammar of :class:`SimEvent`, does not render back to
    itself (its :meth:`SimEvent.line` is not the line), has a digest that is
    neither `-` nor 64 lowercase hex digits, or breaks the order of sequence
    numbers or ticks, is rejected with its line number, for the first of
    these it breaks.  A line renders back exactly when each of its fields
    does, so each distinct field is read and checked once per call: every
    line with one detail text is handed one parts tuple."""
    lines = text.splitlines()
    if not lines or lines[0] != LOG_HEADER:
        raise SimulationError("not an event log (bad header)")
    log = EventLog()
    body = lines[1:]
    if body and body[-1] == LOG_FOOTER:
        log.complete = True
        body = body[:-1]
    read_principals = functools.cache(_read_principals)
    read_detail = functools.cache(functools.partial(_read_detail, read_part=functools.cache(_read_part)))
    digests = set()  # the digest fields read so far, each well formed
    events = log.events
    tick_text = None  # the last line's tick field, which rendered back
    for i, line in enumerate(body, start=2):
        fields = line.split("\t")
        if len(fields) != 6:
            raise SimulationError(f"line {i}: expected 6 tab-separated fields")
        tick_field, seq_field, kind, principals, digest, detail = fields
        try:
            if tick_field != tick_text:
                tick = int(tick_field)
            seq = int(seq_field)
        except ValueError as exc:
            raise SimulationError(f"line {i}: bad tick/sequence") from exc
        if kind not in EVENT_KINDS:
            raise SimulationError(f"line {i}: unknown event kind {kind!r}")
        try:
            (actor, recipient, about), principals_back = read_principals(principals)
            parts, detail_back = read_detail(detail)
        except ValueError as exc:
            raise SimulationError(f"line {i}: {exc}") from None
        if not (
            principals_back and detail_back and str(seq) == seq_field and (tick_field == tick_text or str(tick) == tick_field)
        ):
            raise SimulationError(f"line {i}: does not render back to itself")
        tick_text = tick_field
        if digest not in digests:
            if not _DIGEST.fullmatch(digest):
                raise SimulationError(f"line {i}: digest {digest!r} is neither - nor 64 lowercase hex digits")
            digests.add(digest)
        if events:
            last = events[-1]
            if seq <= last.seq:
                raise SimulationError(f"line {i}: sequence {seq} does not follow {last.seq}")
            if tick < last.tick:
                raise SimulationError(f"line {i}: tick {tick} is before tick {last.tick}")
        events.append(SimEvent(tick, seq, kind, actor, recipient, about, digest, parts))
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
    outbox: list = field(default_factory=list)  # its replays: (due, envelope, recipient)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class _Clock:
    """When each node is next stepped: one wakeup per node, by its position
    in the simulation's node order, filed in a bucket per tick (a calendar
    queue in its simplest form).  A lowered wakeup leaves its old entry
    behind in a later bucket, which the run loop skips; a node with nothing
    due has no wakeup (`at` holds infinity)."""

    __slots__ = ("at", "buckets", "floor")

    def __init__(self, count: int):
        self.at: list = [math.inf] * count
        self.buckets: dict[int, list] = {}  # tick -> positions filed for it
        self.floor = 0  # the first tick whose nodes have not been stepped yet

    def lower(self, index: int, tick: Optional[int]) -> None:
        """Wake node `index` no later than `tick` (None: nothing sooner).
        A tick whose nodes have been stepped is past, so the wakeup goes to
        the next one."""
        if tick is None:
            return
        tick = max(tick, self.floor)
        if tick < self.at[index]:
            self.at[index] = tick
            self.buckets.setdefault(tick, []).append(index)


class Simulation:
    # Slots, not an instance dict: a 30th dict attribute cost 3 % of churn's run time.
    __slots__ = (
        "scenario", "params", "provider", "now", "_ran", "_tx", "log", "queue", "specs", "group_map", "leaders",
        "lineage_counters", "last_trust", "dissolved", "ring_version", "_signals", "_traces", "_reach", "_where",
        "_cells", "_blocks", "_side", "_digests", "_searches", "_fanouts", "_opened", "authority", "nodes", "taps",
        "contexts", "adversaries", "crashed", "relayed"
    )

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
        self.dissolved: set = set()  # the groups whose dissolution is logged
        self.ring_version = 0
        self._signals: list = []
        self._traces: list = []  # (name, trace) of every node, in node order; filled by run
        self._where: dict[str, tuple] = {}  # name -> position on the tick _cells was built
        self._side = 0.0
        self._digests: dict[bytes, str] = {}  # logged payload -> its digest, hex
        self._forget_topology()

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
                    name, keypairs[name], self.provider, rng_for(f"node:{name}"), scenario.params, spec.kind,
                    spec.settings, publics
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
            LinkTap(_tap_name(i), adv.kind, frozenset(adv.placement[1:]), adv.settings, rng_for(f"tap:{i}"))
            for i, adv in enumerate(scenario.adversaries)
            if adv.placement[0] == "link"
        ]
        registry.adversary_names.extend(tap.name for tap in self.taps)
        # One step context per node for the run; see runtime.py.
        self.contexts = {name: Ctx(name, 0, node.rng) for name, node in self.nodes.items()}
        # The nodes placed as adversaries: no node changes its behaviour
        # during a run.
        self.adversaries = frozenset(placed)
        self.crashed: set = set()  # the nodes that have crashed
        # Each protocol node's relay record, which only `_flush` writes: the
        # wire bytes of every group broadcast it has sent, its own or a
        # re-flood.  The run loop hands the node no later copy.
        self.relayed = {name: set() for name in self.nodes if name not in self.adversaries}

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
        """Log one event other than a send or a delivery, which `_send` and
        the run loop append themselves.  Its `parts` are text already; `str`
        makes the actor text too (an election signalled for no group logs
        `None`)."""
        digest = "-" if payload is None else self._digest(payload)
        events = self.log.events
        events.append(SimEvent(self.now, len(events), kind, str(actor), recipient, about, digest, parts))

    def _digest(self, payload: bytes) -> str:
        """The hex digest that names a logged payload, hashed and kept for the
        sidecar the first time; a tap's edit is first logged at its delivery."""
        digest = self._digests.get(payload)
        if digest is None:
            digest = self._digests[payload] = self.provider.hash(payload).hex()
            self.log.payloads.setdefault(digest, payload)
        return digest

    def _schedule(self, tick: int, envelope: Envelope, recipients, via: str, parts: tuple) -> None:
        """Queue one transmission hop from `via` to each of `recipients`, in
        their order, as one entry.  `parts` end the detail its deliveries and
        drops log; a delivery's whole detail is built here, once per hop.
        The entry holds `recipients` itself, which may be a sender's reach
        row, so no one writes to it once filed.  A tick's list is looked up
        once, and made only by the tick's first entry."""
        entry = (envelope, via, (_KIND_NAMES[envelope.message.kind],) + parts, recipients)
        filed = self.queue.get(tick)
        if filed is None:
            self.queue[tick] = [entry]
        else:
            filed.append(entry)

    # -- radio ------------------------------------------------------------------

    def _forget_topology(self) -> None:
        """Drop everything worked out from positions and liveness: the cells,
        their blocks, the reach rows, the path searches rooted at addressees
        (with their next hops) and at fanning-out senders, and the addressee
        each sender's first path opened a search at.  The run loop calls it on
        each tick where a node can move, `_action` when a node crashes."""
        self._cells: Optional[dict] = None  # (column, row) -> names in that cell
        self._blocks: dict[tuple, list] = {}  # (column, row) -> sorted names of its 3x3 block
        self._reach: dict[str, list] = {}  # name -> _neighbours row
        # addressee -> its path search: [hops, FIFO queue, head, next hops,
        # the one sender that has walked it, or None once a second has].
        self._searches: dict[str, list] = {}
        self._fanouts: dict[str, list] = {}  # sender -> its fan-out search: [first finders, FIFO queue, head]
        self._opened: dict[str, str] = {}  # sender -> the addressee whose search its first path opened

    def _index_cells(self) -> None:
        """Read every node's position for this tick and file it into square
        cells, so that a node's neighbours lie in the 3x3 block around its
        cell.  The side exceeds the radius by a margin that outweighs the
        rounding of `x / side` (relative to this tick's largest coordinate),
        so two nodes within the radius never land two cells apart, and that
        keeps `x / side` finite however small the radius."""
        now = self.now
        where = {name: trace[now] if now < len(trace) else trace[-1] for name, trace in self._traces}
        extent = max(map(abs, chain.from_iterable(where.values())), default=0.0)
        radius = self.params.radio_radius
        side = radius + (radius + extent) * 1e-9
        cells, floor = {}, math.floor
        for name, (x, y) in where.items():
            key = floor(x / side), floor(y / side)
            cell = cells.get(key)
            if cell is None:
                cells[key] = [name]
            else:
                cell.append(name)
        self._where, self._cells, self._side = where, cells, side

    def _in_range(self, name: str, names: list) -> list:
        """Those of `names` within radio range of `name`, in their order and
        without `name` itself: the simulator's one distance test."""
        where, radius, hypot = self._where, self.params.radio_radius, math.hypot
        x, y = where[name]
        row = []
        for v in names:
            vx, vy = where[v]
            if hypot(x - vx, y - vy) <= radius and v != name:
                row.append(v)
        return row

    def _neighbours(self, name: str) -> list:
        """Sorted names within radio range of `name` this tick, crashed or
        not: positions change only between ticks, crashes at any time, so
        callers check `crashed` themselves.  Every node of a cell shares the
        sorted 3x3 block around it, and a row is that block filtered by one
        `_in_range` call, so it comes out sorted.  A row is never written
        once built: a broadcast may file it as its hearers."""
        row = self._reach.get(name)
        if row is None:
            if self._cells is None:
                self._index_cells()
            x, y = self._where[name]
            side = self._side
            key = column, line = math.floor(x / side), math.floor(y / side)
            block = self._blocks.get(key)
            if block is None:
                cells = self._cells
                block = []
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        block += cells.get((column + dx, line + dy), ())
                block.sort()
                self._blocks[key] = block
            row = self._reach[name] = self._in_range(name, block)
        return row

    def _tap_for(self, a: str, b: str) -> Optional[LinkTap]:
        """The tap on the link `a`-`b`, either way; a leader's unicast to
        itself crosses the hop `(a, a)`, which is no tap's link."""
        for tap in self.taps:
            if tap.ends == {a, b}:
                return tap
        return None

    def _radio_path(self, source: str, target: str) -> Optional[list]:
        """Shortest radio path over live nodes, chosen by position and
        liveness alone: any live node relays, a placed adversary too.  Of
        several, it is the one whose names, read from `source`, sort first.

        Each search is breadth-first over sorted rows in FIFO order, resumed
        where the last call left it and kept while reach and liveness hold
        (`_forget_topology`).  A search rooted at an addressee serves every
        sender toward it: the path walks from `source`, taking at each hop
        the first name in the row that is one hop nearer, and a node's next
        hop is kept once found (every node nearer than it was counted before
        it, so it cannot change).  A sender that opens searches at two
        addressees fans out, as a founding leader does with its REKEYs: one
        search rooted at the sender serves each later addressee with no
        search of its own, and the search its first path opened goes unless
        another sender has walked it.  There the path is the addressee's
        chain of first finders, since FIFO order counts each level in the
        order of the paths that reach it, read from the sender.  No crashed
        node sends, so `source` is live."""
        if target == source or target in self._neighbours(source):
            return [source, target]
        crashed, searches = self.crashed, self._searches
        search = searches.get(target)
        fanout = self._fanouts.get(source) if search is None else None
        if search is None and fanout is None:
            first = self._opened.setdefault(source, target)
            if first == target:
                search = searches[target] = [{target: 0}, [target], 0, {}, source]
            else:  # a second addressee: the sender fans out
                fanout = self._fanouts[source] = [{source: None}, [source], 0]
                kept = searches.get(first)
                if kept is not None and kept[4] == source:
                    del searches[first]
        if fanout is not None:
            finders, queue, head = fanout
            while target not in finders and head < len(queue):
                u = queue[head]
                head += 1
                for v in self._neighbours(u):
                    if v not in finders and v not in crashed:
                        finders[v] = u
                        queue.append(v)
            fanout[2] = head
            if target not in finders:
                return None
            path = [target]
            while (u := finders[path[-1]]) is not None:
                path.append(u)
            path.reverse()
            return path
        if search[4] != source:
            search[4] = None
        hops, queue, head, ahead, _ = search
        while source not in hops and head < len(queue):
            u = queue[head]
            head += 1
            count = hops[u] + 1
            for v in self._neighbours(u):
                if v not in hops and v not in crashed:
                    hops[v] = count
                    queue.append(v)
        search[2] = head
        if source not in hops:
            return None
        path = [source]
        u = source
        while u != target:
            v = ahead.get(u)
            if v is None:
                nearer = hops[u] - 1
                for v in self._neighbours(u):
                    if hops.get(v) == nearer:
                        break
                ahead[u] = v
            path.append(v)
            u = v
        return path

    def _send(self, envelope: Envelope, sender: str, to: str) -> tuple:
        """Number and log one transmission; returns its `("tx", number)`
        part, which every delivery and drop of it shares.  A payload sent
        before has its digest kept, read here; `_digest` hashes a first one."""
        tx = ("tx", str(self._tx))
        self._tx += 1
        message = envelope.message
        encoded = message.encoded
        digest = self._digests.get(encoded)
        if digest is None:
            digest = self._digest(encoded)
        parts = (_KIND_NAMES[message.kind], ("to", to), _CHANNEL_PARTS[envelope.channel], tx)
        events = self.log.events
        events.append(SimEvent(self.now, len(events), "send", sender, None, "", digest, parts))
        return tx

    def _transmit(self, envelope: Envelope) -> None:
        """Send one envelope and queue what it reaches, by its shape.  A ring
        message goes to its leader, or to the sorted peer leaders, a tick
        later.  A radio broadcast reaches the live nodes of the sender's
        reach row (`_neighbours` builds a missing one): before any crash
        that row is its hearer list, filed as it is, since a row is never
        written once built; with link taps, each hearer's copy crosses its
        link on its own (`_dispatch_radio`).  An addressed message is
        `_unicast`."""
        sender, to = envelope.sender, envelope.to
        tx = self._send(envelope, sender, to)
        if envelope.channel == "ring":
            if to == BROADCAST:
                targets = sorted(leader for leader in self.leaders.values() if leader is not None and leader != sender)
            else:
                targets = (to,)
            self._schedule(self.now + 1, envelope, targets, sender, (tx,))
            return
        if to == BROADCAST:
            hearers = self._reach.get(sender)
            if hearers is None:
                hearers = self._neighbours(sender)
            crashed = self.crashed
            if crashed:
                hearers = [name for name in hearers if name not in crashed]
            if self.taps:
                for name in hearers:
                    self._dispatch_radio(envelope, name, tx)
            else:
                self._schedule(self.now + 1, envelope, hearers, sender, (tx,))
            return
        self._unicast(envelope, tx)

    def _overhear(self, envelope: Envelope, tx: tuple, skip=()) -> None:
        """Placed adversaries in range of the transmitter, except those in
        `skip` and those that have crashed, overhear an addressed message."""
        if not self.adversaries:
            return
        for name in self._neighbours(envelope.sender):
            if name in self.adversaries and name not in self.crashed and name not in skip:
                self._schedule(self.now + 1, envelope, (name,), envelope.sender, ("overheard", tx))

    def _unicast(self, envelope: Envelope, tx: tuple) -> None:
        """Walk an addressed message along its path once, a tick a hop.  A
        hop's tap acts on what reaches it (`_tap`); then a placed adversary
        relaying at its far end is logged an `overheard` copy of what
        arrives, and what `intercept` leaves of it goes on with no extra
        tick.  Nothing is scheduled past an eaten message.  In a run with
        no tap and no placed adversary nothing acts on the way and no one
        overhears, so the arrival is filed at once, a tick per hop."""
        target = envelope.to
        alive = target in self.nodes and target not in self.crashed
        path = self._radio_path(envelope.sender, target) if alive else None
        if path is None:
            self._log("drop", envelope.sender, ("out_of_range" if alive else "dead", tx), recipient=target)
            self._overhear(envelope, tx)
            return
        adversaries, taps = self.adversaries, self.taps
        if not (taps or adversaries):
            hops = len(path) - 1
            self._schedule(self.now + hops, envelope, (target,), envelope.sender, (("hops", str(hops)), tx))
            return
        carried = envelope
        arrive = now = self.now
        for u, v in zip(path, path[1:]):
            arrive += 1
            tap = self._tap_for(u, v) if taps else None
            if tap is not None:
                carried, arrive = self._tap(tap, carried, u, arrive, (("hops", str(arrive - now)), tx), target)
                if carried is None:
                    break
            if v != target and v in adversaries:
                self._schedule(arrive, carried, (v,), u, ("overheard", ("hops", str(arrive - now)), tx))
                relay = self.nodes[v]
                passed = intercept(relay.behavior, relay.args, carried.message, relay.rng)
                carried = None if passed is None else replace(carried, message=passed)
                if carried is None:
                    break
        # Each node on the path is reached by the walk, not by overhearing.
        self._overhear(envelope, tx, path)
        if carried is not None:
            self._schedule(arrive, carried, (target,), envelope.sender, (("hops", str(arrive - now)), tx))

    def _dispatch_radio(self, envelope: Envelope, recipient: str, tx: tuple) -> None:
        """One copy of a broadcast to `recipient`, by a unicast hop's rule
        past their link's tap (`_tap`): the tap's copy is queued first, and
        what it passes on keeps the broadcast's `tx`, with `hops=2` if held."""
        sender, arrive, parts = envelope.sender, self.now + 1, (tx,)
        tap = self._tap_for(sender, recipient)
        if tap is not None:
            envelope, at = self._tap(tap, envelope, sender, arrive, parts, recipient)
            if envelope is None:
                return
            if at > arrive:
                arrive, parts = at, (("hops", str(at - self.now)), tx)
        self._schedule(arrive, envelope, (recipient,), sender, parts)

    def _tap(self, tap: LinkTap, envelope: Envelope, via: str, arrive: int, parts: tuple, recipient: str) -> tuple:
        """What `tap` does to `envelope`, reaching it from `via` at tick
        `arrive` on its way to `recipient`; `parts` end its copy's detail.  A
        replay tap logs an `overheard` copy, files a replay for `recipient`
        (a tap's only send) and lets the envelope flow on; any other logs an
        `intercepted` copy and passes on what `intercept` leaves a tick
        later.  Returns what goes on (None when eaten) and the tick it goes on."""
        if tap.kind == "replay":
            self._schedule(arrive, envelope, (tap.name,), via, ("overheard",) + parts)
            tap.outbox.append((arrive + tap.settings["delay"], envelope, recipient))
            return envelope, arrive
        self._schedule(arrive, envelope, (tap.name,), via, ("intercepted",) + parts)
        passed = intercept(tap.kind, tap.settings, envelope.message, tap.rng)
        return (None if passed is None else replace(envelope, message=passed)), arrive + 1

    def _drain_taps(self) -> None:
        for tap in self.taps:
            due = [item for item in tap.outbox if item[0] <= self.now]
            tap.outbox = [item for item in tap.outbox if item[0] > self.now]
            for _, envelope, recipient in due:
                tx = self._send(envelope, tap.name, recipient)
                self._schedule(self.now + 1, envelope, (recipient,), tap.name, (tx,))

    # -- context plumbing ----------------------------------------------------------

    def _step(self, name: str, act, *args) -> None:
        """One step of node `name`: `act(*args, ctx)`, then log and send what
        it noted and emitted, and wake the node by its next due tick, this
        one included when its nodes are still to be stepped."""
        ctx = self.contexts[name]
        ctx.now = self.now
        act(*args, ctx)
        if ctx.outbound or ctx.notes or ctx.secrets or ctx.signals:
            self._flush(name, ctx)
        node = self.nodes[name]
        node.wake_by(node.next_due(self.now - 1))

    def _flush(self, name: str, ctx: Ctx) -> None:
        """Log and send what a step noted and emitted, and empty its context.
        Each list is read only when the step filled it: most steps only emit."""
        if ctx.secrets:
            for label, value in ctx.secrets:
                self.log.registry.secrets.append((self.now, name, label, value))
            ctx.secrets.clear()
        if ctx.notes:
            node = self.nodes[name]
            for note in ctx.notes:
                payload = None if note.message is None else note.message.encoded
                self._log(note.kind, name, note.parts, payload, about=note.about)
                if note.kind == "admit":
                    if name not in self.adversaries and node.leader_service is not None:
                        self.group_map[note.about] = node.leader_service.group_id
                elif note.kind == "remove":
                    self.group_map.pop(note.about, None)
            ctx.notes.clear()
        if ctx.outbound:
            relayed = self.relayed.get(name)  # None for a placed adversary
            for envelope in ctx.outbound:
                if relayed is not None and refloods(envelope):
                    relayed.add(envelope.message.encoded)
                self._transmit(envelope)
            ctx.outbound.clear()
        if ctx.signals:
            self._signals.extend(ctx.signals)
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
            self.params,
        )
        trust_seed = self.last_trust.get(group_id, {})
        for member, value in trust_seed.items():
            node.leader_service.trust[member] = value
        node.leader_last_seen = None
        members_with_pubs = [(m, self.log.registry.keypairs[m].public) for m in member_names]
        self.group_map[name] = group_id
        self.leaders[group_id] = name
        self._step(name, self._found, members_with_pubs, cause)

    def _found(self, members: list, cause: str, ctx: Ctx) -> None:
        """A new leader founds its group with `members` and announces itself."""
        node = self.nodes[ctx.name]
        node.leader_service.found_group(members, ctx, cause)
        node.announce(ctx)

    def _ring_rekey(self) -> None:
        leaders = sorted(name for name in self.leaders.values() if name is not None)
        if not leaders:
            return
        self.ring_version += 1
        if len(leaders) == 1:  # a lone leader has no one to share a ring key with
            self.nodes[leaders[0]].ring_key = None
        else:
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
            if group == group_id and name != departed and name not in self.crashed
        ]
        if not candidates:
            self.leaders[group_id] = None
            if group_id not in self.dissolved:  # one dissolution, one alert
                self.dissolved.add(group_id)
                self._log("alert", group_id, ("group_dissolved",))
            return
        trust_table = self.last_trust.get(group_id, {})
        winner = elect_leader(self._attrs(candidates, trust_table), self.scenario.weights)
        self._log("elect", winner, (("group", group_id), ("cause", "leader_departure")))
        self._make_leader(winner, group_id, candidates, "election")
        self._ring_rekey()

    def _unseat(self, name: str) -> None:
        """Leader `name` leads no more: its trust table seeds its successor's,
        and a group it leaves empty is dissolved (an election with no candidate)."""
        service = self.nodes[name].leader_service
        group = service.group_id
        self.last_trust[group] = dict(service.trust)
        self.leaders[group] = None
        if group not in self.group_map.values():
            self._election(group, name)

    # -- script actions ---------------------------------------------------------------

    def _action(self, action: Action) -> None:
        op, args = action.op, action.args
        actor = self.leaders.get(args[0]) if op == "crash_leader" else args[0]
        if actor is None:
            return
        if actor in self.crashed:
            self._log("alert", actor, ("action_skipped_dead", op))
            return
        node = self.nodes[actor]
        if op in ("crash", "crash_leader"):
            self.crashed.add(actor)
            self._forget_topology()
            self.group_map.pop(actor, None)
            self._log("alert", actor, ("node_crashed",))
            if actor not in self.adversaries and node.leader_service is not None:
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
            self._make_leader(leader, spec.group_id, spec.members, "founding")
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
        clock = _Clock(len(self.nodes))
        for index, node in enumerate(self.nodes.values()):
            node.wake_by = functools.partial(clock.lower, index)
        self._traces = [(name, self.specs[name].trace) for name in self.nodes]
        self._setup()
        pending = list(script)
        nodes, contexts, log, flush = self.nodes, self.contexts, self._log, self._flush
        crashed, relayed, events, digests = self.crashed, self.relayed, self.log.events, self._digests
        stepping = [(name, node, contexts[name]) for name, node in nodes.items()]
        wake_at, wakeups = clock.at, clock.buckets
        # Positions change only on ticks 1 .. last_move, so reach rows built
        # on the last of those stay valid after it.
        last_move = max((len(spec.trace) for spec in self.scenario.nodes), default=1) - 1
        for tick in range(duration + 1):
            self.now = tick
            if 0 < tick <= last_move:
                self._forget_topology()
            while pending and pending[0].tick <= tick:
                self._action(pending.pop(0))
            self._drain_taps()
            for envelope, via, detail, recipients in self.queue.pop(tick, ()):
                encoded = envelope.message.encoded
                # Its send logged it, unless a tap changed it on the way.
                digest = digests.get(encoded)
                reflooded = refloods(envelope)
                for recipient in recipients:
                    if recipient in crashed:
                        log("drop", via, ("dead",) + detail[1:], None, recipient)
                        continue
                    if digest is None:
                        digest = self._digest(encoded)
                    events.append(SimEvent(tick, len(events), "deliver", via, recipient, "", digest, detail))
                    if reflooded and encoded in relayed.get(recipient, ()):
                        continue  # a protocol node is handed each group broadcast once
                    node = nodes.get(recipient)
                    if node is None:
                        continue  # a tap pseudo-principal: logging the delivery is the point
                    ctx = contexts[recipient]
                    ctx.now = tick
                    node.handle(envelope, ctx)
                    # Only a handling that left something is flushed.
                    if ctx.outbound or ctx.notes or ctx.secrets or ctx.signals:
                        flush(recipient, ctx)
            # The wake loop: step each live node due this tick, in node
            # order, flush the step if it left something, and file its next
            # wakeup.  An entry whose wakeup has moved since it was filed,
            # or a repeat of one, is skipped.
            due = wakeups.pop(tick, None)
            clock.floor = tick + 1
            if due:
                due.sort()
                for index in due:
                    if wake_at[index] != tick:
                        continue
                    name, node, ctx = stepping[index]
                    if name not in crashed:
                        ctx.now = tick
                        node.on_tick(ctx)
                        if ctx.outbound or ctx.notes or ctx.secrets or ctx.signals:
                            flush(name, ctx)
                        wake_at[index] = math.inf
                        clock.lower(index, node.next_due(tick))
            if self._signals:
                signaled = dict(self._signals)  # group -> the leader its members lost
                self._signals = []
                for group_id in sorted(signaled):
                    current = self.leaders.get(group_id)
                    if current is not None and current not in crashed:
                        continue  # already re-elected
                    self._election(group_id, signaled[group_id])
        self.log.complete = True
        return self.log


def run(scenario: Scenario) -> EventLog:
    """Execute a scenario and return its replayable event log."""
    return Simulation(scenario).run()
