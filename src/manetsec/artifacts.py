"""A run's artifacts: the event log and its payload sidecar, which the run
writes, and the registry of principals and key material the auditor holds
beside them.

One module owns their format.  The writer (:meth:`EventLog.to_text`,
:meth:`EventLog.payload_blob`) and the readers (:func:`parse_log_text`,
:func:`parse_payload_blob`) live here, next to the event they write and
read, and import no other module of the program: the simulator writes
these artifacts and the auditor reads them, and neither has to load the
other to do so.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Optional

LOG_HEADER = "#manetsec-log v1"
LOG_FOOTER = "#complete"
PAYLOAD_MAGIC = b"MSPAY1\n"
EVENT_KINDS = frozenset(
    ("send", "deliver", "drop", "verdict", "rekey", "admit", "remove", "elect", "alert")
)


class SimulationError(Exception):
    """Scenario invalid or log unusable; `problems` lists what is wrong."""

    def __init__(self, *problems):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


def render_detail(parts) -> str:
    """The `:`-joined text of detail parts, each pair as `name=value`."""
    return ":".join([part if isinstance(part, str) else "=".join(part) for part in parts])


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
    secrets: list = field(default_factory=list)  # (tick, owner, label tuple, bytes); see runtime.Ctx.secret
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
# Pairs whose value is a count, written as `str(int)` does: an epoch, a hop
# count or a transmission's number.
_COUNT_PAIRS = ("epoch", "hops", "tx")
_COUNT = re.compile(r"0|[1-9][0-9]*")
# A digest field: `-` for an event that names no payload, else the payload's
# hash as `sim.Simulation._digest` writes it.
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


def shape_problem(kind: str, addressed: bool, parts: tuple) -> str:
    """What keeps an event, `addressed` when it names a recipient, from its
    kind's shape, or "" when nothing does.  A `send` names no recipient and
    its parts are exactly `KIND:to=NAME:ch=CHANNEL:tx=N`.  A `deliver`, and
    a `drop` that names a recipient, is a transmission outcome: one or more
    words, at most one `hops` pair, then its `tx` pair.  Every other event
    is a note, such as a routing `drop`, and names no `tx` or `hops`."""
    names = [None if isinstance(part, str) else part[0] for part in parts]
    if kind == "send":
        if addressed:
            return "a send names no recipient"
        if names != [None, "to", "ch", "tx"]:
            return f"send detail {render_detail(parts)!r} is not KIND:to=NAME:ch=CHANNEL:tx=N"
    elif kind == "deliver" and not addressed:
        return "a deliver names its recipient (actor>recipient)"
    elif kind == "deliver" or (kind == "drop" and addressed):
        words = names[:-2] if names[-2:-1] == ["hops"] else names[:-1]
        if names[-1:] != ["tx"] or set(words) != {None}:
            return f"{kind} detail {render_detail(parts)!r} is not an outcome's: words, at most one hops=N, then tx=N"
    elif "tx" in names or "hops" in names:
        return f"{kind} detail {render_detail(parts)!r} is a note's, which names no tx or hops"
    return ""


def parse_log_text(text: str) -> EventLog:
    """Read a log back into the events that were logged.  A line that does
    not follow the grammar of :class:`SimEvent`, does not render back to
    itself (its :meth:`SimEvent.line` is not the line), has a digest that is
    neither `-` nor 64 lowercase hex digits, breaks its kind's shape
    (:func:`shape_problem`), has a sequence number other than its event's
    position (counted from 0), or has a tick before the last line's (below
    0 on the first line) is rejected with its line number, for the first of
    these it breaks: the reader takes only what the writer writes.  A line
    renders back exactly when each of its fields does, so each distinct
    field (and shape) is read and checked once per call: every line with
    one detail text is handed one parts tuple."""
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
    check_shape = functools.cache(shape_problem)
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
        problem = check_shape(kind, recipient is not None, parts)
        if problem:
            raise SimulationError(f"line {i}: {problem}")
        if seq != len(events):
            raise SimulationError(f"line {i}: sequence {seq} is not the event's position {len(events)}")
        if events:
            if tick < events[-1].tick:
                raise SimulationError(f"line {i}: tick {tick} is before tick {events[-1].tick}")
        elif tick < 0:
            raise SimulationError(f"line {i}: tick {tick} is negative")
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
