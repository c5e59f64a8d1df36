"""Wire format for every protocol message the simulator delivers.

A message is a one-octet kind tag followed by the canonical encoding of the
kind's payload fields, in the fixed order listed in ``_FIELDS``.  Encrypted
parts travel as a single ``sealed`` octet field whose plaintext is itself a
canonical encoding, laid out as ``_SEALED`` lists.  Every field name, in a
header or in a sealed plaintext, has one wire type (``FIELD_TYPES``), held
in exact Python types as ``encoding.encode`` takes them; a ``Message``
checks its fields against it once, when :func:`msg` or
:func:`decode_message` builds it, and :func:`open_sealed` checks a plaintext
the same way.  Because every field passed its check, :func:`encode_message`
and :func:`seal_batch` send each field straight to its wire type's encoder
in :mod:`~manetsec.encoding` (int, str or name, bytes; a list goes through
the general encoder), which yields exactly ``encoding.encode`` of the
values.  Radio metadata (who transmitted to whom, and when) is not part of
the payload bytes -- the event log records it separately.

A founding seals one directory (the ``rows`` field) into every member's
plaintext, so :func:`open_sealed` and :func:`sealed_readings` read it
through a memo keyed by the whole field that the caller owns: a run's
provider's ``directories``, or the audit's own, so none outlives its run.

Because the kind tag comes first, a reader can tell a payload's kind without
decoding it.  ``SEALED_KINDS`` names the kinds that carry a ``sealed`` field;
the auditor reads a payload's tag first and decodes only those kinds (and
the request behind each accepted route), since no other kind holds anything
a principal could open.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from types import MappingProxyType
from typing import NamedTuple, Optional

from . import encoding
from .crypto import DecryptionError


class MessageKind(IntEnum):
    JOIN_REQ = 0x01
    ZK_PARAMS = 0x02
    ZK_CHALLENGE = 0x03
    ZK_RESPONSE = 0x04
    CERT = 0x05
    ADMIT = 0x06
    NONCE = 0x07
    MEMBER_SET = 0x08
    REKEY = 0x09
    SESSION_1 = 0x0A
    SESSION_2 = 0x0B
    SESSION_3 = 0x0C
    SESSION_4 = 0x0D
    PUBKEY_QUERY = 0x0E
    PUBKEY_ANSWER = 0x0F
    MALICIOUS_ALERT = 0x10
    HEARTBEAT = 0x11
    LEADER_ANNOUNCE = 0x12
    RREQ = 0x13
    RREP = 0x14
    DATA = 0x15
    LEAVE = 0x16
    GROUP_REQ = 0x17
    GROUP_REP = 0x18
    GROUP_NEG = 0x19


# Each check takes a value of the exact wire type alone, as `encoding.encode`
# does: a bool, an int enum or another subclass is refused.
def _is_int(value) -> bool:
    return type(value) is int and value >= 0


def _is_str(value) -> bool:
    return type(value) is str


# A node or group name, as scenarios give them.  Names are written into the
# event log, so a name field never carries the log's separators, a tab or a
# line break.
NAME_RE = re.compile(r"[A-Za-z0-9_.]+")


def _is_name(value) -> bool:
    return type(value) is str and NAME_RE.fullmatch(value) is not None


def _is_bytes(value) -> bool:
    return type(value) is bytes


def _is_row(row) -> bool:
    return type(row) in (list, tuple) and len(row) == 2 and type(row[0]) is str and type(row[1]) is bytes


def _list_of(check):
    return lambda value: type(value) in (list, tuple) and all(map(check, value))


# Wire type -> the check a value of that type passes.  Integers are
# non-negative; directory rows are [member name, public key] pairs.
_TYPE_CHECKS = {
    "int": _is_int,
    "str": _is_str,
    "name": _is_name,
    "bytes": _is_bytes,
    "list[int]": _list_of(_is_int),
    "list[name]": _list_of(_is_name),
    "list[bytes]": _list_of(_is_bytes),
    "rows": _list_of(_is_row),
}

# The wire type of every field name, in message headers and in sealed
# plaintexts alike: a name means the same kind of value wherever it appears.
FIELD_TYPES: dict[str, str] = {
    **dict.fromkeys(("lineage", "mode", "reason", "role", "tag", "text"), "str"),
    **dict.fromkeys(
        ("requester", "join_id", "subject", "group", "initiator", "responder", "accused", "who", "leader",
         "source", "dest", "from_leader", "origin"),
        "name",
    ),
    **dict.fromkeys(
        ("modulus", "square", "epoch", "beat", "seq", "lifetime", "hop", "member_id", "nonce", "nonce2", "t_a",
         "t_b"),
        "int",
    ),
    **dict.fromkeys(
        ("subject_public", "authority_sig", "sealed", "leader_sig", "leader_public", "chain", "member_key",
         "group_key", "session_key", "sig"),
        "bytes",
    ),
    "commitments": "list[int]",
    "challenges": "list[int]",
    "responses": "list[int]",
    "route": "list[name]",
    "sigs": "list[bytes]",
    "rows": "rows",
}

_FIELDS: dict[MessageKind, tuple[str, ...]] = {
    MessageKind.JOIN_REQ: ("requester",),
    MessageKind.ZK_PARAMS: ("join_id", "modulus", "square", "commitments"),
    MessageKind.ZK_CHALLENGE: ("join_id", "challenges"),
    MessageKind.ZK_RESPONSE: ("join_id", "responses"),
    MessageKind.CERT: ("subject", "subject_public", "authority_sig"),
    MessageKind.ADMIT: ("join_id", "sealed"),
    MessageKind.NONCE: ("join_id", "sealed"),
    MessageKind.MEMBER_SET: ("join_id", "sealed"),
    # mode "group": sealed under the previous group key (that key's epoch is
    # in the header); mode "public": sealed to one member's public key.
    MessageKind.REKEY: ("group", "lineage", "epoch", "mode", "sealed"),
    MessageKind.SESSION_1: ("sealed",),
    MessageKind.SESSION_2: ("sealed",),
    MessageKind.SESSION_3: ("sealed",),
    MessageKind.SESSION_4: ("initiator", "responder", "sealed"),
    MessageKind.PUBKEY_QUERY: ("subject",),
    MessageKind.PUBKEY_ANSWER: ("subject", "subject_public", "leader_sig"),
    MessageKind.MALICIOUS_ALERT: ("accused", "reason", "leader_sig"),
    MessageKind.HEARTBEAT: ("who", "role", "group", "beat"),
    MessageKind.LEADER_ANNOUNCE: ("leader", "group", "leader_public"),
    MessageKind.RREQ: ("source", "dest", "seq", "lifetime", "route", "sigs", "chain"),
    MessageKind.RREP: ("source", "dest", "seq", "route", "sigs", "chain"),
    MessageKind.DATA: ("group", "lineage", "epoch", "route", "hop", "sealed"),
    MessageKind.LEAVE: ("who",),
    MessageKind.GROUP_REQ: ("from_leader", "sealed"),
    MessageKind.GROUP_REP: ("from_leader", "sealed"),
    MessageKind.GROUP_NEG: ("from_leader", "sealed"),
}

# Every field name some message kind carries in its header.
HEADER_FIELDS = frozenset(name for names in _FIELDS.values() for name in names)

# How a sealed field is sealed: to the addressee's public key, or under a
# symmetric key both ends hold.
PK = "pk"
SYM = "sym"


class Layout(NamedTuple):
    seal: str  # PK or SYM
    names: tuple  # the plaintext's fields, in wire order


# The plaintext inside each message's `sealed` field, keyed by (kind,
# variant).  A REKEY's variant is its `mode` header.  DATA and the ring
# messages lead with a `tag` field, and the tag is the variant.
_SEALED: dict[tuple, Layout] = {
    (MessageKind.ADMIT, None): Layout(PK, ("leader_public", "member_id", "member_key")),
    (MessageKind.NONCE, None): Layout(SYM, ("nonce",)),
    (MessageKind.MEMBER_SET, None): Layout(SYM, ("nonce", "rows", "group_key", "lineage", "epoch", "group")),
    (MessageKind.REKEY, "group"): Layout(SYM, ("group_key", "epoch", "lineage", "rows")),
    (MessageKind.REKEY, "public"): Layout(
        PK, ("group_key", "epoch", "lineage", "rows", "member_key", "member_id", "leader", "leader_public")
    ),
    (MessageKind.SESSION_1, None): Layout(PK, ("initiator", "responder", "t_a", "sig")),
    (MessageKind.SESSION_2, None): Layout(PK, ("initiator", "responder", "t_a", "t_b", "sig")),
    (MessageKind.SESSION_3, None): Layout(PK, ("t_a", "t_b", "nonce", "session_key")),
    (MessageKind.SESSION_4, None): Layout(SYM, ("nonce", "nonce2")),
    (MessageKind.DATA, "chat"): Layout(SYM, ("tag", "source", "text")),
    (MessageKind.DATA, "route_wanted"): Layout(SYM, ("tag", "requester", "dest", "seq")),
    (MessageKind.DATA, "route_composed"): Layout(SYM, ("tag", "dest", "seq", "route")),
    (MessageKind.DATA, "route_failed"): Layout(SYM, ("tag", "dest", "seq")),
    (MessageKind.GROUP_REQ, "route_query"): Layout(SYM, ("tag", "requester", "dest", "seq", "origin")),
    (MessageKind.GROUP_REP, "route_found"): Layout(SYM, ("tag", "requester", "dest", "seq", "leader", "route")),
    (MessageKind.GROUP_NEG, "route_missing"): Layout(SYM, ("tag", "requester", "dest", "seq", "leader")),
}

# What opening a sealed field can fail with: the seal does not open, or its
# plaintext does not fit the layout.
UNOPENABLE = (DecryptionError, encoding.EncodingError)


def _checks(names: tuple) -> tuple:
    return tuple((name, _TYPE_CHECKS[FIELD_TYPES[name]]) for name in names)


_HEADER_CHECKS = {kind: _checks(names) for kind, names in _FIELDS.items()}
_SEALED_CHECKS = {key: _checks(layout.names) for key, layout in _SEALED.items()}
# Each kind's sealed layout keys in table order, and the seals they use.
_KIND_KEYS = {kind: tuple(key for key in _SEALED if key[0] == kind) for kind, _ in _SEALED}
_KIND_SEALS = {kind: tuple(dict.fromkeys(_SEALED[key].seal for key in keys)) for kind, keys in _KIND_KEYS.items()}
# Layout key -> the position of its directory, for each layout with `rows`.
_ROWS_AT = {key: layout.names.index("rows") for key, layout in _SEALED.items() if "rows" in layout.names}


def _check(what: str, checks: tuple, fields) -> None:
    """Raise EncodingError unless `fields` holds exactly the names in
    `checks`, each of its wire type."""
    if len(fields) != len(checks):
        extra = sorted(set(fields) - {name for name, _ in checks})
        missing = [name for name, _ in checks if name not in fields]
        raise encoding.EncodingError(f"{what} fields do not match (missing={missing}, unknown={extra})")
    for name, check in checks:
        if name not in fields:
            raise encoding.EncodingError(f"{what} lacks field {name!r}")
        if not check(fields[name]):
            raise _mistyped(what, name)


def _mistyped(what: str, name: str) -> encoding.EncodingError:
    return encoding.EncodingError(f"{what} field {name!r} is not {FIELD_TYPES[name]}")


BROADCAST = "*"

# `Message.with_beat` re-encodes a heartbeat's last field alone, so that
# field must be its beat.
if _FIELDS[MessageKind.HEARTBEAT][-1] != "beat":
    raise RuntimeError("a HEARTBEAT's last field must be its beat, which Message.with_beat re-encodes")


class _Encoded:
    """``Message.encoded``: a message's wire bytes, encoded on first read and
    stored on the message, where every later read finds them first (a
    heartbeat built by ``with_beat`` has them stored when it is built)."""

    def __get__(self, message, owner=None):
        if message is None:
            return self
        encoded = message.__dict__["encoded"] = encode_message(message)
        return encoded


@dataclass(frozen=True)
class Message:
    """An immutable payload: its fields are a read-only mapping, checked
    against the kind's names and wire types when the message is built, and
    its wire bytes are encoded on first use and then shared by every reader."""

    kind: MessageKind
    fields: MappingProxyType

    def __post_init__(self):
        _check(self.kind.name, _HEADER_CHECKS[self.kind], self.fields)
        object.__setattr__(self, "fields", MappingProxyType(dict(self.fields)))

    def __getitem__(self, name: str):
        return self.fields[name]

    encoded = _Encoded()

    def __copy__(self) -> "Message":
        return self  # immutable, so a copy may share it

    def __deepcopy__(self, memo) -> "Message":
        return self

    def replace(self, **changes) -> "Message":
        """This message with some fields changed; the fields it keeps passed
        their checks when it was built, so only the changed ones are checked."""
        checks = _HEADER_CHECKS[self.kind]
        _check(self.kind.name, tuple(check for check in checks if check[0] in changes), changes)
        return _holding(self.kind, {**self.fields, **changes})

    def with_hop(self, hop: str, sig: bytes, lifetime: int, chain: bytes) -> "Message":
        """This route request forwarded by `hop`: exactly ``replace(lifetime=
        lifetime, route=route + [hop], sigs=sigs + [sig], chain=chain)``.
        Only the four values it adds are checked; the route and signatures
        it keeps passed their checks when this message was built."""
        if self.kind is not MessageKind.RREQ:
            raise encoding.EncodingError(f"{self.kind.name} is not a route request")
        if not _is_name(hop):
            raise _mistyped("RREQ", "route")
        if not _is_bytes(sig):
            raise _mistyped("RREQ", "sigs")
        if not _is_int(lifetime):
            raise _mistyped("RREQ", "lifetime")
        if not _is_bytes(chain):
            raise _mistyped("RREQ", "chain")
        fields = self.fields
        return _holding(
            self.kind,
            {**fields, "lifetime": lifetime, "route": [*fields["route"], hop], "sigs": [*fields["sigs"], sig],
             "chain": chain},
        )

    def with_beat(self, beat: int) -> "Message":
        """This heartbeat at beat `beat`: exactly ``replace(beat=beat)``.
        Only `beat` is checked, and only it is encoded: the new message's
        bytes are this one's with the last field, the beat, re-encoded."""
        if self.kind is not MessageKind.HEARTBEAT:
            raise encoding.EncodingError(f"{self.kind.name} is not a heartbeat")
        if not _is_int(beat):
            raise _mistyped("HEARTBEAT", "beat")
        fields = self.fields.copy()
        last = fields["beat"]
        # `encoding.encode_int(last)`'s length: a 5-octet header, then the
        # minimal big-endian body (one octet for 0).
        kept = self.encoded[: -5 - ((last.bit_length() + 7) // 8 or 1)]
        fields["beat"] = beat
        message = _holding(self.kind, fields)
        message.__dict__["encoded"] = kept + encoding.encode_int(beat)
        return message


def _holding(kind: MessageKind, fields: dict) -> Message:
    """A message over `fields`, a dict that passed its checks and that no
    one else holds, so it is wrapped as it is."""
    message = object.__new__(Message)
    attributes = message.__dict__
    attributes["kind"] = kind
    attributes["fields"] = MappingProxyType(fields)
    return message


def msg(kind: MessageKind, **fields) -> Message:
    """A `kind` message of `fields`, checked once; the keyword dict is the
    message's own."""
    _check(kind.name, _HEADER_CHECKS[kind], fields)
    return _holding(kind, fields)


# Wire type -> the encoder of a value that passed that type's check.
_ENCODERS = {
    "int": encoding.encode_int,
    "str": encoding.encode_str,
    "name": encoding.encode_str,
    "bytes": encoding.encode_bytes,
}
# Field name -> the encoder of its checked values.  Lists go through the
# sequence encoder, which reads each item by its type.
_ENCODER_OF = {name: _ENCODERS.get(wire_type, encoding.encode_seq) for name, wire_type in FIELD_TYPES.items()}

# Kind -> (its tag octet, (field name, encoder) in wire order).
_PLANS = {
    kind: (bytes([kind]), tuple((name, _ENCODER_OF[name]) for name in names)) for kind, names in _FIELDS.items()
}


def encode_message(message: Message) -> bytes:
    """The kind tag, then each field by its wire type's encoder: every value
    passed its type's check when the message was built."""
    tag, plan = _PLANS[message.kind]
    fields = message.fields
    return tag + b"".join([encode(fields[name]) for name, encode in plan])


# The kinds whose header holds a `sealed` field.  A tag octet compares equal
# to its kind, so a payload whose first octet is not among them carries
# nothing to open, and a reader can tell so without decoding it.
SEALED_KINDS = frozenset(kind for kind, names in _FIELDS.items() if "sealed" in names)


def decode_message(data: bytes) -> Message:
    if not data:
        raise encoding.EncodingError("empty message")
    try:
        kind = MessageKind(data[0])
    except ValueError as exc:
        raise encoding.EncodingError(f"unknown message tag 0x{data[0]:02x}") from exc
    values = encoding.decode(data[1:])
    names = _FIELDS[kind]
    if len(values) != len(names):
        raise encoding.EncodingError(
            f"{kind.name} expects {len(names)} fields, got {len(values)}"
        )
    return msg(kind, **dict(zip(names, values)))


def _layout_key(kind: MessageKind, mode, tag) -> Optional[tuple]:
    if kind == MessageKind.REKEY:
        key = (kind, mode)
    elif (kind, None) in _SEALED:
        key = (kind, None)
    else:
        key = (kind, tag if isinstance(tag, str) else None)
    return key if key in _SEALED else None


def seal_plain(kind: MessageKind, mode: Optional[str] = None, **fields) -> bytes:
    """The plaintext of a `kind` message's sealed field, built from its named
    fields; a REKEY names its `mode`, a tagged layout its `tag` field."""
    return seal_batch(kind, mode, fields, [{}])[0]


def seal_batch(kind: MessageKind, mode: Optional[str], shared: dict, items: list) -> list:
    """The plaintexts of `kind` messages of one layout (chosen as by
    :func:`seal_plain`, from `mode` or the shared `tag`) that hold the fields
    in `shared` and, per item, that item's fields.  Shared fields are checked
    and encoded once; an item's plaintext joins the field encodings in
    layout order, which is exactly its `seal_plain` (the encoding is a plain
    concatenation of per-field encodings)."""
    key = _layout_key(kind, mode, shared.get("tag"))
    if key is None:
        raise encoding.EncodingError(f"no sealed layout for {kind.name} {mode or shared.get('tag')!r}")
    what = f"sealed {kind.name}"
    checks = _SEALED_CHECKS[key]
    _check(what, tuple(check for check in checks if check[0] in shared), shared)
    own = tuple(check for check in checks if check[0] not in shared)
    encoded = {name: _ENCODER_OF[name](value) for name, value in shared.items()}
    names = _SEALED[key].names
    plains = []
    for item in items:
        _check(what, own, item)
        plains.append(b"".join([encoded[n] if n in encoded else _ENCODER_OF[n](item[n]) for n in names]))
    return plains


def _read(key, plaintext: bytes, directories: Optional[dict]) -> tuple:
    """What `encoding.decode(plaintext)` returns or raises, and whether the
    rows of layout `key` pass its check (True for a layout without rows).
    The rows come from `directories`, a memo of rows that passed keyed by
    their whole field (tag, length and body), so only a field not in it is
    decoded and checked; the rest is decoded in one call.  Each call gets
    its own lists."""
    at = _ROWS_AT.get(key)
    if at is None:
        return encoding.decode(plaintext), True
    try:
        span = encoding.field_span(plaintext, at)
        if span is None:  # too few fields to hold rows, so no layout fits
            return encoding.decode(plaintext), False
        start, end = span
        field = plaintext[start:end]
        rows = directories.get(field) if directories else None
        passed = rows is not None
        if not passed:
            [rows] = encoding.decode(field)
            passed = _SEALED_CHECKS[key][at][1](rows)
            if passed and directories is not None:
                directories[field] = rows
        values = encoding.decode(plaintext[:start] + plaintext[end:])
    except encoding.EncodingError:
        encoding.decode(plaintext)  # raise the error a whole decode meets first
        raise
    values.insert(at, [row[:] for row in rows] if passed else rows)
    return values, passed


def open_sealed(
    kind: MessageKind, plaintext: bytes, mode: Optional[str] = None, directories: Optional[dict] = None
) -> dict:
    """The named fields of a `kind` message's sealed plaintext (a REKEY's
    layout follows its `mode` header).  Raises EncodingError unless the
    plaintext decodes and fits its layout, name for name and type for type.
    Rows are read through `directories` (see `_read`), so a run's memo
    checks each directory once, not once per member it is sealed to."""
    # A layout that carries a directory is named by kind and mode, never by a tag field.
    values, rows_pass = _read(_layout_key(kind, mode, None), plaintext, directories)
    key = _layout_key(kind, mode, values[0] if values else None)
    if key is None or len(values) != len(_SEALED[key].names):
        raise encoding.EncodingError(f"plaintext does not fit any sealed {kind.name} layout")
    for value, (name, check) in zip(values, _SEALED_CHECKS[key]):
        if not (rows_pass if name == "rows" else check(value)):
            raise _mistyped(f"sealed {kind.name}", name)
    return dict(zip(_SEALED[key].names, values))


def seals(kind: MessageKind, mode: Optional[str] = None) -> tuple:
    """How a `kind` message's sealed field may be sealed: the seal of the
    layout a REKEY's mode names, else every seal its kind's layouts use
    (none for a kind that carries no sealed field)."""
    named = _SEALED.get((kind, mode)) if kind == MessageKind.REKEY else None
    if named is not None:
        return (named.seal,)
    return _KIND_SEALS.get(kind, ())


def sealed_readings(kind: MessageKind, plaintext: bytes, directories: Optional[dict] = None) -> list:
    """Each way a decrypted plaintext can be read by name: one mapping per
    layout of `kind`, pairing names with values by position, whatever their
    types.  Raises EncodingError when the plaintext does not decode.  Rows
    are read as by :func:`open_sealed`, through `directories`."""
    keys = _KIND_KEYS.get(kind, ())
    values, _ = _read(keys[0] if keys else None, plaintext, directories)
    return [dict(zip(_SEALED[key].names, values)) for key in keys]


@dataclass(slots=True)
class Envelope:
    """A message in flight: payload plus radio metadata."""

    message: Message
    sender: str
    to: str = BROADCAST  # node name, or BROADCAST
    channel: str = "radio"  # "radio" or "ring" (leader-to-leader)
