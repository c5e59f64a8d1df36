"""Wire format for every protocol message the simulator delivers.

A message is a one-octet kind tag followed by the canonical encoding of the
kind's payload fields, in the fixed order listed in ``_FIELDS``.  Encrypted
parts travel as a single ``sealed`` octet field whose plaintext is itself a
canonical encoding, laid out as ``_SEALED`` lists.  Every field name, in a
header or in a sealed plaintext, has one wire type (``FIELD_TYPES``); a
``Message`` checks its fields against it when it is built, and
:func:`open_sealed` checks a plaintext the same way.  Radio metadata (who
transmitted to whom, and when) is not part of the payload bytes -- the
event log records it separately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import groupby
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


def _is_int(value) -> bool:
    return type(value) is int and value >= 0  # bool is an int subclass, not a wire int


def _is_str(value) -> bool:
    return isinstance(value, str)


# A node or group name, as scenarios give them.  Names are written into the
# event log, so a name field never carries the log's separators, a tab or a
# line break.
NAME_RE = re.compile(r"[A-Za-z0-9_.]+")


def _is_name(value) -> bool:
    return isinstance(value, str) and NAME_RE.fullmatch(value) is not None


def _is_bytes(value) -> bool:
    return isinstance(value, bytes)


def _is_row(row) -> bool:
    return (
        isinstance(row, (list, tuple)) and len(row) == 2 and isinstance(row[0], str) and isinstance(row[1], bytes)
    )


def _list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(map(check, value))


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
            raise encoding.EncodingError(f"{what} field {name!r} is not {FIELD_TYPES[name]}")


BROADCAST = "*"


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

    @cached_property
    def encoded(self) -> bytes:
        return encode_message(self)

    def replace(self, **changes) -> "Message":
        return Message(self.kind, {**self.fields, **changes})


def msg(kind: MessageKind, **fields) -> Message:
    return Message(kind, fields)


def encode_message(message: Message) -> bytes:
    values = [message.fields[name] for name in _FIELDS[message.kind]]
    return bytes([int(message.kind)]) + encoding.encode(*values)


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
    return Message(kind, dict(zip(names, values)))


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
    and encoded once, each unbroken run of them as one piece; an item's
    plaintext joins those pieces and the encodings of its own runs in layout
    order, which is exactly its `seal_plain` (the encoding is a plain
    concatenation of per-field encodings)."""
    key = _layout_key(kind, mode, shared.get("tag"))
    if key is None:
        raise encoding.EncodingError(f"no sealed layout for {kind.name} {mode or shared.get('tag')!r}")
    what = f"sealed {kind.name}"
    checks = _SEALED_CHECKS[key]
    _check(what, tuple(check for check in checks if check[0] in shared), shared)
    own = tuple(check for check in checks if check[0] not in shared)
    pieces = []  # per run of the layout: its encoding if shared, else its names
    for is_shared, run in groupby(_SEALED[key].names, key=shared.__contains__):
        names = tuple(run)
        pieces.append(encoding.encode(*(shared[name] for name in names)) if is_shared else names)
    plains = []
    for item in items:
        _check(what, own, item)
        plains.append(
            b"".join(
                piece if isinstance(piece, bytes) else encoding.encode(*(item[n] for n in piece))
                for piece in pieces
            )
        )
    return plains


def open_sealed(kind: MessageKind, plaintext: bytes, mode: Optional[str] = None) -> dict:
    """The named fields of a `kind` message's sealed plaintext (a REKEY's
    layout follows its `mode` header).  Raises EncodingError unless the
    plaintext decodes and fits its layout, name for name and type for type."""
    values = encoding.decode(plaintext)
    key = _layout_key(kind, mode, values[0] if values else None)
    if key is None or len(values) != len(_SEALED[key].names):
        raise encoding.EncodingError(f"plaintext does not fit any sealed {kind.name} layout")
    fields = dict(zip(_SEALED[key].names, values))
    _check(f"sealed {kind.name}", _SEALED_CHECKS[key], fields)
    return fields


def seals(kind: MessageKind, mode: Optional[str] = None) -> tuple:
    """How a `kind` message's sealed field may be sealed: the seal of the
    layout a REKEY's mode names, else every seal its kind's layouts use
    (none for a kind that carries no sealed field)."""
    named = _SEALED.get((kind, mode)) if kind == MessageKind.REKEY else None
    if named is not None:
        return (named.seal,)
    return tuple(dict.fromkeys(layout.seal for (k, _), layout in _SEALED.items() if k == kind))


def sealed_readings(kind: MessageKind, plaintext: bytes) -> list:
    """Each way a decrypted plaintext can be read by name: one mapping per
    layout of `kind`, pairing names with values by position, whatever their
    types.  Raises EncodingError when the plaintext does not decode."""
    values = encoding.decode(plaintext)
    return [dict(zip(layout.names, values)) for (k, _), layout in _SEALED.items() if k == kind]


@dataclass
class Envelope:
    """A message in flight: payload plus radio metadata."""

    message: Message
    sender: str
    to: str = BROADCAST  # node name, or BROADCAST
    channel: str = "radio"  # "radio" or "ring" (leader-to-leader)
