"""Wire format for every protocol message the simulator delivers.

A message is a one-octet kind tag followed by the canonical encoding of the
kind's payload fields, in the fixed order listed in ``_FIELDS``.  Encrypted
parts travel as a single ``sealed`` octet field whose plaintext is itself a
canonical encoding; the handlers that seal and open them agree on the inner
layout.  Radio metadata (who transmitted to whom, and when) is not part of
the payload bytes -- the event log records it separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from types import MappingProxyType

from . import encoding


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

BROADCAST = "*"


@dataclass(frozen=True)
class Message:
    """An immutable payload: its fields are a read-only mapping, and its wire
    bytes are encoded on first use and then shared by every reader."""

    kind: MessageKind
    fields: MappingProxyType

    def __post_init__(self):
        expected = _FIELDS[self.kind]
        missing = [n for n in expected if n not in self.fields]
        extra = [n for n in self.fields if n not in expected]
        if missing or extra:
            raise ValueError(
                f"{self.kind.name} payload mismatch (missing={missing}, extra={extra})"
            )
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


@dataclass
class Envelope:
    """A message in flight: payload plus radio metadata."""

    message: Message
    sender: str
    to: str = BROADCAST  # node name, or BROADCAST
    channel: str = "radio"  # "radio" or "ring" (leader-to-leader)
