"""Canonical field encoding used for all hashing, signing and message payloads.

Every value that is hashed, signed, or carried on the wire is first run
through this encoding so that two implementations (or two runs) always
produce identical bytes.  The layout is a flat tag-length-value scheme:

    field := tag(1 octet) || length(4 octets, big-endian) || body

with the following tags and body rules:

    0x01  INT    non-negative integer, minimal-length big-endian
                 (the integer 0 encodes as the single octet 0x00)
    0x02  STR    UTF-8 bytes of the string
    0x03  BYTES  the octets verbatim
    0x04  SEQ    concatenation of the encodings of the items

``encode(*values)`` concatenates the field encodings of its arguments with
no outer framing; ``decode(data)`` reverses that, returning a list.  The
encoding is injective: distinct value tuples never produce the same bytes.
Each value is encoded by the encoder of its exact type (``encode_int``,
``encode_str``, ``encode_bytes``, ``encode_seq``); a subclass, a
``bytearray`` or ``memoryview``, or a value outside the format (a bool, a
negative int, any other type) goes through an ``isinstance`` chain that
gives the same bytes or the same error.  The message layer calls the
per-type encoders directly for fields whose type it has checked.

A *table* is a SEQ whose first field is itself a SEQ; on the wire only a
directory of ``[member name, public key]`` rows has that shape.  A founding
leader seals one directory into every member's plaintext, so ``decode``
decodes a table of flat rows once per distinct encoding and keeps the
result in a small memo; every reader gets its own lists, and a body that
fails to decode raises as any other and is never kept.  Beside it,
``passes_once`` runs a reader's check on a decoded field once per distinct
whole field (tag, length and body): the message layer type-checks each
directory's rows once per encoding, not once per member.
"""

from __future__ import annotations

import struct
from typing import Sequence, Union

Value = Union[int, str, bytes, Sequence["Value"]]

_TAG_INT = 0x01
_TAG_STR = 0x02
_TAG_BYTES = 0x03
_TAG_SEQ = 0x04


class EncodingError(ValueError):
    """Raised for unencodable values or malformed encoded data."""


_HEADER = struct.Struct(">BI")  # tag, body length
_pack = _HEADER.pack
_MAX_BODY = 0xFFFFFFFF

# Decoded tables of flat rows by their body bytes, oldest dropped first.
# Each directory a run founds is read by every member it is sealed to and
# again by the auditor; an 11-node churn run founds up to 11 of them.
_TABLE_MEMO_SIZE = 16
_tables: dict = {}

# (check, whole field) for each field that passed a reader's check in
# `passes_once`, oldest dropped first.  A founding directory comes back in
# every member's plaintext, so its rows field recurs once per member.
_PASSED_MEMO_SIZE = 16
_passed: dict = {}


def encode_int(value: int) -> bytes:
    """The field of an int, which must not be negative."""
    if value < 0:
        raise EncodingError("negative integers are not part of the wire format")
    body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    if len(body) > _MAX_BODY:
        raise EncodingError("field body exceeds 4-octet length range")
    return _pack(_TAG_INT, len(body)) + body


def encode_str(value: str) -> bytes:
    """The field of a string."""
    body = value.encode()
    if len(body) > _MAX_BODY:
        raise EncodingError("field body exceeds 4-octet length range")
    return _pack(_TAG_STR, len(body)) + body


def encode_bytes(value: bytes) -> bytes:
    """The field of a bytes object (a bytes subclass gives the same octets)."""
    if len(value) > _MAX_BODY:
        raise EncodingError("field body exceeds 4-octet length range")
    return _pack(_TAG_BYTES, len(value)) + value


def encode_seq(value) -> bytes:
    """The field of a list or tuple of values."""
    body = b"".join(map(_encode_one, value))
    if len(body) > _MAX_BODY:
        raise EncodingError("field body exceeds 4-octet length range")
    return _pack(_TAG_SEQ, len(body)) + body


# Encoder by exact type; `_encode_one` reads subclasses, bytes-likes and
# what it refuses through `isinstance`.
_BY_TYPE = {bytes: encode_bytes, str: encode_str, int: encode_int, list: encode_seq, tuple: encode_seq}


def _encode_one(value: Value) -> bytes:
    encoder = _BY_TYPE.get(type(value))
    if encoder is not None:
        return encoder(value)
    if isinstance(value, bytes):
        return encode_bytes(value)
    if isinstance(value, str):
        return encode_str(value)
    if isinstance(value, bool):
        raise EncodingError("booleans are not part of the wire format")
    if isinstance(value, int):
        return encode_int(value)
    if isinstance(value, (list, tuple)):
        return encode_seq(value)
    if isinstance(value, (bytearray, memoryview)):
        return encode_bytes(bytes(value))
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def encode(*values: Value) -> bytes:
    """Encode the given values as a concatenation of tagged fields."""
    return b"".join(map(_encode_one, values))


def _decode_body(data: bytes, start: int, end: int) -> list:
    items = []
    append = items.append
    header = _HEADER.unpack_from
    pos = start
    while pos < end:
        if pos + 5 > end:
            raise EncodingError("truncated field header")
        tag, length = header(data, pos)
        body_start = pos + 5
        pos = body_start + length
        if pos > end:
            raise EncodingError("field body runs past end of data")
        # Tags in the order of how often the simulator's payloads use them.
        if tag == _TAG_BYTES:
            append(data[body_start:pos])
        elif tag == _TAG_STR:
            try:
                append(data[body_start:pos].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EncodingError("string body is not UTF-8") from exc
        elif tag == _TAG_SEQ:
            if length and data[body_start] == _TAG_SEQ:
                append(_decode_table(data[body_start:pos]))
            else:
                append(_decode_body(data, body_start, pos))
        elif tag == _TAG_INT:
            if length == 0 or (length > 1 and data[body_start] == 0):
                raise EncodingError("non-minimal integer encoding")
            append(int.from_bytes(data[body_start:pos], "big"))
        else:
            raise EncodingError(f"unknown field tag 0x{tag:02x}")
    return items


def _decode_table(body: bytes) -> list:
    """The items of a table body, with each row a new list.  A table of
    flat rows (lists holding no list) is decoded once per distinct body."""
    rows = _tables.get(body)
    if rows is None:
        rows = _decode_body(body, 0, len(body))
        if not all(isinstance(row, list) and not any(isinstance(item, list) for item in row) for row in rows):
            return rows
        if len(_tables) >= _TABLE_MEMO_SIZE:
            del _tables[next(iter(_tables))]
        _tables[body] = rows
    return [row[:] for row in rows]


def decode(data: bytes) -> list:
    """Decode a concatenation of tagged fields back into a list of values;
    `data` may be any bytes-like object."""
    data = bytes(data)
    return _decode_body(data, 0, len(data))


def passes_once(data: bytes, index: int, value, check) -> bool:
    """Whether `value`, the decoded `index`-th field of `data` (a
    concatenation `decode` has read), passes `check`.  The check runs once
    per distinct whole field, tag and length included; a field that fails
    is never kept."""
    pos = 0
    for _ in range(index):
        pos += 5 + _HEADER.unpack_from(data, pos)[1]
    key = (check, data[pos : pos + 5 + _HEADER.unpack_from(data, pos)[1]])
    if key in _passed:
        return True
    if not check(value):
        return False
    if len(_passed) >= _PASSED_MEMO_SIZE:
        del _passed[next(iter(_passed))]
    _passed[key] = None
    return True
