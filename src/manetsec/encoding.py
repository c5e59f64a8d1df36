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
``encode_str``, ``encode_bytes``, ``encode_seq``): an ``int``, ``str``,
``bytes``, ``list`` or ``tuple``.  Any other value is refused with
``EncodingError``: a negative int, a bool or another subclass of those
types, a ``bytearray`` or ``memoryview``.  ``decode`` takes ``bytes``.  The
message layer calls the per-type encoders directly for fields whose type it
has checked.

``field_span(data, index)`` bounds one whole field from its headers alone;
fields are self-delimiting, so the pieces of a cut decode as the whole does.
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
    """The field of a bytes object."""
    if len(value) > _MAX_BODY:
        raise EncodingError("field body exceeds 4-octet length range")
    return _pack(_TAG_BYTES, len(value)) + value


def encode_seq(value) -> bytes:
    """The field of a list or tuple of values."""
    body = b"".join(map(_encode_one, value))
    if len(body) > _MAX_BODY:
        raise EncodingError("field body exceeds 4-octet length range")
    return _pack(_TAG_SEQ, len(body)) + body


# The encoder of each type the wire format holds, looked up by exact type.
_BY_TYPE = {bytes: encode_bytes, str: encode_str, int: encode_int, list: encode_seq, tuple: encode_seq}


def _encode_one(value: Value) -> bytes:
    encoder = _BY_TYPE.get(type(value))
    if encoder is None:
        if type(value) is bool:
            raise EncodingError("booleans are not part of the wire format")
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    return encoder(value)


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
            append(_decode_body(data, body_start, pos))
        elif tag == _TAG_INT:
            if length == 0 or (length > 1 and data[body_start] == 0):
                raise EncodingError("non-minimal integer encoding")
            append(int.from_bytes(data[body_start:pos], "big"))
        else:
            raise EncodingError(f"unknown field tag 0x{tag:02x}")
    return items


def decode(data: bytes) -> list:
    """Decode a concatenation of tagged fields back into a list of values."""
    return _decode_body(data, 0, len(data))


def field_span(data: bytes, index: int):
    """(start, end) of the `index`-th whole field (tag, length and body) of
    `data`, a concatenation of fields, or None when `data` ends before that
    field begins.  Only headers are read, so no body is checked; a header
    cut short or a body that runs past the end raises EncodingError."""
    start = end = 0
    for _ in range(index + 1):
        if end == len(data):
            return None
        if end + 5 > len(data):
            raise EncodingError("truncated field header")
        start, end = end, end + 5 + _HEADER.unpack_from(data, end)[1]
        if end > len(data):
            raise EncodingError("field body runs past end of data")
    return start, end
