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
"""

from __future__ import annotations

from typing import Sequence, Union

Value = Union[int, str, bytes, Sequence["Value"]]

_TAG_INT = 0x01
_TAG_STR = 0x02
_TAG_BYTES = 0x03
_TAG_SEQ = 0x04


class EncodingError(ValueError):
    """Raised for unencodable values or malformed encoded data."""


def _encode_one(value: Value) -> bytes:
    if isinstance(value, bool):
        raise EncodingError("booleans are not part of the wire format")
    if isinstance(value, int):
        if value < 0:
            raise EncodingError("negative integers are not part of the wire format")
        body = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
        tag = _TAG_INT
    elif isinstance(value, str):
        body = value.encode("utf-8")
        tag = _TAG_STR
    elif isinstance(value, (bytes, bytearray, memoryview)):
        body = bytes(value)
        tag = _TAG_BYTES
    elif isinstance(value, (list, tuple)):
        body = b"".join(_encode_one(item) for item in value)
        tag = _TAG_SEQ
    else:
        raise EncodingError(f"cannot encode value of type {type(value).__name__}")
    if len(body) > 0xFFFFFFFF:
        raise EncodingError("field body exceeds 4-octet length range")
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


def encode(*values: Value) -> bytes:
    """Encode the given values as a concatenation of tagged fields."""
    return b"".join(_encode_one(v) for v in values)


def _decode_body(data: bytes, start: int, end: int) -> list:
    items = []
    pos = start
    while pos < end:
        if pos + 5 > end:
            raise EncodingError("truncated field header")
        tag = data[pos]
        length = int.from_bytes(data[pos + 1 : pos + 5], "big")
        body_start = pos + 5
        body_end = body_start + length
        if body_end > end:
            raise EncodingError("field body runs past end of data")
        body = data[body_start:body_end]
        if tag == _TAG_INT:
            if len(body) == 0 or (len(body) > 1 and body[0] == 0):
                raise EncodingError("non-minimal integer encoding")
            items.append(int.from_bytes(body, "big"))
        elif tag == _TAG_STR:
            try:
                items.append(body.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise EncodingError("string body is not UTF-8") from exc
        elif tag == _TAG_BYTES:
            items.append(bytes(body))
        elif tag == _TAG_SEQ:
            items.append(_decode_body(data, body_start, body_end))
        else:
            raise EncodingError(f"unknown field tag 0x{tag:02x}")
        pos = body_end
    return items


def decode(data: bytes) -> list:
    """Decode a concatenation of tagged fields back into a list of values."""
    return _decode_body(data, 0, len(data))
