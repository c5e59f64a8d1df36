import pytest
from hypothesis import given, strategies as st

from manetsec import encoding
from manetsec.messages import MessageKind, decode_message, encode_message, msg


def test_roundtrip_basic():
    values = [0, 1, 2**200, "hello", "", b"\x00\xff", b"", ["a", 1, b"x", ["nested"]]]
    assert encoding.decode(encoding.encode(*values)) == values


def test_zero_encodes_as_single_octet():
    assert encoding.encode(0) == b"\x01\x00\x00\x00\x01\x00"


def test_negative_int_rejected():
    with pytest.raises(encoding.EncodingError):
        encoding.encode(-1)


def test_bool_rejected():
    with pytest.raises(encoding.EncodingError):
        encoding.encode(True)


def test_unknown_type_rejected():
    with pytest.raises(encoding.EncodingError):
        encoding.encode(1.5)


def test_truncated_data_rejected():
    data = encoding.encode("hello")
    with pytest.raises(encoding.EncodingError):
        encoding.decode(data[:-1])


def test_non_minimal_int_rejected():
    with pytest.raises(encoding.EncodingError):
        encoding.decode(b"\x01\x00\x00\x00\x02\x00\x05")


def test_distinct_tuples_distinct_bytes():
    # Concatenation ambiguity is the classic failure mode; tag+length framing
    # must keep ("ab", "c") and ("a", "bc") apart.
    assert encoding.encode("ab", "c") != encoding.encode("a", "bc")
    assert encoding.encode(b"ab", b"c") != encoding.encode(b"a", b"bc")
    assert encoding.encode("1") != encoding.encode(1)
    assert encoding.encode([1, 2]) != encoding.encode(1, 2)


_scalars = st.one_of(
    st.integers(min_value=0, max_value=2**130),
    st.text(max_size=20),
    st.binary(max_size=20),
)
_values = st.one_of(_scalars, st.lists(_scalars, max_size=4))


@given(st.lists(_values, max_size=6))
def test_roundtrip_property(values):
    decoded = encoding.decode(encoding.encode(*values))
    assert decoded == [list(v) if isinstance(v, list) else v for v in values]


@given(st.lists(_scalars, min_size=1, max_size=4), st.lists(_scalars, min_size=1, max_size=4))
def test_injective_property(a, b):
    if a != b:
        assert encoding.encode(*a) != encoding.encode(*b)


def test_message_is_immutable_and_encodes_once():
    message = msg(MessageKind.HEARTBEAT, who="a", role="member", group="g1", beat=10)
    with pytest.raises(TypeError):
        message.fields["beat"] = 11
    assert message.encoded is message.encoded
    assert decode_message(message.encoded) == message


def test_message_replace_has_its_own_encoding():
    message = msg(MessageKind.HEARTBEAT, who="a", role="member", group="g1", beat=10)
    before = message.encoded
    later = message.replace(beat=11)
    assert later is not message and later["beat"] == 11
    assert message.encoded is before and message["beat"] == 10
    assert later.encoded == encode_message(later) != before
