import random

import pytest
from hypothesis import given, strategies as st

from manetsec import encoding
from manetsec.keymgmt import CertificateAuthority, LeaderKeyService
from manetsec.messages import (
    MessageKind,
    decode_message,
    encode_message,
    msg,
    open_sealed,
    seal_batch,
    seal_plain,
)
from manetsec.runtime import Ctx


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


def test_invalid_utf8_string_rejected():
    with pytest.raises(encoding.EncodingError, match="not UTF-8"):
        encoding.decode(b"\x02\x00\x00\x00\x01\xff")


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


_nested = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=12)


@st.composite
def _damaged(draw):
    """The encoding of random values, cut short at any point or with any
    one byte changed."""
    data = encoding.encode(*draw(st.lists(_nested, max_size=4)))
    if not data or draw(st.booleans()):
        return data[: draw(st.integers(min_value=0, max_value=max(0, len(data) - 1)))]
    i = draw(st.integers(min_value=0, max_value=len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(min_value=1, max_value=255))]) + data[i + 1 :]


@given(_damaged())
def test_damaged_data_rejected_or_reencodes_exactly(data):
    # The encoding is canonical: whatever decodes re-encodes to the same bytes.
    try:
        values = encoding.decode(data)
    except encoding.EncodingError:
        return
    assert encoding.encode(*values) == data


@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_decode_reads_any_bytes_like(wrap):
    values = [7, "h\u00e9llo", b"\x00\x01", ["x", [2, b""]]]
    decoded = encoding.decode(wrap(encoding.encode(*values)))
    assert decoded == values
    assert type(decoded[2]) is bytes and type(decoded[3][1][1]) is bytes


@pytest.mark.parametrize("value", [[True], ["a", [1, False]], [-1], [0, [-5]], None, [None], 1.5, [b"x", 0.5]])
def test_encode_rejects_values_outside_the_wire_format(value):
    with pytest.raises(encoding.EncodingError):
        encoding.encode(value)


def test_encode_reads_int_enums_and_bytes_likes():
    assert encoding.encode(MessageKind.HEARTBEAT) == encoding.encode(int(MessageKind.HEARTBEAT))
    assert encoding.encode([MessageKind.REKEY]) == encoding.encode([int(MessageKind.REKEY)])
    assert encoding.encode(bytearray(b"ab"), memoryview(b"cd")) == encoding.encode(b"ab", b"cd")
    assert encoding.encode([bytearray(b"ab"), [memoryview(b"")]]) == encoding.encode([b"ab", [b""]])


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


def test_unassigned_message_tags_rejected():
    # 0x1A is past the last kind the protocol builds (GROUP_NEG, 0x19).
    assert max(MessageKind) == MessageKind.GROUP_NEG
    body = encoding.encode("g1", "g1-1", 1, b"sealed")
    for tag in (0x00, 0x1A, 0xFF):
        with pytest.raises(encoding.EncodingError, match="unknown message tag"):
            decode_message(bytes([tag]) + body)


# ---------------------------------------------------------------------------
# The typed schema
# ---------------------------------------------------------------------------


def test_every_field_name_has_one_wire_type():
    from manetsec.messages import _FIELDS, _SEALED, _TYPE_CHECKS, FIELD_TYPES

    used = [name for names in _FIELDS.values() for name in names]
    used += [name for layout in _SEALED.values() for name in layout.names]
    assert set(used) == set(FIELD_TYPES)
    assert set(FIELD_TYPES.values()) <= set(_TYPE_CHECKS)
    for (kind, variant), layout in _SEALED.items():
        assert len(set(layout.names)) == len(layout.names)
        assert "sealed" in _FIELDS[kind]
        assert (variant is None) == ("tag" not in layout.names and kind != MessageKind.REKEY)


@pytest.mark.parametrize(
    "fields",
    [
        {"who": "a", "role": "member", "group": "g1", "beat": "10"},
        {"who": b"a", "role": "member", "group": "g1", "beat": 10},
        {"who": "a", "role": "member", "group": "g1", "beat": True},
        {"who": "a", "role": "member", "group": "g1", "beat": -1},
        {"who": "a", "role": "member", "group": "g1"},
        {"who": "a", "role": "member", "group": "g1", "beat": 10, "extra": 1},
    ],
)
def test_ill_typed_message_rejected_on_construction(fields):
    with pytest.raises(encoding.EncodingError):
        msg(MessageKind.HEARTBEAT, **fields)


def test_ill_typed_bytes_rejected_on_decode():
    good = msg(MessageKind.LEAVE, who="a").encoded
    assert decode_message(good)["who"] == "a"
    for who in (7, b"a", ["a"]):
        with pytest.raises(encoding.EncodingError, match="'who' is not name"):
            decode_message(bytes([MessageKind.LEAVE]) + encoding.encode(who))
    rows = [["a", b"k"], ["b"]]
    with pytest.raises(encoding.EncodingError):
        decode_message(bytes([MessageKind.RREQ]) + encoding.encode("s", "d", 1, 2, ["s", 3], [b"x"], b"c"))
    with pytest.raises(encoding.EncodingError):
        open_sealed(MessageKind.REKEY, encoding.encode(b"k", 1, "g1-1", rows), "group")


@pytest.mark.parametrize("name", ["", "*", "a:b", "a>b", "x=y", "a\tb", "a\n", "\u00e9", "g1-1"])
def test_name_fields_hold_only_names(name):
    # Node and group names reach the event log, so a header or sealed field
    # that holds one must be a name as scenarios give them.
    with pytest.raises(encoding.EncodingError, match="'who' is not name"):
        msg(MessageKind.LEAVE, who=name)
    with pytest.raises(encoding.EncodingError, match="'route' is not list\\[name\\]"):
        decode_message(bytes([MessageKind.RREQ]) + encoding.encode("s", "d", 1, 2, ["s", name], [b"x"], b"c"))
    with pytest.raises(encoding.EncodingError, match="'source' is not name"):
        open_sealed(MessageKind.DATA, encoding.encode("chat", name, "hi"))
    assert msg(MessageKind.LEAVE, who="a_1.B")["who"] == "a_1.B"


def test_sealed_plaintexts_round_trip_by_name():
    rows = [["a", b"pa"], ["b", b"pb"]]
    plain = seal_plain(MessageKind.REKEY, "group", group_key=b"k", epoch=2, lineage="g1-1", rows=rows)
    assert plain == encoding.encode(b"k", 2, "g1-1", rows)
    assert open_sealed(MessageKind.REKEY, plain, "group") == {
        "group_key": b"k", "epoch": 2, "lineage": "g1-1", "rows": rows,
    }
    chat = seal_plain(MessageKind.DATA, tag="chat", source="a", text="hi")
    assert open_sealed(MessageKind.DATA, chat) == {"tag": "chat", "source": "a", "text": "hi"}


@pytest.mark.parametrize(
    "kind, plaintext, mode",
    [
        (MessageKind.REKEY, encoding.encode(b"k", 2, "g1-1", []), "public"),  # layout of the other mode
        (MessageKind.REKEY, encoding.encode(b"k", 2, "g1-1", []), "bogus"),
        (MessageKind.DATA, encoding.encode("gossip", "a", "hi"), None),  # unknown tag
        (MessageKind.DATA, encoding.encode(["chat"], "a", "hi"), None),
        (MessageKind.DATA, b"", None),
        (MessageKind.GROUP_REQ, encoding.encode("route_found", "a", "b", 1, "L"), None),  # another kind's tag
        (MessageKind.NONCE, encoding.encode(1, 2), None),
        (MessageKind.SESSION_4, b"\xff\x00", None),
    ],
)
def test_plaintext_that_fits_no_layout_rejected(kind, plaintext, mode):
    with pytest.raises(encoding.EncodingError):
        open_sealed(kind, plaintext, mode)


def test_seal_plain_checks_names_and_types():
    with pytest.raises(encoding.EncodingError):
        seal_plain(MessageKind.NONCE, nonce="1")
    with pytest.raises(encoding.EncodingError):
        seal_plain(MessageKind.NONCE, nonce=1, extra=2)
    with pytest.raises(encoding.EncodingError):
        seal_plain(MessageKind.DATA, tag="gossip", source="a", text="hi")


def test_founding_keysets_equal_their_seal_plain(provider):
    rng = random.Random(5)
    authority = CertificateAuthority(provider, rng)
    keys = {name: provider.generate_keypair(rng) for name in ("L", "a", "b", "c")}
    leader = LeaderKeyService("L", "g1", "g1-1", keys["L"], provider, rng, authority.public, capacity=8)
    ctx = Ctx("L", 0, rng, provider)
    leader.found_group([(name, keys[name].public) for name in ("c", "a", "b")], ctx, "founding")
    h = leader.hierarchy
    rekeys = [envelope for envelope in ctx.outbound if envelope.message.kind == MessageKind.REKEY]
    assert [envelope.to for envelope in rekeys] == ["a", "b", "c"]
    for envelope in rekeys:
        member = envelope.to
        assert provider.pk_decrypt(keys[member].private, envelope.message["sealed"]) == seal_plain(
            MessageKind.REKEY, "public", group_key=h.group_key, epoch=h.epoch, lineage=h.lineage,
            rows=leader.directory_rows(), member_key=h.member_keys[member], member_id=h.member_ids[member],
            leader="L", leader_public=keys["L"].public,
        )


SHARED = {"group_key": b"k" * 32, "epoch": 3, "lineage": "g1-2", "rows": [["a", b"pa"]], "leader": "L",
          "leader_public": b"pl"}


def test_batch_equals_seal_plain_whichever_fields_vary():
    items = [{"member_key": b"m" * 32, "member_id": 1}, {"member_key": b"", "member_id": 0}]
    for item, plain in zip(items, seal_batch(MessageKind.REKEY, "public", SHARED, items)):
        assert plain == seal_plain(MessageKind.REKEY, "public", **SHARED, **item)
    # Varying fields first, last, or every field: the same bytes.
    fields = {**SHARED, "member_key": b"m", "member_id": 2}
    for varying in (("group_key",), ("leader_public",), tuple(fields)):
        shared = {name: value for name, value in fields.items() if name not in varying}
        [plain] = seal_batch(MessageKind.REKEY, "public", shared, [{name: fields[name] for name in varying}])
        assert plain == seal_plain(MessageKind.REKEY, "public", **fields)
    chats = seal_batch(MessageKind.DATA, None, {"tag": "chat", "source": "a"}, [{"text": "x"}, {"text": "y"}])
    assert chats == [seal_plain(MessageKind.DATA, tag="chat", source="a", text=t) for t in "xy"]


@pytest.mark.parametrize(
    "shared, item",
    [
        ({**SHARED, "epoch": -1}, {"member_key": b"m", "member_id": 1}),  # ill-typed shared field
        ({**SHARED, "rows": [["a", "pa"]]}, {"member_key": b"m", "member_id": 1}),
        (SHARED, {"member_key": "m", "member_id": 1}),  # ill-typed per-item field
        (SHARED, {"member_key": b"m", "member_id": True}),
        (SHARED, {"member_key": b"m"}),  # missing
        (SHARED, {"member_key": b"m", "member_id": 1, "epoch": 3}),  # also shared
        ({**SHARED, "extra": 1}, {"member_key": b"m", "member_id": 1}),  # names no field
    ],
)
def test_batch_rejects_ill_typed_or_misnamed_fields(shared, item):
    good = {"member_key": b"m", "member_id": 1}
    with pytest.raises(encoding.EncodingError):
        seal_batch(MessageKind.REKEY, "public", shared, [good, item])
