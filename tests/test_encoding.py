import copy
import random

import pytest
from hypothesis import given, strategies as st

from manetsec import encoding, messages
from manetsec.keymgmt import CertificateAuthority, LeaderKeyService, derive_member_key
from manetsec.messages import (
    _FIELDS,
    FIELD_TYPES,
    MessageKind,
    decode_message,
    encode_message,
    msg,
    open_sealed,
    seal_batch,
    seal_plain,
    sealed_readings,
)
from manetsec.runtime import Ctx
from manetsec.sim import SimParams


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


# A table: a sequence of flat rows, the shape of a directory.
_table = st.lists(st.lists(_scalars, max_size=3), min_size=1, max_size=4)


def _damage(draw, data: bytes) -> bytes:
    """`data` cut short at any point or with any one byte changed."""
    if not data or draw(st.booleans()):
        return data[: draw(st.integers(min_value=0, max_value=max(0, len(data) - 1)))]
    i = draw(st.integers(min_value=0, max_value=len(data) - 1))
    return data[:i] + bytes([data[i] ^ draw(st.integers(min_value=1, max_value=255))]) + data[i + 1 :]


@st.composite
def _damaged(draw):
    """The encoding of random values, tables among them, cut short at any
    point or with any one byte changed."""
    return _damage(draw, encoding.encode(*draw(st.lists(st.one_of(_nested, _table), max_size=4))))


def _decode_or_error(data):
    try:
        return encoding.decode(data)
    except encoding.EncodingError as exc:
        return exc


@given(_damaged())
def test_damaged_data_rejected_or_reencodes_exactly(data):
    # The encoding is canonical: whatever decodes re-encodes to the same bytes,
    # and a second decode gives the same outcome.
    first, second = _decode_or_error(data), _decode_or_error(data)
    if isinstance(first, encoding.EncodingError):
        assert isinstance(second, encoding.EncodingError) and str(second) == str(first)
        return
    assert second == first
    assert encoding.encode(*first) == data


_name = st.text(alphabet="ab_.1", min_size=1, max_size=4)
_WIRE = {
    "int": st.integers(min_value=0, max_value=2**70),
    "str": st.text(max_size=6),
    "name": _name,
    "bytes": st.binary(max_size=8),
    "list[int]": st.lists(st.integers(min_value=0, max_value=2**70), max_size=3),
    "list[name]": st.lists(_name, max_size=3),
    "list[bytes]": st.lists(st.binary(max_size=8), max_size=3),
    "rows": st.lists(st.tuples(st.text(max_size=4), st.binary(max_size=4)).map(list), min_size=1, max_size=3),
}


@st.composite
def _damaged_message(draw):
    """A kind tag followed by a damaged body: the body of a well-typed
    message of that kind, or of random values, damaged by `_damage`."""
    kind = draw(st.sampled_from(MessageKind))
    if draw(st.booleans()):
        message = msg(kind, **{name: draw(_WIRE[FIELD_TYPES[name]]) for name in _FIELDS[kind]})
        return bytes([kind]) + _damage(draw, message.encoded[1:])
    return bytes([kind]) + draw(_damaged())


@given(_damaged_message())
def test_damaged_message_rejected_or_reencodes_exactly(data):
    # A damaged payload decodes to a message of its tag's kind that encodes
    # back to the same bytes, or raises EncodingError; nothing else escapes.
    try:
        message = decode_message(data)
    except encoding.EncodingError:
        return
    assert message.kind == data[0]
    assert encode_message(message) == data


@pytest.mark.parametrize("good_first", [True, False])
def test_damaged_table_with_a_good_prefix_rejected_in_either_order(good_first):
    # Each damaged directory body shares its first bytes with the good one,
    # and one memo serves every read, as over a run.
    rows = [["a", b"pa"], ["bb", b"pb"]]
    body = encoding.encode(*rows)
    at = body.rindex(b"bb")
    head = encoding.encode(b"k", 2, "g1-1")
    good = head + encoding.encode(rows)
    for bad_body in (body[:-1], body[:at] + b"\xff" + body[at + 1 :]):  # cut short; a name not UTF-8
        bad = head + bytes([0x04]) + len(bad_body).to_bytes(4, "big") + bad_body
        directories = {}
        for data in [good, bad] if good_first else [bad, good]:
            if data is good:
                assert open_sealed(MessageKind.REKEY, data, "group", directories)["rows"] == rows
                assert sealed_readings(MessageKind.REKEY, data, directories)[0]["rows"] == rows
            else:
                with pytest.raises(encoding.EncodingError):
                    open_sealed(MessageKind.REKEY, data, "group", directories)
                with pytest.raises(encoding.EncodingError):
                    sealed_readings(MessageKind.REKEY, data, directories)
        assert list(directories.values()) == [rows]  # only the good directory is kept


def test_table_decodes_share_no_list():
    shared = {**SHARED, "rows": [["a", b"pa"], ["b", b"pb"], ["c", b"pc"]]}
    [plain] = seal_batch(MessageKind.REKEY, "public", shared, [{"member_key": b"m", "member_id": 1}])
    first, second = encoding.decode(plain), encoding.decode(plain)
    assert first == second
    assert not {id(item) for item in _lists(first)} & {id(item) for item in _lists(second)}
    first[3][0][0] = "z"
    first[3].append(["d", b"pd"])
    assert encoding.decode(plain) == second


def _lists(value):
    if isinstance(value, list):
        yield value
        for item in value:
            yield from _lists(item)


@given(st.lists(_values, max_size=5), st.integers(min_value=0, max_value=6))
def test_field_span_bounds_one_whole_field(values, index):
    data = encoding.encode(*values)
    span = encoding.field_span(data, index)
    if index >= len(values):
        assert span is None
        return
    start, end = span
    assert (start, end) == (len(encoding.encode(*values[:index])), len(encoding.encode(*values[: index + 1])))
    assert encoding.decode(data[start:end]) == encoding.decode(data)[index : index + 1]


@pytest.mark.parametrize(
    "data, text",
    [(b"\x03\x00\x00\x00\x01ab", "truncated field header"), (b"\x03\x00\x00\x00\x02a", "runs past end")],
)
def test_field_span_rejects_a_cut_header_or_body(data, text):
    with pytest.raises(encoding.EncodingError, match=text):
        encoding.field_span(data, 1)


@pytest.mark.parametrize("value", [[True], ["a", [1, False]], [-1], [0, [-5]], None, [None], 1.5, [b"x", 0.5]])
def test_encode_rejects_values_outside_the_wire_format(value):
    with pytest.raises(encoding.EncodingError):
        encoding.encode(value)


def test_message_is_immutable_and_encodes_once():
    message = msg(MessageKind.HEARTBEAT, who="a", role="member", group="g1", beat=10)
    with pytest.raises(TypeError):
        message.fields["beat"] = 11
    assert message.encoded is message.encoded
    assert decode_message(message.encoded) == message
    assert copy.copy(message) is message and copy.deepcopy([message])[0] is message  # copies share it


def test_message_replace_has_its_own_encoding():
    message = msg(MessageKind.HEARTBEAT, who="a", role="member", group="g1", beat=10)
    before = message.encoded
    later = message.replace(beat=11)
    assert later is not message and later["beat"] == 11
    assert message.encoded is before and message["beat"] == 10
    assert later.encoded == encode_message(later) != before


# Per wire type: a valid value, another valid value, and values it refuses.
REPLACE_VALUES = {
    "int": (3, 5, ["3", True, False, -1, 1.5, None]),
    "str": ("x", "y", [b"x", 1, None, ["x"]]),
    "name": ("a", "b_1", ["", "a:b", "g1-1", b"a", 1, ["a"]]),
    "bytes": (b"x", b"yy", ["x", bytearray(b"x"), 1, [b"x"], None]),
    "list[int]": ([1, 2], [3], [[True], [-1], ["1"], 5, (1, None)]),
    "list[name]": (["a", "b"], ["c"], [["a:b"], "ab", [1], [b"a"]]),
    "list[bytes]": ([b"x"], [b"y", b"z"], [["x"], b"x", [bytearray(b"x")], [None]]),
}


@pytest.mark.parametrize("kind", list(_FIELDS), ids=lambda kind: kind.name)
def test_message_replace_checks_what_it_changes(kind):
    fields = {name: REPLACE_VALUES[FIELD_TYPES[name]][0] for name in _FIELDS[kind]}
    message = msg(kind, **fields)
    before = message.encoded
    for name in _FIELDS[kind]:
        _, other, refused = REPLACE_VALUES[FIELD_TYPES[name]]
        later = message.replace(**{name: other})
        expect = msg(kind, **{**fields, name: other})
        assert later == expect and dict(later.fields) == dict(expect.fields)
        assert later.encoded == expect.encoded != before
        with pytest.raises(TypeError):
            later.fields[name] = other
        for value in refused:
            with pytest.raises(encoding.EncodingError, match=f"{kind.name} field '{name}' is not"):
                message.replace(**{name: value})
        with pytest.raises(encoding.EncodingError, match="unknown=\\['unknown'\\]"):
            message.replace(**{name: other, "unknown": 1})
    for name in sorted(set(FIELD_TYPES) - set(_FIELDS[kind])):  # a field of other kinds
        with pytest.raises(encoding.EncodingError, match="fields do not match"):
            message.replace(**{name: fields[_FIELDS[kind][0]]})
    assert message.replace() == message
    assert dict(message.fields) == fields and message.encoded is before == msg(kind, **fields).encoded


def test_a_forwarded_request_checks_only_what_it_adds():
    # `with_hop` is `replace` with one hop appended: the same fields and
    # bytes, and each value it adds refused as `replace` refuses it.
    fields = {name: REPLACE_VALUES[FIELD_TYPES[name]][0] for name in _FIELDS[MessageKind.RREQ]}
    message = msg(MessageKind.RREQ, **fields)
    before = message.encoded
    added = {"hop": "c", "sig": b"s", "lifetime": 0, "chain": b"c2"}

    def replaced(hop, sig, lifetime, chain):
        return message.replace(lifetime=lifetime, route=fields["route"] + [hop], sigs=fields["sigs"] + [sig], chain=chain)

    later, expect = message.with_hop(**added), replaced(**added)
    assert later == expect and dict(later.fields) == dict(expect.fields)
    assert later.encoded == expect.encoded == encode_message(expect) != before
    assert later["route"] == ["a", "b", "c"] and later["sigs"] == [b"x", b"s"]
    assert dict(message.fields) == fields and message.encoded is before
    for arg, name in (("hop", "route"), ("sig", "sigs"), ("lifetime", "lifetime"), ("chain", "chain")):
        wire_type = FIELD_TYPES[name].removeprefix("list[").removesuffix("]")
        for value in REPLACE_VALUES[wire_type][2]:
            with pytest.raises(encoding.EncodingError, match=f"RREQ field '{name}' is not"):
                message.with_hop(**{**added, arg: value})
            with pytest.raises(encoding.EncodingError, match=f"RREQ field '{name}' is not"):
                replaced(**{**added, arg: value})
    for kind in set(_FIELDS) - {MessageKind.RREQ}:
        other = msg(kind, **{name: REPLACE_VALUES[FIELD_TYPES[name]][0] for name in _FIELDS[kind]})
        with pytest.raises(encoding.EncodingError, match="is not a route request"):
            other.with_hop(**added)


# Beats on each side of `encode_int`'s body-length steps, so a kept prefix
# is cut before beat fields of every length the runs reach and beyond.
BEAT_BOUNDARIES = (0, 255, 256, 65_535, 65_536, 2**32)
BEATS = st.sampled_from(BEAT_BOUNDARIES) | st.integers(min_value=0, max_value=2**40)
NAMES = st.from_regex(messages.NAME_RE, fullmatch=True)


@given(
    who=NAMES,
    role=st.sampled_from(["leader", "member"]) | st.text(),
    group=NAMES,
    first=BEATS,
    then=BEATS,
    read_first=st.booleans(),
)
def test_a_next_heartbeat_checks_only_its_beat(who, role, group, first, then, read_first):
    # `with_beat` is `replace(beat=...)`: the same fields and bytes as a
    # heartbeat built whole, whether or not the last one was encoded yet.
    fields = {"who": who, "role": role, "group": group, "beat": first}
    message = msg(MessageKind.HEARTBEAT, **fields)
    before = message.encoded if read_first else None
    later = message.with_beat(then)
    expect = msg(MessageKind.HEARTBEAT, **{**fields, "beat": then})
    assert later == expect and dict(later.fields) == dict(expect.fields)
    assert later.encoded == encode_message(expect)
    assert dict(message.fields) == fields and message.encoded == encode_message(message)
    assert before is None or message.encoded is before


def test_a_next_heartbeat_refuses_what_replace_refuses():
    message = msg(MessageKind.HEARTBEAT, who="a", role="member", group="g1", beat=5)
    for value in REPLACE_VALUES["int"][2]:
        with pytest.raises(encoding.EncodingError, match="HEARTBEAT field 'beat' is not int"):
            message.with_beat(value)
        with pytest.raises(encoding.EncodingError, match="HEARTBEAT field 'beat' is not int"):
            message.replace(beat=value)
    for kind in set(_FIELDS) - {MessageKind.HEARTBEAT}:
        other = msg(kind, **{name: REPLACE_VALUES[FIELD_TYPES[name]][0] for name in _FIELDS[kind]})
        with pytest.raises(encoding.EncodingError, match="is not a heartbeat"):
            other.with_beat(6)


def test_a_heartbeat_whose_beat_is_not_last_fails_at_import():
    # `with_beat` cuts a heartbeat's last field, so a schema that moved the
    # beat from the end would not load.
    import pathlib
    import types

    source = pathlib.Path(messages.__file__).read_text()
    order = 'MessageKind.HEARTBEAT: ("who", "role", "group", "beat")'
    assert source.count(order) == 1
    reordered = types.ModuleType("manetsec.reordered_messages")
    reordered.__package__ = "manetsec"
    code = compile(source.replace(order, 'MessageKind.HEARTBEAT: ("who", "beat", "role", "group")'), "<reordered>", "exec")
    with pytest.raises(RuntimeError, match="last field must be its beat"):
        exec(code, reordered.__dict__)


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
    leader = LeaderKeyService("L", "g1", "g1-1", keys["L"], provider, rng, authority.public, 8, SimParams())
    ctx = Ctx("L", 0, rng)
    leader.found_group([(name, keys[name].public) for name in ("c", "a", "b")], ctx, "founding")
    rekeys = [envelope for envelope in ctx.outbound if envelope.message.kind == MessageKind.REKEY]
    assert [envelope.to for envelope in rekeys] == ["a", "b", "c"]
    for member_id, envelope in enumerate(rekeys, start=1):
        member_key = derive_member_key(member_id, leader.member_secret, provider)
        assert provider.pk_decrypt(keys[envelope.to].private, envelope.message["sealed"]) == seal_plain(
            MessageKind.REKEY, "public", group_key=leader.group_key, epoch=leader.epoch, lineage=leader.lineage,
            rows=leader.directory_rows(), member_key=member_key, member_id=member_id,
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


# ---------------------------------------------------------------------------
# Opening one directory sealed to many members
# ---------------------------------------------------------------------------


def _member_plaintexts(rows, count):
    """Public-mode REKEY plaintexts that share `rows`, one per member."""
    return [
        encoding.encode(b"k" * 32, 2, "g1-1", rows, bytes([i]) * 32, i, "L", b"pl") for i in range(1, count + 1)
    ]


@pytest.mark.parametrize("damaged_row", [["b", "pb"], ["b"], ["b", b"pb", b"x"], [b"b", b"pb"], ["b", [b"pb"]]])
def test_damaged_directory_rejected_for_every_copy(damaged_row):
    good = [["a", b"pa"], ["b", b"pb"], ["c", b"pc"]]
    damaged = [good[0], damaged_row, good[2]]
    for order in ([good, damaged], [damaged, good]):
        directories = {}  # one memo for every copy, as over a run
        for rows in order:
            for plain in _member_plaintexts(rows, 4):
                if rows is good:
                    assert open_sealed(MessageKind.REKEY, plain, "public", directories)["rows"] == good
                else:
                    with pytest.raises(encoding.EncodingError, match="'rows' is not rows"):
                        open_sealed(MessageKind.REKEY, plain, "public", directories)
        # The same damaged rows under the group mode's layout, at another offset.
        with pytest.raises(encoding.EncodingError, match="'rows' is not rows"):
            open_sealed(MessageKind.REKEY, encoding.encode(b"k", 2, "g1-1", damaged), "group", directories)


@pytest.mark.parametrize("rows", [[["a", b"pa"], ["b", b"pb"]], []], ids=["two_rows", "empty"])
def test_directory_body_under_another_tag_rejected(rows):
    """A field that carries a good directory's body under a BYTES or STR tag
    fails the rows check, also after the directory itself has opened."""
    directories = {}
    assert open_sealed(MessageKind.REKEY, _member_plaintexts(rows, 1)[0], "public", directories)["rows"] == rows
    body = encoding.encode(*rows)
    for impostor in (body, body.decode("utf-8")):
        for plain in _member_plaintexts(impostor, 2):
            with pytest.raises(encoding.EncodingError, match="'rows' is not rows"):
                open_sealed(MessageKind.REKEY, plain, "public", directories)
        with pytest.raises(encoding.EncodingError, match="'rows' is not rows"):
            open_sealed(MessageKind.REKEY, encoding.encode(b"k", 2, "g1-1", impostor), "group", directories)


def test_opened_directories_share_no_list():
    rows = [["a", b"pa"], ["b", b"pb"], ["c", b"pc"]]
    plains = _member_plaintexts(rows, 3)
    directories = {}
    first, second = (open_sealed(MessageKind.REKEY, plain, "public", directories)["rows"] for plain in plains[:2])
    assert not {id(item) for item in _lists(first)} & {id(item) for item in _lists(second)}
    first[0][0] = "z"
    first[1].append(b"x")
    first.append(["d", b"pd"])
    assert second == rows
    assert [open_sealed(MessageKind.REKEY, plain, "public", directories)["rows"] for plain in plains] == [rows] * 3
    [read] = directories.values()
    assert not {id(item) for item in _lists(read)} & {id(item) for got in (first, second) for item in _lists(got)}


# The layouts that carry a directory, and a memo-free reader of each: decode
# the whole plaintext, then check every field by its wire type.
_FOUNDING = [(MessageKind.REKEY, "group"), (MessageKind.REKEY, "public"), (MessageKind.MEMBER_SET, None)]


def _reference_open(kind, plaintext, mode):
    values = encoding.decode(plaintext)
    names = messages._SEALED[(kind, mode)].names
    if len(values) != len(names):
        raise encoding.EncodingError(f"plaintext does not fit any sealed {kind.name} layout")
    for name, value in zip(names, values):
        if not messages._TYPE_CHECKS[FIELD_TYPES[name]](value):
            raise encoding.EncodingError(f"sealed {kind.name} field {name!r} is not {FIELD_TYPES[name]}")
    return dict(zip(names, values))


def _reference_readings(kind, plaintext):
    values = encoding.decode(plaintext)
    return [dict(zip(messages._SEALED[(k, m)].names, values)) for k, m in _FOUNDING if k == kind]


@st.composite
def _damaged_founding(draw):
    """(kind, mode, the intact plaintext of a founding layout, a damaged one):
    its rows body under a BYTES or STR tag, rows of another shape, or
    neither, then maybe cut short or with one byte changed, once or twice
    (two faults, before and inside the rows, say, must raise the first)."""
    kind, mode = draw(st.sampled_from(_FOUNDING))
    names = messages._SEALED[(kind, mode)].names
    fields = [encoding.encode(draw(_WIRE[FIELD_TYPES[name]])) for name in names]
    intact = b"".join(fields)
    at = names.index("rows")
    damage = draw(st.sampled_from(["none", "bytes_tag", "str_tag", "shape"]))
    if damage == "shape":
        fields[at] = encoding.encode(draw(st.one_of(_nested, _table)))
    elif damage != "none":
        fields[at] = bytes([0x03 if damage == "bytes_tag" else 0x02]) + fields[at][1:]
    damaged = b"".join(fields)
    for _ in range(draw(st.integers(min_value=0 if damage != "none" else 1, max_value=2))):
        damaged = _damage(draw, damaged)
    return kind, mode, intact, damaged


def _outcome(read, *args):
    try:
        return read(*args)
    except encoding.EncodingError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "plaintext",
    [
        # The group key's tag unknown and a directory name not UTF-8: the
        # key's error comes first, though the rows are read before the rest.
        b"\x09"
        + encoding.encode(b"k", 2, "g1-1")[1:]
        + encoding.encode([["\u00e9", b"p"]]).replace(b"\xc3", b"\xff"),
        # The rows fine and the lineage not UTF-8.
        encoding.encode(b"k", 2, "\u00e9").replace(b"\xc3", b"\xff") + encoding.encode([["a", b"p"]]),
    ],
    ids=["key_tag_and_rows", "lineage"],
)
def test_a_plaintext_with_two_faults_raises_the_first(plaintext):
    expected = _outcome(_reference_open, MessageKind.REKEY, plaintext, "group")
    assert expected[0] is encoding.EncodingError
    directories = {}
    for _ in range(2):
        assert _outcome(open_sealed, MessageKind.REKEY, plaintext, "group", directories) == expected
    directories[encoding.encode([["a", b"p"]])] = [["a", b"p"]]  # as after an intact copy
    assert _outcome(open_sealed, MessageKind.REKEY, plaintext, "group", directories) == expected


@given(_damaged_founding(), st.booleans())
def test_directory_reader_matches_a_memo_free_reference(case, damaged_first):
    # Cold and warm, and with the damaged plaintext read before or after the
    # intact one: the same fields as the reference, or the same error.
    kind, mode, intact, damaged = case
    directories = {}
    for plaintext in [damaged, intact] * 2 if damaged_first else [intact, damaged] * 2:
        assert _outcome(open_sealed, kind, plaintext, mode, directories) == _outcome(
            _reference_open, kind, plaintext, mode
        )
        assert _outcome(sealed_readings, kind, plaintext, directories) == _outcome(
            _reference_readings, kind, plaintext
        )


# ---------------------------------------------------------------------------
# The wire bytes of every kind, against the grammar in encoding's docstring
# ---------------------------------------------------------------------------


def _field(tag: int, body: bytes) -> bytes:
    return bytes([tag]) + len(body).to_bytes(4, "big") + body


def _reference(value) -> bytes:
    """One field as `encoding`'s docstring lays it out: tag, four-octet
    big-endian length, body."""
    if isinstance(value, (list, tuple)):
        return _field(0x04, b"".join(_reference(item) for item in value))
    if isinstance(value, str):
        return _field(0x02, value.encode("utf-8"))
    if isinstance(value, bytes):
        return _field(0x03, value)
    body = b""
    while value:
        body, value = bytes([value & 0xFF]) + body, value >> 8
    return _field(0x01, body or b"\x00")


_WIDE_WIRE = {
    **_WIRE,
    "int": st.one_of(st.sampled_from([0, 1, 255, 256, 2**32 - 1, 2**32]), st.integers(min_value=0, max_value=2**300)),
    "str": st.text(max_size=12),
    "bytes": st.binary(max_size=300),
}


@st.composite
def _any_message_fields(draw):
    kind = draw(st.sampled_from(MessageKind))
    return kind, {name: draw(_WIDE_WIRE[FIELD_TYPES[name]]) for name in _FIELDS[kind]}


@given(_any_message_fields())
def test_every_kind_encodes_by_the_grammar_and_decodes_back(drawn):
    kind, fields = drawn
    message = msg(kind, **fields)
    expected = bytes([kind]) + b"".join(_reference(fields[name]) for name in _FIELDS[kind])
    assert encode_message(message) == expected
    assert message.encoded == expected
    back = decode_message(expected)
    assert back.kind == kind and dict(back.fields) == fields


@pytest.mark.parametrize(
    "fields, text",
    [
        ({"who": "a", "role": "member", "group": "g1"}, "HEARTBEAT fields do not match (missing=['beat'], unknown=[])"),
        (
            {"who": "a", "role": "member", "group": "g1", "beat": 1, "extra": 2},
            "HEARTBEAT fields do not match (missing=[], unknown=['extra'])",
        ),
        ({"who": "a", "role": "member", "group": "g1", "bet": 1}, "HEARTBEAT lacks field 'beat'"),
        ({"who": "a", "role": "member", "group": "g1", "beat": "1"}, "HEARTBEAT field 'beat' is not int"),
        ({"who": "a", "role": "member", "group": "g1", "beat": True}, "HEARTBEAT field 'beat' is not int"),
        ({"who": "a:b", "role": "member", "group": "g1", "beat": 1}, "HEARTBEAT field 'who' is not name"),
        ({"who": "a", "role": b"member", "group": "g1", "beat": 1}, "HEARTBEAT field 'role' is not str"),
    ],
)
def test_msg_names_what_is_wrong_with_its_fields(fields, text):
    with pytest.raises(encoding.EncodingError) as raised:
        msg(MessageKind.HEARTBEAT, **fields)
    assert str(raised.value) == text


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "booleans are not part of the wire format"),
        (-1, "negative integers are not part of the wire format"),
        (1.5, "cannot encode value of type float"),
        (None, "cannot encode value of type NoneType"),
        ([b"x", [False]], "booleans are not part of the wire format"),
    ],
)
def test_encode_names_what_it_refuses(value, text):
    with pytest.raises(encoding.EncodingError) as raised:
        encoding.encode(value)
    assert str(raised.value) == text


class _Name(str):
    pass


class _Blob(bytes):
    pass


def test_encode_refuses_int_enums_and_bytes_likes():
    # Only an int, str, bytes, list or tuple of exactly that type is encoded.
    refused = [MessageKind.HEARTBEAT, [MessageKind.REKEY], bytearray(b"ab"), memoryview(b"ab"), [b"ab", [bytearray(b"")]]]
    for value in refused:
        with pytest.raises(encoding.EncodingError, match="cannot encode value of type"):
            encoding.encode(value)


def test_str_and_bytes_subclasses_are_refused():
    # Neither encode nor a message check takes a subclass: a message takes a
    # field of its wire type's exact type alone.
    for value in (_Name("ab"), [_Name("a")], _Blob(b"ab")):
        with pytest.raises(encoding.EncodingError, match="cannot encode value of type"):
            encoding.encode(value)
    with pytest.raises(encoding.EncodingError, match="LEAVE field 'who' is not name"):
        msg(MessageKind.LEAVE, who=_Name("a"))
    with pytest.raises(encoding.EncodingError, match="CERT field 'subject_public' is not bytes"):
        msg(MessageKind.CERT, subject="a", subject_public=_Blob(b"k"), authority_sig=b"s")
    with pytest.raises(encoding.EncodingError, match="REKEY field 'rows' is not rows"):
        seal_plain(MessageKind.REKEY, "group", group_key=b"k", epoch=1, lineage="g1-1", rows=[[_Name("a"), b"p"]])
