"""Arbitrary well-encoded payloads delivered through `Simulation._step`.

Every message kind is built from field values that mostly fit the wire
schema and sometimes do not, with sealed fields that are often sealed under
a real group, member, pending-member or ring key, or to a real public key,
so that the handlers' openers see well-typed and ill-typed plaintexts alike.
A payload `decode_message` rejects counts as dropped; anything it accepts
goes to a leader, a member, a non-member, the other group's leader (a
gateway holding the ring key) and a node halfway through its join.  No
exception may escape.
"""

import copy
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from manetsec import encoding
from manetsec.artifacts import parse_log_text
from manetsec.keymgmt import derive_member_key
from manetsec.messages import _FIELDS, _SEALED, FIELD_TYPES, PK, Envelope, MessageKind, decode_message, msg, seal_plain
from manetsec.scenariofile import parse_scenario
from manetsec.sim import Simulation

FIXTURE = """[params]
duration = 7
[nodes]
L1 1.0 0,0
M1 0.5 20,0
J 0.5 40,0
N 0.5 60,0
L2 1.0 80,0
M2 0.5 100,0
[groups]
g1 4 L1 M1
g2 4 L2 M2
[script]
1 join J g1
5 session M1 L1
6 discover M1 L1
"""
RECIPIENTS = ("L1", "M1", "N", "L2", "J")
NAMES = ("L1", "M1", "J", "N", "L2", "M2", "*", "", "zz")


def _fixture() -> Simulation:
    """Both groups founded, the leaders hold the ring key, J is waiting for
    its member set (its member key is issued, not yet used), and M1 waits
    for a session answer and a route reply from L1."""
    sim = Simulation(parse_scenario(FIXTURE))
    sim.run()
    return sim


def _key_material(sim: Simulation):
    """The fixture's symmetric keys by role, every (lineage, epoch) in use,
    and every node's public key."""
    pools = {"group": [], "member": [], "ring": [], "pending": []}
    epochs = [("ring", 0)]
    for name in ("L1", "M1", "J", "L2", "M2"):
        node = sim.nodes[name]
        pools["member"].append(node.member.member_key)
        pools["ring"].append(node.ring_key)
        pools["group"] += list(node.member.keyring.values())
        epochs += list(node.member.keyring)
        leader = node.leader_service
        if leader is not None:
            pools["group"] += list(leader.keyring.values())
            pools["member"] += [
                derive_member_key(member_id, leader.member_secret, sim.provider)
                for member_id in range(1, leader.next_member_id)
            ]
            epochs += list(leader.keyring)
            pools["pending"] += [s.pending_key for s in leader.join_sessions.values()]
    pools = {role: sorted({k for k in keys if k}) for role, keys in pools.items()}
    publics = [pair.public for pair in sim.log.registry.keypairs.values()]
    return pools, sorted(set(epochs)), publics


_SIM = _fixture()
POOLS, EPOCHS, PUBLICS = _key_material(_SIM)
KEYS = sorted({key for keys in POOLS.values() for key in keys})
# The keys each kind is sealed under in an honest run.
HONEST_KEYS = {
    MessageKind.NONCE: POOLS["pending"],
    MessageKind.MEMBER_SET: POOLS["member"],
    MessageKind.REKEY: POOLS["group"],
    MessageKind.DATA: POOLS["group"] + POOLS["ring"],
    MessageKind.GROUP_REQ: POOLS["ring"],
    MessageKind.GROUP_REP: POOLS["ring"],
    MessageKind.GROUP_NEG: POOLS["ring"],
}
STRINGS = NAMES + ("g1", "g2", "ring", "group", "public", "leader", "member") + tuple(
    lineage for lineage, _ in EPOCHS
) + tuple(variant for _, variant in _SEALED if variant)

_scalar = st.one_of(
    st.integers(min_value=0, max_value=2**70), st.text(max_size=6), st.binary(max_size=40)
)
_anything = st.recursive(_scalar, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_int = st.one_of(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**70))
_str = st.one_of(st.sampled_from(NAMES), st.sampled_from(STRINGS), st.text(max_size=6))
_bytes = st.one_of(st.sampled_from(KEYS + PUBLICS), st.binary(max_size=40))
_TYPED = {
    "int": _int,
    "str": _str,
    "name": _str,
    "bytes": _bytes,
    "list[int]": st.lists(_int, max_size=3),
    "list[name]": st.lists(st.sampled_from(NAMES), max_size=5),
    "list[bytes]": st.lists(_bytes, max_size=4),
    "rows": st.lists(st.tuples(_str, _bytes).map(list), max_size=4),
}


def _value(name: str):
    """Mostly a value of the field's wire type, sometimes anything at all."""
    return st.integers(min_value=0, max_value=5).flatmap(
        lambda roll: _anything if roll == 0 else _TYPED[FIELD_TYPES[name]]
    )


@st.composite
def _sealed(draw, kind: MessageKind, header: dict):
    """A sealed field: noise, or a plaintext sealed under a real key.  The
    plaintext fits one of the kind's layouts, or is any encodable value
    list, or is not an encoding at all."""
    variants = [variant for k, variant in _SEALED if k == kind]
    variant = draw(st.sampled_from(variants))
    layout = _SEALED[(kind, variant)]
    shape = draw(st.sampled_from(("layout", "layout", "values", "raw")))
    if shape == "layout":
        fields = {name: draw(_value(name)) for name in layout.names}
        if variant is not None and kind != MessageKind.REKEY:
            fields["tag"] = variant
        try:
            plain = seal_plain(kind, variant if kind == MessageKind.REKEY else None, **fields)
        except encoding.EncodingError:
            plain = encoding.encode(*fields.values())
    elif shape == "values":
        plain = encoding.encode(*draw(st.lists(_anything, max_size=8)))
    else:  # not an encoding, or one whose string is not UTF-8
        plain = draw(st.one_of(st.binary(max_size=40), st.just(encoding.encode("tag")[:5] + b"\xff\xfe\xfd")))
    if kind in (MessageKind.REKEY, MessageKind.DATA) and draw(st.booleans()):
        header["lineage"], header["epoch"] = draw(st.sampled_from(EPOCHS))
        if kind == MessageKind.REKEY:
            header["mode"] = variant
        elif header["route"] and isinstance(header["route"], list):
            header["hop"] = len(header["route"]) - 1
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        return draw(st.binary(max_size=60))
    if layout.seal == PK:
        return _SIM.provider.pk_encrypt(draw(st.sampled_from(PUBLICS)), plain, rng)
    keys = HONEST_KEYS.get(kind, KEYS) if draw(st.integers(min_value=0, max_value=3)) else KEYS
    return _SIM.provider.sym_encrypt(draw(st.sampled_from(keys)), plain, rng)


@st.composite
def _payload(draw, kind: MessageKind) -> bytes:
    header = {name: draw(_value(name)) for name in _FIELDS[kind] if name != "sealed"}
    if "sealed" in _FIELDS[kind]:
        header["sealed"] = draw(_sealed(kind, header))
    values = [header[name] for name in _FIELDS[kind]]
    return bytes([kind]) + encoding.encode(*values)


def _copy_of_fixture() -> Simulation:
    """A private copy of the fixture; messages copy as themselves, so the
    copy shares them."""
    return copy.deepcopy(_SIM)


def test_fixture_holds_every_recipient_role():
    sim = _copy_of_fixture()
    leaders = {name for name in RECIPIENTS if sim.nodes[name].leader_service is not None}
    assert leaders == {"L1", "L2"} and all(sim.nodes[name].ring_key for name in leaders)
    assert sim.nodes["M1"].member.is_member() and not sim.nodes["N"].keys.group_id
    assert sim.nodes["J"].member.join.expects == MessageKind.MEMBER_SET and not sim.nodes["J"].keys.group_id


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.name)
@settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_arbitrary_payload_is_dropped_or_handled(kind, data):
    payload = data.draw(_payload(kind))
    try:
        message = decode_message(payload)
    except encoding.EncodingError:
        return  # rejected on decode: dropped as malformed
    sim = _copy_of_fixture()
    sender = data.draw(st.sampled_from(NAMES[:6]))
    for recipient in RECIPIENTS:
        to = data.draw(st.sampled_from((recipient, "*")))
        channel = data.draw(st.sampled_from(("radio", "ring")))
        node = sim.nodes[recipient]
        sim._step(recipient, node.handle, Envelope(message, sender, to, channel))
        sim._step(recipient, node.on_tick)
    assert parse_log_text(sim.log.to_text()).events == sim.log.events


@pytest.mark.parametrize("source", ["a\tb\nc", "x:y=z"])
def test_wire_names_cannot_corrupt_the_log(source):
    # An RREQ naming a source that would split M1's log line (a tab, a line
    # break) or read back as other detail parts (`x:y=z` as `source=x` and
    # `y=z`).  It must be dropped as malformed, and the log must read back
    # as the events that were logged.
    sim = _copy_of_fixture()
    payload = bytes([MessageKind.RREQ]) + encoding.encode(source, "L1", 1, 8, [], [], b"")
    try:
        message = decode_message(payload)
    except encoding.EncodingError:
        message = None
    else:
        sim._step("M1", sim.nodes["M1"].handle, Envelope(message, "N", "*"))
    assert parse_log_text(sim.log.to_text()).events == sim.log.events
    assert message is None


SHORT = b"\x05" * 5  # no symmetric key of the real provider is this size


@pytest.mark.parametrize("forged", ["public:group_key", "public:member_key", "group:group_key", "member_set"])
def test_member_adopts_no_key_of_the_wrong_size(forged):
    # Under real crypto a 5-byte key would make the next seal under it raise;
    # the member must refuse it and keep working with what it holds.
    scenario = parse_scenario(FIXTURE)
    scenario.provider_name = "real_crypto"
    sim = Simulation(scenario)
    sim.run()
    provider, rng = sim.provider, random.Random(9)
    publics = {n: pair.public for n, pair in sim.log.registry.keypairs.items()}
    name = "J" if forged == "member_set" else "M1"
    node = sim.nodes[name]
    member = node.member
    held = (member.group_id, member.lineage, member.epoch, member.group_key, member.member_key, member.leader)
    if forged == "member_set":
        plain = seal_plain(
            MessageKind.MEMBER_SET, nonce=member.join.nonce, rows=[], group_key=SHORT, lineage="g1-1", epoch=0,
            group="g1",
        )
        message = msg(MessageKind.MEMBER_SET, join_id="J", sealed=provider.sym_encrypt(member.member_key, plain, rng))
        verdict = "join_abort:bad_member_set_seal"
    elif forged == "group:group_key":
        plain = seal_plain(
            MessageKind.REKEY, "group", group_key=SHORT, epoch=member.epoch + 1, lineage=member.lineage, rows=[]
        )
        sealed = provider.sym_encrypt(member.group_key, plain, rng)
        message = msg(MessageKind.REKEY, group="g1", lineage=member.lineage, epoch=member.epoch, mode="group",
                      sealed=sealed)
        verdict = "rekey_undecryptable:bad_key"
    else:
        group_key, member_key = (SHORT, b"") if forged == "public:group_key" else (b"\x07" * 32, SHORT)
        plain = seal_plain(
            MessageKind.REKEY, "public", group_key=group_key, epoch=9, lineage="g1-9", rows=[["N", publics["N"]]],
            member_key=member_key, member_id=0, leader="N", leader_public=publics["N"],
        )
        sealed = provider.pk_encrypt(publics["M1"], plain, rng)
        message = msg(MessageKind.REKEY, group="g1", lineage="g1-9", epoch=9, mode="public", sealed=sealed)
        verdict = "rekey_undecryptable:bad_key"
    sim._step(name, node.handle, Envelope(message, "N", name))
    assert (sim.log.events[-1].kind, sim.log.events[-1].detail) == ("verdict", verdict)
    assert (member.group_id, member.lineage, member.epoch, member.group_key, member.member_key, member.leader) == held
    if forged != "member_set":
        sim._step(name, node.send_data, "*", "still keyed")
        assert sim.log.events[-1].kind == "send" and sim.log.events[-1].detail.startswith("DATA:to=*:")


@pytest.mark.parametrize(
    "case,reason",
    [("last_hop", "no_key"), ("last_hop", "auth"), ("relay", "no_key"), ("relay", "auth")],
    ids=lambda value: value,
)
def test_undecryptable_data_is_dropped_and_neither_consumed_nor_relayed(case, reason):
    # A chat routed to M1, as its destination or as a relay on to N, under
    # an epoch M1 does not hold or under its own key with a failing tag.
    sim = _copy_of_fixture()
    node, rng = sim.nodes["M1"], random.Random(5)
    (lineage, epoch), key = next(iter(node.member.keyring.items()))
    plain = seal_plain(MessageKind.DATA, "chat", tag="chat", source="L1", text="hello")
    sealed = sim.provider.sym_encrypt(key, plain, rng)
    if reason == "no_key":
        lineage, epoch = "g1-7", 7
    else:
        sealed = sealed[:-1] + bytes([sealed[-1] ^ 1])
    route = ["L1", "M1"] + (["N"] if case == "relay" else [])
    data = msg(MessageKind.DATA, group="g1", lineage=lineage, epoch=epoch, route=route, hop=1, sealed=sealed)
    held, logged = dict(node.member.keyring), len(sim.log.events)
    sim._step("M1", node.handle, Envelope(data, "L1", "M1"))
    assert [(e.kind, e.detail) for e in sim.log.events[logged:]] == [("drop", f"data_undecryptable:{reason}")]
    assert node.member.keyring == held
