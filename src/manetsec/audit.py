"""Post-run auditor: replays an event log and checks the security claims.

The auditor owns the run registry (every principal's key material and every
generated secret), so for any principal it can reconstruct the *knowledge
set*: the closure of what that principal generated itself plus everything
it could decrypt from the traffic it received or overheard.  Secrecy
checks are then literal: take the departed (or newly joined) node's
knowledge and brute-force it against every group ciphertext outside its
membership, expecting zero successful decryptions.

A sender can legitimately still use a retired key while its own copy of
the rekey is in flight (multi-hop delivery takes one tick per hop), so a
ciphertext under an old epoch only counts against backward secrecy if its
sender had already received newer key material when it spoke.

An audit reads the log once.  Events hold their principals and detail
parts as fields, and one pass over them builds the index all ten checks
read from: deliveries by recipient, the rekey timeline and the membership
intervals.  Each
distinct payload is decoded at most once, and each principal's knowledge
set is closed once and shared by both secrecy checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from . import encoding
from .crypto import DecryptionError, make_provider
from .messages import PK, MessageKind, decode_message, sealed_readings, seals
from .routing import expected_chain
from .sim import EventLog, SimEvent, SimulationError

KEY_PROPAGATION_TICKS = 2


@dataclass
class PropertyResult:
    name: str
    passed: bool
    counterexamples: list = field(default_factory=list)  # event indices

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = "" if self.passed else " at events " + ",".join(str(i) for i in self.counterexamples[:8])
        return f"{self.name}: {status}{where}"


@dataclass
class AuditReport:
    results: list
    met: list = field(default_factory=list)  # whether each run expectation held, in order

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        return "\n".join(r.line() for r in self.results) + "\n"

    def result(self, name: str) -> PropertyResult:
        return next(r for r in self.results if r.name == name)


@dataclass
class KnowledgeSet:
    principal: str
    sym_keys: dict  # key bytes -> label
    private_key: Optional[bytes]
    opened: set  # digests this principal could open

    def has_key_labelled(self, prefix: str) -> bool:
        return any(label.startswith(prefix) for label in self.sym_keys.values())


# ---------------------------------------------------------------------------
# The log index
# ---------------------------------------------------------------------------


class _Entry(NamedTuple):
    index: int  # position in the log
    event: SimEvent


@dataclass
class RekeyPoint:
    index: int  # position in the group's rekey order
    event_index: int
    tick: int
    lineage: str
    epoch: int


@dataclass
class MembershipChange:
    event_index: int
    tick: int
    node: str
    change: str  # "in" | "out"


class _LogIndex:
    """What the property checks read, built in one pass over the log.

    It lives for one `audit()` (or one `knowledge_set()` / `expectation_met()`)
    call.  Payloads are decoded on first use and each principal's knowledge
    set is closed on first use; both are then kept for the index's life.
    """

    def __init__(self, log: EventLog):
        self.registry = log.registry
        self.payloads = log.payloads
        self.provider = make_provider(log.registry.provider_name)
        self.horizon = log.events[-1].tick if log.events else 0
        self.entries = []
        self.by_kind: dict[str, list] = {}
        self.received: dict[str, list] = {}  # recipient -> deliveries carrying a payload
        self.timeline: dict[str, list] = {}  # group -> rekey points; lineage prefix names the group
        self.changes = []  # membership changes in log order
        self._messages: dict = {}
        self._knowledge: dict = {}
        leaders: dict[str, str] = {}
        for i, event in enumerate(log.events):
            entry = _Entry(i, event)
            self.entries.append(entry)
            kind = event.kind
            self.by_kind.setdefault(kind, []).append(entry)
            if kind == "deliver" and event.digest != "-":
                self.received.setdefault(event.recipient, []).append(entry)
            elif kind == "rekey" and event.word != "ring":
                lineage, epoch = event.get("lineage"), event.get("epoch")
                if lineage is not None and epoch is not None:
                    points = self.timeline.setdefault(lineage.rsplit("-", 1)[0], [])
                    points.append(RekeyPoint(len(points), i, event.tick, lineage, int(epoch)))
            elif kind in ("admit", "remove"):
                self.changes.append(
                    MembershipChange(i, event.tick, event.about, "in" if kind == "admit" else "out")
                )
            elif kind == "elect":
                group = event.get("group")
                previous = leaders.get(group)
                if previous is not None and previous != event.actor:
                    self.changes.append(MembershipChange(i, event.tick, previous, "out"))
                leaders[group] = event.actor
                self.changes.append(MembershipChange(i, event.tick, event.actor, "in"))
        self.intervals = _membership_intervals(self.changes)

    def of_kind(self, kind: str) -> list:
        return self.by_kind.get(kind, [])

    def message(self, digest: str):
        """The decoded payload, or None when it is missing or malformed."""
        if digest not in self._messages:
            payload = self.payloads.get(digest)
            try:
                self._messages[digest] = None if payload is None else decode_message(payload)
            except Exception:
                self._messages[digest] = None
        return self._messages[digest]

    def knowledge(self, principal: str) -> KnowledgeSet:
        """The principal's knowledge at the end of the log."""
        if principal not in self._knowledge:
            self._knowledge[principal] = knowledge_set(principal, self)
        return self._knowledge[principal]

    @cached_property
    def outcomes(self) -> list:
        """(met, hit event indices) of each run expectation, in order."""
        return [_expectation_met(self, expectation) for expectation in self.registry.expectations]

    @cached_property
    def ciphertexts(self) -> tuple:
        return _collect_ciphertexts(self)

    @cached_property
    def rekeys_received(self) -> dict:
        """recipient -> [(deliver tick, carried lineage, carried epoch)].

        A sealed-to-member rekey carries the epoch in its header; a rekey
        sealed under the previous group key carries that header epoch plus one.
        """
        out: dict = {}
        for recipient, entries in self.received.items():
            for entry in entries:
                message = self.message(entry.event.digest)
                if message is None or message.kind != MessageKind.REKEY:
                    continue
                carried = message["epoch"] + (1 if message["mode"] == "group" else 0)
                out.setdefault(recipient, []).append((entry.event.tick, message["lineage"], carried))
        return out


# ---------------------------------------------------------------------------
# Knowledge sets
# ---------------------------------------------------------------------------

# Sealed-plaintext field -> the label a key read from it is filed under.  A
# label's {name} placeholders are filled from the same plaintext.
_KEY_LABELS = {
    "group_key": "group_key:{lineage}:{epoch}",
    "member_key": "member_key",
    "session_key": "session_key",
}


def knowledge_set(principal: str, log, tick: Optional[int] = None) -> KnowledgeSet:
    """Closure of everything the principal holds or could decrypt by `tick`.

    `log` is an EventLog, or the index an audit already built from one.
    """
    registry = log.registry
    if principal not in registry.node_names and principal not in registry.adversary_names:
        raise SimulationError(f"unknown principal {principal!r}")
    index = log if isinstance(log, _LogIndex) else _LogIndex(log)
    horizon = tick if tick is not None else index.horizon

    keypair = registry.keypairs.get(principal)
    private = keypair.private if keypair is not None else None
    sym_keys: dict[bytes, str] = {}
    for entry_tick, owner, label, value in registry.secrets:
        if owner == principal and entry_tick <= horizon and not label.startswith("member_secret"):
            sym_keys[value] = label

    digests = dict.fromkeys(
        entry.event.digest for entry in index.received.get(principal, []) if entry.event.tick <= horizon
    )
    received = [(d, m) for d in digests if (m := index.message(d)) is not None]
    opened: set[str] = set()
    progress = True
    while progress:
        progress = False
        for digest, message in received:
            if digest in opened:
                continue
            plain = _try_open(index.provider, message, private, sym_keys)
            if plain is None:
                continue
            opened.add(digest)
            progress = True
            _harvest_keys(message, plain, sym_keys)
    return KnowledgeSet(principal=principal, sym_keys=sym_keys, private_key=private, opened=opened)


def _try_open(provider, message, private, sym_keys) -> Optional[bytes]:
    """The plaintext of the message's sealed field, if these keys open it."""
    if "sealed" not in message.fields:
        return None
    sealed = message["sealed"]
    for seal in seals(message.kind, message.fields.get("mode")):
        if seal == PK:
            if private is None:
                continue
            try:
                return provider.pk_decrypt(private, sealed)
            except DecryptionError:
                continue
        for key in list(sym_keys):
            try:
                return provider.sym_decrypt(key, sealed)
            except DecryptionError:
                continue
    return None


def _harvest_keys(message, plain, sym_keys) -> None:
    """File every non-empty key a layout of the message's kind places in the
    plaintext, whatever the other fields hold; an undecodable plaintext
    yields none."""
    try:
        readings = sealed_readings(message.kind, plain)
    except encoding.EncodingError:
        return
    for fields in readings:
        for name, label in _KEY_LABELS.items():
            key = fields.get(name)
            if isinstance(key, bytes) and key:
                try:
                    label = label.format_map(fields)
                except KeyError:
                    label = name
                sym_keys.setdefault(key, label)


# ---------------------------------------------------------------------------
# Ciphertexts and timelines
# ---------------------------------------------------------------------------


@dataclass
class GroupCiphertext:
    event_index: int
    tick: int
    group: str
    lineage: str
    epoch: int
    sealed: bytes
    sender: str = ""


@dataclass
class PkCiphertext:
    event_index: int
    tick: int
    recipient: str
    sealed: bytes


def _collect_ciphertexts(index: _LogIndex):
    """Group-key-sealed and member-addressed ciphertexts, one per distinct
    payload, attributed to the first transmitter (re-flooded copies carry
    the same bytes and say nothing new)."""
    group_ct, pk_ct = [], []
    seen = set()
    for entry in index.of_kind("send"):
        event = entry.event
        if event.digest == "-" or event.digest in seen:
            continue
        seen.add(event.digest)
        message = index.message(event.digest)
        if message is None:
            continue
        group_sealed = (message.kind == MessageKind.DATA and message["group"] != "ring") or (
            message.kind == MessageKind.REKEY and message["mode"] == "group"
        )
        if group_sealed:
            group_ct.append(
                GroupCiphertext(
                    entry.index, event.tick, message["group"], message["lineage"], message["epoch"],
                    message["sealed"], event.actor,
                )
            )
        elif message.kind == MessageKind.REKEY:
            pk_ct.append(PkCiphertext(entry.index, event.tick, event.get("to"), message["sealed"]))
    return group_ct, pk_ct


def _key_position(timeline: dict, group: str, lineage: str, epoch: int) -> Optional[int]:
    for point in timeline.get(group, []):
        if point.lineage == lineage and point.epoch == epoch:
            return point.index
    return None


def _stale_sender_excused(
    deliveries: dict, timeline: dict, sender: str, group: str, lineage: str, epoch: int, tick: int
) -> bool:
    """True when speaking under (lineage, epoch) at `tick` was honest
    staleness: a newer key had been minted, but the sender's copy of that
    rekey had not reached it yet.  If no newer key exists at all, the
    missing rotation is precisely the violation and nothing is excused."""
    position = _key_position(timeline, group, lineage, epoch)
    points = timeline.get(group, [])
    if position is None or position >= len(points) - 1:
        return False
    for deliver_tick, got_lineage, got_epoch in deliveries.get(sender, []):
        if deliver_tick + 1 > tick:
            continue
        got_position = _key_position(timeline, group, got_lineage, got_epoch)
        if got_position is not None and got_position > position:
            return False  # it already held newer material and spoke old anyway
    return True


def _membership_intervals(changes: list) -> dict:
    """node -> list of (start tick, end tick or None)."""
    intervals: dict[str, list] = {}
    for change in changes:
        spans = intervals.setdefault(change.node, [])
        if change.change == "in":
            if not spans or spans[-1][1] is not None:
                spans.append([change.tick, None])
        else:
            if spans and spans[-1][1] is None:
                spans[-1][1] = change.tick
    return intervals


def _was_member_at(intervals: dict, node: str, tick: int) -> bool:
    for start, end in intervals.get(node, []):
        if start <= tick and (end is None or tick < end):
            return True
    return False


# ---------------------------------------------------------------------------
# The audit itself
# ---------------------------------------------------------------------------


def audit(log: EventLog) -> AuditReport:
    if not log.complete:
        raise SimulationError("event log is truncated (no completion marker)")
    index = _LogIndex(log)
    results = [
        _check_backward_secrecy(index),
        _check_forward_secrecy(index),
        _check_mutual_auth(index),
        _check_chain_soundness(index),
        _check_duplicate_suppression(index),
        _check_detection_outcomes(index),
        _check_epoch_monotonicity(index),
        _check_causality(index),
        _check_conservation(index),
        _check_secret_confinement(index),
    ]
    return AuditReport(results, [met for met, _ in index.outcomes])


def _attempt_all(provider, knowledge: KnowledgeSet, sealed: bytes) -> bool:
    """True if any key in the knowledge set opens the ciphertext."""
    for key in knowledge.sym_keys:
        try:
            provider.sym_decrypt(key, sealed)
            return True
        except DecryptionError:
            continue
    return False


def _check_backward_secrecy(index: _LogIndex) -> PropertyResult:
    provider = index.provider
    group_ct, pk_ct = index.ciphertexts
    timeline, intervals = index.timeline, index.intervals
    failures = []
    for change in index.changes:
        if change.change != "out":
            continue
        node, out_tick, out_idx = change.node, change.tick, change.event_index
        knowledge = index.knowledge(node)
        # Holding a group key minted after this departure is itself a leak,
        # unless a later re-admission covers it.
        for key, label in knowledge.sym_keys.items():
            if not label.startswith("group_key:"):
                continue
            # The epoch is the last field; a crafted lineage may hold colons.
            lineage, epoch = label[len("group_key:"):].rsplit(":", 1)
            group = lineage.rsplit("-", 1)[0]
            for point in timeline.get(group, []):
                if point.lineage == lineage and point.epoch == int(epoch):
                    if point.tick >= out_tick and not _was_member_at(intervals, node, point.tick):
                        failures.append(out_idx)
        for ct in group_ct:
            if ct.tick < out_tick + KEY_PROPAGATION_TICKS:
                continue
            if _was_member_at(intervals, node, ct.tick):
                continue
            # Only traffic a then-current member originated counts as group
            # traffic; stale chatter from an outsider is not protected data.
            if not _was_member_at(intervals, ct.sender, ct.tick):
                continue
            if _attempt_all(provider, knowledge, ct.sealed):
                if not _stale_sender_excused(
                    index.rekeys_received, timeline, ct.sender, ct.group, ct.lineage, ct.epoch, ct.tick
                ):
                    failures.append(ct.event_index)
        if knowledge.private_key is not None:
            for ct in pk_ct:
                if ct.tick < out_tick + KEY_PROPAGATION_TICKS or ct.recipient == node:
                    continue
                if _was_member_at(intervals, node, ct.tick):
                    continue
                try:
                    provider.pk_decrypt(knowledge.private_key, ct.sealed)
                    failures.append(ct.event_index)
                except Exception:
                    pass
    return PropertyResult("backward_secrecy", not failures, sorted(set(failures)))


def _check_forward_secrecy(index: _LogIndex) -> PropertyResult:
    group_ct, _ = index.ciphertexts
    intervals = index.intervals
    failures = []
    for join in index.of_kind("admit"):
        if join.event.parts != ("handshake",):
            continue
        node, join_tick = join.event.about, join.event.tick
        knowledge = index.knowledge(node)
        # Epochs inside earlier membership intervals of this node are its
        # own history, not "the past" this property protects.
        spans = [s for s in intervals.get(node, []) if s[0] < join_tick]
        for ct in group_ct:
            if ct.tick > join_tick:
                continue
            if not _was_member_at(intervals, ct.sender, ct.tick):
                continue
            legitimate = any(
                start <= ct.tick and (end is None or ct.tick < end) for start, end in spans
            )
            if legitimate:
                continue
            if _attempt_all(index.provider, knowledge, ct.sealed):
                failures.append(ct.event_index)
    return PropertyResult("forward_secrecy", not failures, sorted(set(failures)))


def _check_mutual_auth(index: _LogIndex) -> PropertyResult:
    zk_ok: set = set()
    cert_ok: set = set()
    failures = []
    for entry in index.entries:
        event = entry.event
        if event.kind == "verdict":
            if event.parts == ("zk_ok",):
                zk_ok.add(event.about)
            elif event.parts == ("cert_ok",):
                cert_ok.add(event.about)
        elif event.kind == "admit" and event.parts == ("handshake",):
            node = event.about
            if node not in zk_ok or node not in cert_ok:
                failures.append(entry.index)
            zk_ok.discard(node)
            cert_ok.discard(node)
    return PropertyResult("mutual_auth", not failures, failures)


def _check_chain_soundness(index: _LogIndex) -> PropertyResult:
    failures = []
    for entry in index.of_kind("verdict"):
        if entry.event.word != "accept" or entry.event.digest == "-":
            continue
        message = index.message(entry.event.digest)
        if message is None:
            failures.append(entry.index)
            continue
        expect = expected_chain(
            index.provider,
            message["source"],
            message["dest"],
            message["seq"],
            message["lifetime"],
            message["route"],
        )
        if expect != message["chain"]:
            failures.append(entry.index)
    return PropertyResult("chain_soundness", not failures, failures)


def _check_duplicate_suppression(index: _LogIndex) -> PropertyResult:
    seen = set()
    failures = []
    for entry in index.of_kind("verdict"):
        event = entry.event
        source, seq = event.get("source"), event.get("seq")
        if event.word != "rreq_processed" or source is None or seq is None:
            continue
        key = (event.actor, source, seq)
        if key in seen:
            failures.append(entry.index)
        seen.add(key)
    return PropertyResult("duplicate_suppression", not failures, failures)


# Expectation kinds that want no matching event; each names its positive form.
_NEGATED = {"no_route": "route", "no_verdict": "verdict", "not_admitted": "admitted"}


def _expectation_met(index: _LogIndex, expectation) -> tuple[bool, list]:
    kind, args = _NEGATED.get(expectation.kind, expectation.kind), expectation.args
    if kind == "route":
        source, dest = args
        where, test = "verdict", lambda e: e.actor == source and e.parts[:2] == ("route_installed", ("dest", dest))
    elif kind == "verdict":
        node, prefix = args
        where, test = "verdict", lambda e: e.actor == node and e.detail.startswith(prefix)
    elif kind == "admitted":
        (node,) = args
        where, test = "admit", lambda e: e.about == node and e.parts == ("handshake",)
    elif kind == "session":
        a, b, status = args
        pair, word = f"{a}-{b}", f"session_{status}"
        where, test = "verdict", lambda e: e.about == pair and e.word == word
    elif kind == "alerted":
        (accused,) = args
        where, test = "alert", lambda e: e.about == accused
    else:
        raise SimulationError(f"unknown expectation kind {expectation.kind!r}")
    hits = [entry.index for entry in index.of_kind(where) if test(entry.event)]
    return (bool(hits) != (expectation.kind in _NEGATED), hits)


def expectation_met(log: EventLog, expectation) -> tuple[bool, list]:
    return _expectation_met(_LogIndex(log), expectation)


def _check_detection_outcomes(index: _LogIndex) -> PropertyResult:
    failures = []
    for n, (ok, hits) in enumerate(index.outcomes):
        if not ok:
            failures.append(hits[0] if hits else n)
    return PropertyResult("detection_outcomes", not failures, failures)


def _check_epoch_monotonicity(index: _LogIndex) -> PropertyResult:
    failures = []
    last: dict[str, int] = {}
    points = sorted((p for ps in index.timeline.values() for p in ps), key=lambda p: p.event_index)
    for point in points:
        if point.lineage in last and point.epoch <= last[point.lineage]:
            failures.append(point.event_index)
        last[point.lineage] = point.epoch
    return PropertyResult("epoch_monotonicity", not failures, failures)


def _check_causality(index: _LogIndex) -> PropertyResult:
    sends = {}
    failures = []
    for entry in index.entries:
        event = entry.event
        tx = event.get("tx")
        if tx is None:
            continue
        if event.kind == "send":
            sends[tx] = event.tick
        elif event.kind in ("deliver", "drop"):
            sent = sends.get(tx)
            hops = int(event.get("hops", 1))
            if sent is None or (event.kind == "deliver" and event.tick != sent + hops):
                failures.append(entry.index)
    return PropertyResult("causality", not failures, failures)


def _check_conservation(index: _LogIndex) -> PropertyResult:
    outcomes = set()
    failures = []
    for entry in index.entries:
        event = entry.event
        if event.kind not in ("deliver", "drop"):
            continue
        tx = event.get("tx")
        if tx is None:
            continue
        key = (tx, event.recipient or event.principals)
        if key in outcomes:
            failures.append(entry.index)
        outcomes.add(key)
    return PropertyResult("conservation", not failures, failures)


def _check_secret_confinement(index: _LogIndex) -> PropertyResult:
    secrets = [
        value
        for _, _, label, value in index.registry.secrets
        if label.startswith("member_secret") and len(value) >= 8
    ]
    leaking = {
        digest
        for digest, payload in index.payloads.items()
        if any(secret in payload for secret in secrets)
    }
    failures = [entry.index for entry in index.entries if entry.event.digest in leaking]
    return PropertyResult("secret_confinement", not failures, failures)
