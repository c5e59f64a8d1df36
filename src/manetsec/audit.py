"""Post-run auditor: replays an event log and checks the security claims.

The auditor owns the run registry (every principal's key material and every
generated secret), so for any principal it can reconstruct the *knowledge
set*: the closure of what that principal generated itself plus everything
it could decrypt from the traffic it received or overheard.  Secrecy
checks are then literal: take the departed (or newly joined) node's
knowledge and brute-force it against every group ciphertext outside its
membership, expecting zero successful decryptions.

A knowledge set holds key bytes, never names for them.  The registry names
each secret once, where it was made (see `Ctx.secret`), so backward secrecy
also asks whether a departed node holds the bytes of a group key minted
after it left, comparing them with the registry's record of that key.

A sender can legitimately still use a retired key while its own copy of
the rekey is in flight (multi-hop delivery takes one tick per hop), so a
ciphertext under an old epoch only counts against backward secrecy if its
sender had already received newer key material when it spoke.

An audit reads the log once.  Events hold their principals and detail
parts as fields, and one pass over them gathers every fact the ten checks
share: event positions by kind and deliveries by recipient; the rekey
points in log order, by group and by key; the membership changes and
intervals; the handshake steps (`zk_ok` and `cert_ok` verdicts and
handshake admissions) in log order; and each delivery or drop of a
numbered transmission with the tick of that transmission's latest send so
far.  No property walks the log again: each judges lists the pass already
holds, and secret confinement reads the events only when some payload
leaks.  Each distinct payload is decoded at most once, each principal's
knowledge set is closed once and shared by both secrecy checks, and each
distinct (key, ciphertext) trial decryption runs once, its outcome shared
by every principal that tries it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import encoding
from .crypto import DecryptionError, make_provider
from .messages import PK, MessageKind, decode_message, sealed_readings, seals
from .routing import expected_chain
from .sim import EventLog, SimEvent, SimulationError


@dataclass
class PropertyResult:
    name: str
    passed: bool
    counterexamples: list = field(default_factory=list)  # event indices

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = " at events " + ",".join(str(i) for i in self.counterexamples[:8]) if self.counterexamples else ""
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
    sym_keys: dict  # key bytes -> None, in the order they were learned
    private_key: Optional[bytes]
    opened: set  # digests this principal could open


# ---------------------------------------------------------------------------
# The log index
# ---------------------------------------------------------------------------


@dataclass
class RekeyPoint:
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


def _transmission(event: SimEvent) -> tuple:
    """The event's transmission number (None when it has none) and, for a
    delivery or drop, its hop count (1 when it names none).  A send's hop
    count is None: no check reads it.

    The simulator ends a transmission's parts with its `tx` pair, just
    after its `hops` pair when it has one; a delivery or drop whose only
    other part is a word names no hops.  Those parts are read by position,
    any other by name."""
    parts = event.parts
    last = parts[-1] if parts else ""
    in_place = not isinstance(last, str) and last[0] == "tx"
    tx = last[1] if in_place else event.get("tx")
    if event.kind == "send":
        return tx, None
    if in_place and len(parts) > 1:
        before = parts[-2]
        if isinstance(before, str):
            if len(parts) == 2:
                return tx, 1
        elif before[0] == "hops":
            return tx, int(before[1])
    return tx, int(event.get("hops", 1))


class _LogIndex:
    """What the property checks read, built in one pass over the log.

    It lives for one `audit()` (or one `knowledge_set()`) call.  It holds
    event positions, not events: `by_kind`, `received` and the gathered
    records index into `events`, the log's own list.  Each send, delivery
    and drop is read once, here, through `_transmission`, and causality
    and conservation are judged as it is read.  Payloads are
    decoded on first use and each principal's knowledge set is closed on
    first use; both are then kept for the index's life, as is the outcome
    of each symmetric trial decryption (see `sym_open`).
    """

    def __init__(self, log: EventLog):
        self.registry = log.registry
        self.payloads = log.payloads
        self.provider = make_provider(log.registry.provider_name)
        self.events = log.events
        self.horizon = log.events[-1].tick if log.events else 0
        # kind -> positions, for every kind but deliveries and drops
        self.by_kind: dict[str, list] = defaultdict(list)
        self.received: dict[str, list] = defaultdict(list)  # recipient -> positions of deliveries carrying a payload
        self.rekeys = []  # rekey points in log order
        self.rekey_counts: dict[str, int] = {}  # group -> its rekeys; a lineage's prefix names its group
        self.key_positions: dict = {}  # (group, lineage, epoch) -> its first position in the group's rekey order
        self.changes = []  # membership changes in log order
        self.handshakes = []  # (position, "zk_ok" | "cert_ok" | "handshake", node) in log order
        # Positions of the deliveries and drops that follow no send of their
        # transmission or arrive off time (causality), and that repeat a
        # recipient's outcome of one transmission (conservation).
        self.causality_failures = []
        self.conservation_failures = []
        self._messages: dict = {}
        self._knowledge: dict = {}
        self._trials: dict = {}  # sealed -> {key: plaintext, or None when it does not open}
        leaders: dict[str, str] = {}
        latest: dict[str, int] = {}  # tx -> tick of its latest send so far
        # (tx, recipient) of each outcome so far; a dict, because a set of
        # as many keys grows its table fourfold and takes more memory.
        outcomes: dict[tuple, None] = {}
        by_kind, received = self.by_kind, self.received
        for i, event in enumerate(log.events):
            kind = event.kind
            if kind == "deliver" or kind == "drop":
                if kind == "deliver" and event.digest != "-":
                    received[event.recipient].append(i)
                tx, hops = _transmission(event)
                if tx is not None:
                    # A delivery is due `hops` ticks after the latest send of
                    # its transmission; a drop needs only some earlier send.
                    sent = latest.get(tx)
                    if sent is None or (kind == "deliver" and event.tick - hops != sent):
                        self.causality_failures.append(i)
                    key = (tx, event.recipient or event.principals)
                    if key in outcomes:
                        self.conservation_failures.append(i)
                    outcomes[key] = None
                continue
            by_kind[kind].append(i)
            if kind == "send":
                tx = _transmission(event)[0]
                if tx is not None:
                    latest[tx] = event.tick
            elif kind == "verdict":
                if event.parts == ("zk_ok",) or event.parts == ("cert_ok",):
                    self.handshakes.append((i, event.parts[0], event.about))
            elif kind == "rekey" and event.word != "ring":
                lineage, epoch = event.get("lineage"), event.get("epoch")
                if lineage is not None and epoch is not None:
                    group, epoch = lineage.rsplit("-", 1)[0], int(epoch)
                    count = self.rekey_counts.get(group, 0)
                    self.key_positions.setdefault((group, lineage, epoch), count)
                    self.rekey_counts[group] = count + 1
                    self.rekeys.append(RekeyPoint(i, event.tick, lineage, epoch))
            elif kind in ("admit", "remove"):
                self.changes.append(
                    MembershipChange(i, event.tick, event.about, "in" if kind == "admit" else "out")
                )
                if kind == "admit" and event.parts == ("handshake",):
                    self.handshakes.append((i, "handshake", event.about))
            elif kind == "elect":
                group = event.get("group")
                previous = leaders.get(group)
                if previous is not None and previous != event.actor:
                    self.changes.append(MembershipChange(i, event.tick, previous, "out"))
                leaders[group] = event.actor
                self.changes.append(MembershipChange(i, event.tick, event.actor, "in"))
        self.intervals = _membership_intervals(self.changes)

    def of_kind(self, kind: str):
        """(position, event) of each event of the kind, in log order."""
        events = self.events
        for i in self.by_kind.get(kind, ()):
            yield i, events[i]

    def sym_open(self, key: bytes, sealed: bytes) -> Optional[bytes]:
        """The plaintext of `sealed` under `key`, or None when it does not open.

        Both providers decrypt deterministically, so the outcome of a trial
        is a pure function of the key and the ciphertext: each distinct pair
        is tried once per audit and every principal holding the key shares
        the answer.  Each principal still gets a real answer for every key
        it holds against every ciphertext; only the recomputation is saved.
        """
        tried = self._trials.get(sealed)
        if tried is None:
            tried = self._trials[sealed] = {}
        elif key in tried:
            return tried[key]
        try:
            plain = self.provider.sym_decrypt(key, sealed)
        except DecryptionError:
            plain = None
        tried[key] = plain
        return plain

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
    def minted(self) -> dict:
        """(lineage, epoch) -> the group key the registry says was minted for it."""
        return {label[1:]: value for _, _, label, value in self.registry.secrets if label[0] == "group_key"}

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
        events = self.events
        for recipient, positions in self.received.items():
            for i in positions:
                event = events[i]
                message = self.message(event.digest)
                if message is None or message.kind != MessageKind.REKEY:
                    continue
                carried = message["epoch"] + (1 if message["mode"] == "group" else 0)
                out.setdefault(recipient, []).append((event.tick, message["lineage"], carried))
        return out


# ---------------------------------------------------------------------------
# Knowledge sets
# ---------------------------------------------------------------------------

# The sealed-plaintext fields that carry a symmetric key.
_KEY_FIELDS = ("group_key", "member_key", "session_key")


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
    sym_keys: dict[bytes, None] = {}
    for entry_tick, owner, label, value in registry.secrets:
        if owner == principal and entry_tick <= horizon and label[0] != "member_secret":
            sym_keys[value] = None

    events = index.events
    digests = dict.fromkeys(
        events[i].digest for i in index.received.get(principal, ()) if events[i].tick <= horizon
    )
    received = [(d, m) for d in digests if (m := index.message(d)) is not None]
    opened: set[str] = set()
    progress = True
    while progress:
        progress = False
        for digest, message in received:
            if digest in opened:
                continue
            plain = _try_open(index, message, private, sym_keys)
            if plain is None:
                continue
            opened.add(digest)
            progress = True
            _harvest_keys(message, plain, sym_keys)
    return KnowledgeSet(sym_keys=sym_keys, private_key=private, opened=opened)


def _try_open(index: _LogIndex, message, private, sym_keys) -> Optional[bytes]:
    """The plaintext of the message's sealed field, if these keys open it."""
    if "sealed" not in message.fields:
        return None
    sealed = message["sealed"]
    for seal in seals(message.kind, message.fields.get("mode")):
        if seal == PK:
            if private is None:
                continue
            try:
                return index.provider.pk_decrypt(private, sealed)
            except DecryptionError:
                continue
        for key in sym_keys:
            plain = index.sym_open(key, sealed)
            if plain is not None:
                return plain
    return None


def _harvest_keys(message, plain, sym_keys) -> None:
    """Add every non-empty key a layout of the message's kind places in the
    plaintext, whatever the other fields hold; an undecodable plaintext
    yields none."""
    try:
        readings = sealed_readings(message.kind, plain)
    except encoding.EncodingError:
        return
    for fields in readings:
        for name in _KEY_FIELDS:
            key = fields.get(name)
            if isinstance(key, bytes) and key:
                sym_keys.setdefault(key, None)


# ---------------------------------------------------------------------------
# Ciphertexts and membership
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
    for i, event in index.of_kind("send"):
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
                    i, event.tick, message["group"], message["lineage"], message["epoch"],
                    message["sealed"], event.actor,
                )
            )
        elif message.kind == MessageKind.REKEY:
            pk_ct.append(PkCiphertext(i, event.tick, event.get("to"), message["sealed"]))
    return group_ct, pk_ct


def _stale_sender_excused(index: _LogIndex, ct: GroupCiphertext) -> bool:
    """True when the ciphertext's sender spoke under its (lineage, epoch)
    at its tick in honest staleness: a newer key had been minted, but the
    sender's copy of that rekey had not reached it yet.  If no newer key
    exists at all, the missing rotation is precisely the violation and
    nothing is excused."""
    positions = index.key_positions
    position = positions.get((ct.group, ct.lineage, ct.epoch))
    if position is None or position >= index.rekey_counts[ct.group] - 1:
        return False
    for deliver_tick, got_lineage, got_epoch in index.rekeys_received.get(ct.sender, []):
        if deliver_tick + 1 > ct.tick:
            continue
        got_position = positions.get((ct.group, got_lineage, got_epoch))
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


def _was_member_at(spans: list, tick: int) -> bool:
    """Whether one of a node's membership spans covers `tick`."""
    for start, end in spans:
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


def _attempt_all(index: _LogIndex, knowledge: KnowledgeSet, sealed: bytes) -> bool:
    """True if any key in the knowledge set opens the ciphertext."""
    for key in knowledge.sym_keys:
        if index.sym_open(key, sealed) is not None:
            return True
    return False


def _check_backward_secrecy(index: _LogIndex) -> PropertyResult:
    group_ct, pk_ct = index.ciphertexts
    intervals = index.intervals
    failures = []
    for change in index.changes:
        if change.change != "out":
            continue
        node, out_idx = change.node, change.event_index
        knowledge = index.knowledge(node)
        spans = intervals.get(node, [])
        # Holding a group key minted after this departure, in log order, is
        # itself a leak, unless a later re-admission covers it.  A key minted
        # earlier in the departure's own tick was rightly sealed to the node.
        for point in index.rekeys:
            if (
                point.event_index > out_idx
                and not _was_member_at(spans, point.tick)
                and index.minted.get((point.lineage, point.epoch)) in knowledge.sym_keys
            ):
                failures.append(out_idx)
        for ct in group_ct:
            if _was_member_at(spans, ct.tick):
                continue
            # Only traffic a then-current member originated counts as group
            # traffic; stale chatter from an outsider is not protected data.
            if not _was_member_at(intervals.get(ct.sender, []), ct.tick):
                continue
            if _attempt_all(index, knowledge, ct.sealed) and not _stale_sender_excused(index, ct):
                failures.append(ct.event_index)
        if knowledge.private_key is not None:
            for ct in pk_ct:
                if ct.recipient == node or _was_member_at(spans, ct.tick):
                    continue
                try:
                    index.provider.pk_decrypt(knowledge.private_key, ct.sealed)
                    failures.append(ct.event_index)
                except DecryptionError:
                    pass
    return PropertyResult("backward_secrecy", not failures, sorted(set(failures)))


def _check_forward_secrecy(index: _LogIndex) -> PropertyResult:
    group_ct, _ = index.ciphertexts
    intervals = index.intervals
    failures = []
    for i, step, node in index.handshakes:
        if step != "handshake":
            continue
        join_tick = index.events[i].tick
        knowledge = index.knowledge(node)
        # Epochs inside earlier membership intervals of this node are its
        # own history, not "the past" this property protects.
        spans = [s for s in intervals.get(node, []) if s[0] < join_tick]
        for ct in group_ct:
            if ct.tick > join_tick:
                continue
            if not _was_member_at(intervals.get(ct.sender, []), ct.tick):
                continue
            if _was_member_at(spans, ct.tick):
                continue
            if _attempt_all(index, knowledge, ct.sealed):
                failures.append(ct.event_index)
    return PropertyResult("forward_secrecy", not failures, sorted(set(failures)))


def _check_mutual_auth(index: _LogIndex) -> PropertyResult:
    """Each handshake admission needs a `zk_ok` and a `cert_ok` for its node
    since that node's previous one."""
    zk_ok: set = set()
    cert_ok: set = set()
    failures = []
    for i, step, node in index.handshakes:
        if step == "zk_ok":
            zk_ok.add(node)
        elif step == "cert_ok":
            cert_ok.add(node)
        else:
            if node not in zk_ok or node not in cert_ok:
                failures.append(i)
            zk_ok.discard(node)
            cert_ok.discard(node)
    return PropertyResult("mutual_auth", not failures, failures)


def _check_chain_soundness(index: _LogIndex) -> PropertyResult:
    failures = []
    for i, event in index.of_kind("verdict"):
        if event.word != "accept" or event.digest == "-":
            continue
        message = index.message(event.digest)
        if message is None:
            failures.append(i)
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
            failures.append(i)
    return PropertyResult("chain_soundness", not failures, failures)


def _check_duplicate_suppression(index: _LogIndex) -> PropertyResult:
    seen = set()
    failures = []
    for i, event in index.of_kind("verdict"):
        source, seq = event.get("source"), event.get("seq")
        if event.word != "rreq_processed" or source is None or seq is None:
            continue
        key = (event.actor, source, seq)
        if key in seen:
            failures.append(i)
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
    hits = [i for i, event in index.of_kind(where) if test(event)]
    return (bool(hits) != (expectation.kind in _NEGATED), hits)


def _check_detection_outcomes(index: _LogIndex) -> PropertyResult:
    """A missed expectation points at the first event it matched; one that
    matched none has nothing to point at."""
    failures = [hits[0] for ok, hits in index.outcomes if not ok and hits]
    return PropertyResult("detection_outcomes", all(ok for ok, _ in index.outcomes), failures)


def _check_epoch_monotonicity(index: _LogIndex) -> PropertyResult:
    failures = []
    last: dict[str, int] = {}
    for point in index.rekeys:
        if point.lineage in last and point.epoch <= last[point.lineage]:
            failures.append(point.event_index)
        last[point.lineage] = point.epoch
    return PropertyResult("epoch_monotonicity", not failures, failures)


def _check_causality(index: _LogIndex) -> PropertyResult:
    """Each delivery or drop follows a send of its transmission; a delivery
    arrives `hops` ticks after the latest such send."""
    failures = index.causality_failures
    return PropertyResult("causality", not failures, failures)


def _check_conservation(index: _LogIndex) -> PropertyResult:
    """No recipient has two outcomes of one transmission."""
    failures = index.conservation_failures
    return PropertyResult("conservation", not failures, failures)


def _check_secret_confinement(index: _LogIndex) -> PropertyResult:
    """No payload holds a member secret.  The events are walked, for the
    positions that carry one, only when some payload does."""
    secrets = [
        value
        for _, _, label, value in index.registry.secrets
        if label[0] == "member_secret" and len(value) >= 8
    ]
    leaking = {
        digest
        for digest, payload in index.payloads.items()
        if any(secret in payload for secret in secrets)
    }
    failures = [i for i, event in enumerate(index.events) if event.digest in leaking] if leaking else []
    return PropertyResult("secret_confinement", not failures, failures)
