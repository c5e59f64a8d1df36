"""Post-run auditor: replays an event log and checks the security claims.

The auditor owns the run registry (every principal's key material and every
generated secret), so for any principal it can reconstruct the *knowledge
set*: the closure of what that principal generated itself plus everything
it could decrypt from the traffic it received or overheard, by the end of
the log.  Secrecy checks are then literal: take the departed (or newly
joined) node's knowledge and brute-force it against every group ciphertext
outside its membership, expecting zero successful decryptions.

A knowledge set holds key bytes, never names for them.  The registry names
each secret once, where it was made (see `Ctx.secret`), so backward secrecy
also asks whether a departed node holds the bytes of a group key minted
after it left, comparing them with the registry's record of that key.

A sender can legitimately still use a retired key while its own copy of
the rekey is in flight (multi-hop delivery takes one tick per hop), so a
ciphertext under an old epoch only counts against backward secrecy if its
sender had already received newer key material when it spoke.

An audit reads the log once, at the cost of its transmissions and its
distinct sealed payloads.  Events hold their principals and detail parts
as fields, and one pass over them gathers every fact the ten checks share:
event positions by kind (sends, deliveries and drops aside); the first send
of each sealed payload, and each recipient's earliest delivery of each
sealed payload, however often it was re-flooded; the rekey points in log
order, by group and by key; the membership changes and intervals; the
handshake steps (`zk_ok` and `cert_ok` verdicts and handshake admissions)
in log order; and each delivery or drop of a numbered transmission with the
tick of that transmission's latest send so far, its facts read once per
hop.  A delivery or drop that names no transmission, such as a routing
`drop` note, is no transmission outcome.  No property walks the log again:
each judges what the pass already holds, and secret confinement reads the
events only when some payload leaks.  A payload's first octet is its kind
tag, and the audit reads that tag before anything else: it keeps a send or
delivery, and decodes a payload, only when its kind carries a sealed field
(`messages.SEALED_KINDS`), or decodes it when it is the request behind an
accepted route, and each such payload at most once.  Every other kind
holds nothing a principal could open, so skipping it changes no outcome.
Each principal's knowledge set is closed once and shared by both secrecy
checks, and each distinct (key, ciphertext) trial decryption runs once, its
outcome shared by every principal that tries it.  An opened plaintext is
read for the keys it carries once per audit, however many principals open
it.
Secret confinement searches for each member secret once per run of payloads
joined end to end (about a megabyte, never the whole sidecar at once) and
tests a run's payloads one by one only where the secret is found, so a
secret split across two payloads is in neither.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import encoding
from .crypto import DecryptionError, make_provider
from .messages import PK, SEALED_KINDS, MessageKind, decode_message, sealed_readings, seals
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
    """The event's transmission number and, for a delivery or drop, its hop
    count (1 when it names none), read by name: the last `tx` and `hops`
    pairs wherever they stand.  An event whose parts name no `tx` is no
    transmission outcome (a routing `drop` note is one), so it gets (None,
    None) before any hop count is read; a send's hop count is None too,
    since no check reads it.

    `_LogIndex` reads the simulator's own shapes by position and calls this
    only for any other."""
    tx = event.get("tx")
    if tx is None or event.kind == "send":
        return tx, None
    return tx, int(event.get("hops", 1))


def _sealed_kind(payload: Optional[bytes]) -> bool:
    """Whether the payload's first octet, its kind tag, names a kind that
    carries a sealed field: a payload of another kind, an unknown tag and
    an empty or missing payload hold nothing a principal could open."""
    return bool(payload) and payload[0] in SEALED_KINDS


_UNTRIED = object()  # a trial decryption `_LogIndex.sym_open` has not made yet


class _LogIndex:
    """What the property checks read, built in one pass over the log.

    It lives for one `audit()` (or one `knowledge_set()`) call.  It holds
    event positions and ticks, not events: `by_kind` and the gathered
    records index into `events`, the log's own list.  The pass is built
    around transmissions and distinct sealed payloads, not around events.
    A queued hop's facts are read once per hop: the outcomes of one hop
    share one parts tuple, so consecutive deliveries or drops with the same
    parts (by identity), tick, kind and digest share its `tx`, hop count,
    causality verdict, outcome table and sealed-kind verdict, until a send
    of the transmission comes between them; conservation is judged per
    recipient, as each is read.  A delivery or drop whose parts name no
    `tx`, such as a routing `drop` note, is no transmission outcome.
    Payloads are read by kind tag first (`_sealed_kind`, tested once per
    distinct digest), and of a kind that carries a sealed field the pass
    keeps only what a reader of the sealed traffic needs: the first send of
    each payload (`first_sends`) and, per recipient, the tick of its
    earliest delivery of each (`received`), however often it was
    re-flooded.  Only such a kind, or a request a property asks for by
    digest, is decoded, on first use.  Decoded payloads and each
    principal's knowledge set (closed on first use) are then kept for the
    index's life, as are the outcome of each symmetric trial decryption
    (see `sym_open`) and the keys each opened plaintext carries (see
    `keys_in`): what principals share is worked out once.
    """

    def __init__(self, log: EventLog):
        self.registry = log.registry
        self.payloads = log.payloads
        self.provider = make_provider(log.registry.provider_name)
        self.events = log.events
        # kind -> positions, for every kind but sends, deliveries and drops
        self.by_kind: dict[str, list] = defaultdict(list)
        # digest -> position of its first send, for each payload of a kind
        # that carries a sealed field, in log order
        self.first_sends: dict[str, int] = {}
        # recipient -> {digest: tick of its earliest delivery there}, for each
        # payload of a kind that carries a sealed field (the only ones a
        # principal could open), in the order they first reached it
        self.received: dict[str, dict] = {}
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
        self._keys: dict = {}  # (kind, opened plaintext) -> the keys it carries (see `keys_in`)
        leaders: dict[str, str] = {}
        latest: dict[str, int] = {}  # tx -> tick of its latest send so far
        # tx -> {recipient: None} of each outcome so far: a table per
        # transmission, where a (tx, recipient) key per outcome would leave
        # the garbage collector one tuple to track per delivery and drop (a
        # dict holding only strings is not tracked).
        outcomes: dict[str, dict] = {}
        payloads = log.payloads
        sealed = {"-": False}  # digest -> `_sealed_kind` of its payload ("-" names none)
        # The hop last read, keyed by its parts (by identity), tick, kind and
        # digest: a read-back or hand-edited line can carry another payload
        # under the same detail.  A send of its transmission moves `latest`
        # and so ends the hop.
        hop_parts = hop_tick = hop_kind = hop_digest = hop_opens = hop_tx = hop_late = hop_heard = None
        by_kind, received, first_sends = self.by_kind, self.received, self.first_sends
        causality_failures, conservation_failures = self.causality_failures, self.conservation_failures
        for i, event in enumerate(log.events):
            kind = event.kind
            if kind == "deliver" or kind == "drop":
                parts, tick, digest = event.parts, event.tick, event.digest
                if parts is not hop_parts or tick != hop_tick or kind != hop_kind or digest != hop_digest:
                    hop_parts, hop_tick, hop_kind, hop_digest = parts, tick, kind, digest
                    if kind == "deliver":
                        hop_opens = sealed.get(digest)
                        if hop_opens is None:
                            hop_opens = sealed[digest] = _sealed_kind(payloads.get(digest))
                    else:
                        hop_opens = False
                    # The simulator ends an outcome's parts with its `tx`
                    # pair, just after its `hops` pair when it has one; an
                    # outcome whose only other part is a word names no hops.
                    # Any other shape is read by name.
                    hops = None
                    last = parts[-1] if parts else ""
                    if not isinstance(last, str) and last[0] == "tx":
                        hop_tx = last[1]
                        before = parts[-2] if len(parts) > 1 else ""
                        if isinstance(before, str):
                            if len(parts) <= 2:
                                hops = 1
                        elif before[0] == "hops":
                            hops = int(before[1])
                    if hops is None:
                        hop_tx, hops = _transmission(event)
                    if hop_tx is not None:
                        # A delivery is due `hops` ticks after the latest send
                        # of its transmission; a drop needs only some earlier send.
                        sent = latest.get(hop_tx)
                        hop_late = sent is None or (kind == "deliver" and tick - hops != sent)
                        hop_heard = outcomes.get(hop_tx)
                        if hop_heard is None:
                            hop_heard = outcomes[hop_tx] = {}
                if hop_opens:
                    earliest = received.get(event.recipient)
                    if earliest is None:
                        earliest = received[event.recipient] = {}
                    at = earliest.get(digest)
                    if at is None or tick < at:
                        earliest[digest] = tick
                if hop_tx is not None:
                    if hop_late:
                        causality_failures.append(i)
                    recipient = event.recipient or event.principals
                    if recipient in hop_heard:
                        conservation_failures.append(i)
                    else:
                        hop_heard[recipient] = None
                continue
            if kind == "send":
                # The simulator ends a send's parts with its `tx` pair.
                parts = event.parts
                last = parts[-1] if parts else ""
                tx = last[1] if not isinstance(last, str) and last[0] == "tx" else _transmission(event)[0]
                if tx is not None:
                    latest[tx] = event.tick
                    if tx == hop_tx:
                        hop_parts = None
                digest = event.digest
                opens = sealed.get(digest)
                if opens is None:
                    opens = sealed[digest] = _sealed_kind(payloads.get(digest))
                if opens and digest not in first_sends:
                    first_sends[digest] = i
                continue
            by_kind[kind].append(i)
            if kind == "verdict":
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

    def sym_open(self, keys, sealed: bytes) -> Optional[bytes]:
        """The plaintext of `sealed` under the first of `keys` that opens
        it, or None when none does.

        Both providers decrypt deterministically, so the outcome of a trial
        is a pure function of the key and the ciphertext: each distinct pair
        is tried once per audit and every principal holding the key shares
        the answer.  Each principal still gets a real answer for every key
        it holds against every ciphertext; only the recomputation is saved.
        """
        tried = self._trials.get(sealed)
        if tried is None:
            tried = self._trials[sealed] = {}
        for key in keys:
            plain = tried.get(key, _UNTRIED)
            if plain is _UNTRIED:
                try:
                    plain = self.provider.sym_decrypt(key, sealed)
                except DecryptionError:
                    plain = None
                tried[key] = plain
            if plain is not None:
                return plain
        return None

    def keys_in(self, kind: MessageKind, plain: bytes) -> tuple:
        """Every non-empty key a layout of `kind` places in the opened
        plaintext, in the order a reader meets them, whatever the other
        fields hold; an undecodable plaintext carries none.  Each distinct
        (kind, plaintext) is read once per audit, however many principals
        open it."""
        keys = self._keys.get((kind, plain))
        if keys is None:
            try:
                readings = sealed_readings(kind, plain, self.provider.directories)
            except encoding.EncodingError:
                readings = []
            found = (fields.get(name) for fields in readings for name in _KEY_FIELDS)
            keys = self._keys[kind, plain] = tuple(dict.fromkeys(k for k in found if isinstance(k, bytes) and k))
        return keys

    def message(self, digest: str):
        """The decoded payload, or None when it is missing or malformed.

        The audit's one decoder, and each digest is decoded at most once.
        Readers that look only for something to open ask only for the
        payloads the index kept by their kind tag (`first_sends`,
        `received`); chain soundness calls this for the request behind each
        accepted route, whatever its kind."""
        if digest not in self._messages:
            payload = self.payloads.get(digest)
            try:
                self._messages[digest] = None if payload is None else decode_message(payload)
            except encoding.EncodingError:
                self._messages[digest] = None
        return self._messages[digest]

    def knowledge(self, principal: str) -> KnowledgeSet:
        """The closure of everything the principal holds or could decrypt by
        the end of the log: the secrets it made (but member secrets, which
        only derive keys) and every key carried by a sealed payload
        delivered to it that its private key, or a key it holds by then,
        opens.  Closed once per index."""
        known = self._knowledge.get(principal)
        if known is not None:
            return known
        keypair = self.registry.keypairs.get(principal)
        private = keypair.private if keypair is not None else None
        sym_keys = dict.fromkeys(self.own_secrets.get(principal, ()))
        # Only payloads of a kind that carries a sealed field are indexed.
        received = [(d, m) for d in self.received.get(principal, ()) if (m := self.message(d)) is not None]
        opened: set[str] = set()
        progress = True
        while progress:
            progress = False
            for digest, message in received:
                if digest in opened:
                    continue
                plain = _try_open(self, message, private, sym_keys)
                if plain is None:
                    continue
                opened.add(digest)
                progress = True
                for key in self.keys_in(message.kind, plain):
                    sym_keys.setdefault(key, None)
        known = self._knowledge[principal] = KnowledgeSet(sym_keys=sym_keys, private_key=private, opened=opened)
        return known

    @cached_property
    def outcomes(self) -> list:
        """(met, hit event indices) of each run expectation, in order."""
        return [_expectation_met(self, expectation) for expectation in self.registry.expectations]

    @cached_property
    def own_secrets(self) -> dict:
        """owner -> the secrets it made, in registry order, but member
        secrets, which only derive keys."""
        own: dict = {}
        for _, owner, label, value in self.registry.secrets:
            if label[0] != "member_secret":
                own.setdefault(owner, []).append(value)
        return own

    @cached_property
    def minted(self) -> dict:
        """(lineage, epoch) -> the group key the registry says was minted for it."""
        return {label[1:]: value for _, _, label, value in self.registry.secrets if label[0] == "group_key"}

    @cached_property
    def ciphertexts(self) -> tuple:
        return _collect_ciphertexts(self)

    @cached_property
    def rekeys_received(self) -> dict:
        """recipient -> [(deliver tick, carried lineage, carried epoch)], one
        entry per distinct REKEY payload it was delivered, at its earliest
        delivery: a re-flooded copy tells the recipient nothing new.

        A sealed-to-member rekey carries the epoch in its header; a rekey
        sealed under the previous group key carries that header epoch plus one.
        """
        out: dict = {}
        for recipient, earliest in self.received.items():
            for digest, tick in earliest.items():
                message = self.message(digest)
                if message is None or message.kind != MessageKind.REKEY:
                    continue
                carried = message["epoch"] + (1 if message["mode"] == "group" else 0)
                out.setdefault(recipient, []).append((tick, message["lineage"], carried))
        return out


# ---------------------------------------------------------------------------
# Knowledge sets
# ---------------------------------------------------------------------------

# The sealed-plaintext fields that carry a symmetric key.
_KEY_FIELDS = ("group_key", "member_key", "session_key")


def knowledge_set(principal: str, log: EventLog) -> KnowledgeSet:
    """Closure of everything the principal holds or could decrypt by the end
    of `log` (see `_LogIndex.knowledge`)."""
    registry = log.registry
    if principal not in registry.node_names and principal not in registry.adversary_names:
        raise SimulationError(f"unknown principal {principal!r}")
    return _LogIndex(log).knowledge(principal)


def _try_open(index: _LogIndex, message, private, sym_keys) -> Optional[bytes]:
    """The plaintext of the message's sealed field, if these keys open it."""
    sealed = message["sealed"]
    for seal in seals(message.kind, message.fields.get("mode")):
        if seal == PK:
            if private is None:
                continue
            try:
                return index.provider.pk_decrypt(private, sealed)
            except DecryptionError:
                continue
        plain = index.sym_open(sym_keys, sealed)
        if plain is not None:
            return plain
    return None


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
    the same bytes and say nothing new).  Only the first send of each
    payload of a kind that carries a sealed field is read
    (`_LogIndex.first_sends`)."""
    group_ct, pk_ct = [], []
    events = index.events
    for digest, i in index.first_sends.items():
        message = index.message(digest)
        if message is None:
            continue
        event = events[i]
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
    nothing is excused.  Each rekey is judged at its earliest delivery to
    the sender (`rekeys_received`), which decides as every copy would."""
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
    return index.sym_open(knowledge.sym_keys, sealed) is not None


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


# Secret confinement joins payloads into runs of at least this many bytes
# and searches each run once per secret, so the sidecar is never copied whole.
_SEARCH_RUN = 1 << 20


def _payload_runs(payloads: dict):
    """The (digest, payload) items in sidecar order, in consecutive runs of
    at least `_SEARCH_RUN` bytes (the last may be shorter)."""
    run, size = [], 0
    for item in payloads.items():
        run.append(item)
        size += len(item[1])
        if size >= _SEARCH_RUN:
            yield run
            run, size = [], 0
    if run:
        yield run


def _check_secret_confinement(index: _LogIndex) -> PropertyResult:
    """No payload holds a member secret.  Each secret is searched for once
    per run of payloads joined end to end, and only a run where it is found
    has its payloads tested one by one: a secret that straddles two payloads
    is in neither.  The events are walked, for the positions that carry a
    leaking payload, only when some payload leaks."""
    secrets = [
        value
        for _, _, label, value in index.registry.secrets
        if label[0] == "member_secret" and len(value) >= 8
    ]
    leaking = set()
    for run in _payload_runs(index.payloads) if secrets else ():
        joined = b"".join(payload for _, payload in run)
        for secret in secrets:
            if secret in joined:
                leaking.update(digest for digest, payload in run if secret in payload)
    failures = [i for i, event in enumerate(index.events) if event.digest in leaking] if leaking else []
    return PropertyResult("secret_confinement", not failures, failures)
