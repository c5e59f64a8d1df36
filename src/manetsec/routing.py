"""On-demand route discovery with per-hop signatures and a lifetime-bound
hash chain.

A route request floods through the group.  The origin seeds a digest chain
over (source, dest, seq, hop budget); every forwarder appends itself and
its signature, decrements the remaining hop budget, and folds (itself,
new budget) into the chain.  The destination rebuilds the expected chain
from the budget value it actually received: an invisible relay that burned
one hop shifts every reconstructed term by one and the digests no longer
match, so the request is discarded.  Signatures bind each listed node to
the discovery (source, dest, seq); the chain is what binds the hop budgets.
The reply carries the verified chain back, signed as a whole by the
destination, and the source re-derives the chain from its own original
budget before installing the route.

Verdict order at the destination is chain first, then signatures, then
sequence freshness, so a budget-shift attack surfaces as ``chain_mismatch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import encoding
from .messages import Message, MessageKind, msg
from .runtime import Ctx

ACCEPT = "accept"
REJECT = "reject"


# ---------------------------------------------------------------------------
# Chain and signature material
# ---------------------------------------------------------------------------


def chain_origin(provider, source: str, dest: str, seq: int, lifetime: int) -> bytes:
    return provider.hash(encoding.encode(source, dest, seq, lifetime))


def chain_extend(provider, chain: bytes, node: str, lifetime: int) -> bytes:
    return provider.hash(encoding.encode(chain, node, lifetime))


def expected_chain(provider, source: str, dest: str, seq: int, lifetime: int, route: list) -> Optional[bytes]:
    """Rebuild the chain from the received remaining budget.

    With k forwarders listed after the source and a received budget of l,
    the source term is reconstructed at l+k, the first forwarder at l+k-1,
    and so on down to the last forwarder at l.  No chain exists (None) for
    an empty route or a negative budget.
    """
    if not route or lifetime < 0:
        return None
    hops = len(route) - 1
    chain = chain_origin(provider, source, dest, seq, lifetime + hops)
    for i, node in enumerate(route[1:], start=1):
        chain = chain_extend(provider, chain, node, lifetime + hops - i)
    return chain


def chain_matches(provider, message: Message) -> bool:
    """Whether a request's chain equals the one rebuilt from its received budget."""
    expect = expected_chain(
        provider, message["source"], message["dest"], message["seq"], message["lifetime"], message["route"]
    )
    return expect == message["chain"]


def rreq_signed_payload(source: str, dest: str, seq: int, signer: str) -> bytes:
    return encoding.encode("rreq", source, dest, seq, signer)


def rrep_signed_payload(source: str, dest: str, seq: int, route: list, chain: bytes) -> bytes:
    return encoding.encode("rrep", source, dest, seq, route, chain)


def make_rreq(provider, keypair, source: str, dest: str, seq: int, lifetime: int) -> Message:
    if lifetime < 1:
        raise ValueError("origin hop budget must be at least 1")
    sig = provider.sign(keypair.private, rreq_signed_payload(source, dest, seq, source))
    return msg(
        MessageKind.RREQ,
        source=source,
        dest=dest,
        seq=seq,
        lifetime=lifetime,
        route=[source],
        sigs=[sig],
        chain=chain_origin(provider, source, dest, seq, lifetime),
    )


def make_rrep(provider, keypair, dest_name: str, accepted: Message) -> Message:
    """Build the reply for an accepted request: the full route including the
    destination, the destination's signature over route and chain, and the
    verified chain value carried back for the source to re-derive."""
    route = accepted["route"] + [dest_name]
    chain = accepted["chain"]
    sig = provider.sign(
        keypair.private, rrep_signed_payload(accepted["source"], dest_name, accepted["seq"], route, chain)
    )
    return msg(
        MessageKind.RREP,
        source=accepted["source"],
        dest=dest_name,
        seq=accepted["seq"],
        route=route,
        sigs=accepted["sigs"] + [sig],
        chain=chain,
    )


def verify_route_signatures(provider, message: Message, directory: dict) -> bool:
    """Whether each listed node's request signature is present and valid,
    in route order."""
    route, sigs = message["route"], message["sigs"]
    if len(route) != len(sigs) or not route:
        return False
    for node, sig_bytes in zip(route, sigs):
        public = directory.get(node)
        if public is None:
            return False
        payload = rreq_signed_payload(message["source"], message["dest"], message["seq"], node)
        if not provider.verify(public, payload, sig_bytes):
            return False
    return True


def rrep_signature_ok(provider, message: Message, directory: dict) -> bool:
    """Whether a reply's last signature is its destination's, over the
    discovery, the route and the chain."""
    public = directory.get(message["dest"])
    if public is None or not message["sigs"]:
        return False
    payload = rrep_signed_payload(
        message["source"], message["dest"], message["seq"], message["route"], message["chain"]
    )
    return provider.verify(public, payload, message["sigs"][-1])


# ---------------------------------------------------------------------------
# Per-node routing state
# ---------------------------------------------------------------------------


@dataclass
class RouteEntry:
    dest: str
    next_hop: str
    route: list
    seq: int
    learned: int


@dataclass
class Discovery:
    dest: str
    seq: int
    lifetime: int
    purpose: str = "direct"  # "direct" or "gateway" (leg toward the leader)
    final_dest: str = ""


@dataclass
class Router:
    """Routing state owned by one node: table, dedup cache, open discoveries."""

    name: str
    keypair: object
    provider: object
    strict_chain: bool = False
    table: dict = field(default_factory=dict)  # dest -> RouteEntry
    seen: set = field(default_factory=set)  # (source, seq) pairs processed
    last_seq_from: dict = field(default_factory=dict)  # source -> last accepted seq
    next_seq: int = 0
    pending: dict = field(default_factory=dict)  # (dest, seq) -> Discovery

    # -- origination ---------------------------------------------------------

    def start_discovery(
        self, dest: str, lifetime: int, ctx: Ctx, purpose: str = "direct", final_dest: str = ""
    ) -> int:
        self.next_seq += 1
        seq = self.next_seq
        message = make_rreq(self.provider, self.keypair, self.name, dest, seq, lifetime)
        self.pending[(dest, seq)] = Discovery(
            dest=dest, seq=seq, lifetime=lifetime, purpose=purpose, final_dest=final_dest
        )
        self.seen.add((self.name, seq))
        ctx.emit(message)
        ctx.note("verdict", "discovery_started", ("dest", dest), ("seq", seq), about=self.name)
        return seq

    # -- request handling ------------------------------------------------------

    def handle_rreq(self, message: Message, directory: dict, members: set, ctx: Ctx) -> None:
        source, dest, seq = message["source"], message["dest"], message["seq"]
        if any(node not in members for node in message["route"]):
            ctx.note("drop", "foreign_group", ("source", source), ("seq", seq), about=self.name)
            return
        if (source, seq) in self.seen:
            ctx.note("drop", "duplicate", ("source", source), ("seq", seq), about=self.name)
            return
        self.seen.add((source, seq))
        ctx.note("verdict", "rreq_processed", ("source", source), ("seq", seq), about=self.name)
        if dest == self.name:
            self._destination_verify(message, directory, ctx)
        else:
            self._forward_rreq(message, directory, ctx)

    def _forward_rreq(self, message: Message, directory: dict, ctx: Ctx) -> None:
        source, seq = message["source"], message["seq"]
        if self.name in message["route"]:
            ctx.note("drop", "loop", ("source", source), ("seq", seq), about=self.name)
            return
        if message["lifetime"] < 1:
            ctx.note("drop", "lifetime_exhausted", ("source", source), ("seq", seq), about=self.name)
            return
        if not verify_route_signatures(self.provider, message, directory):
            ctx.note("verdict", "rreq_discard", "bad_signature", ("source", source), ("seq", seq), about=self.name)
            return
        if self.strict_chain and not chain_matches(self.provider, message):
            ctx.note("verdict", "rreq_discard", "chain_mismatch", ("source", source), ("seq", seq), about=self.name)
            return
        new_lifetime = message["lifetime"] - 1
        payload = rreq_signed_payload(source, message["dest"], seq, self.name)
        sig = self.provider.sign(self.keypair.private, payload)
        forwarded = message.replace(
            lifetime=new_lifetime,
            route=message["route"] + [self.name],
            sigs=message["sigs"] + [sig],
            chain=chain_extend(self.provider, message["chain"], self.name, new_lifetime),
        )
        ctx.emit(forwarded)

    def _destination_verify(self, message: Message, directory: dict, ctx: Ctx) -> None:
        source, seq = message["source"], message["seq"]
        verdict, reason = self.check_as_destination(message, directory)
        if verdict == REJECT:
            ctx.note("verdict", REJECT, reason, ("source", source), ("seq", seq), about=self.name, message=message)
            return
        self.last_seq_from[source] = seq
        reply = make_rrep(self.provider, self.keypair, self.name, message)
        # The accepted request also teaches the destination the reverse path.
        self.install(source, list(reversed(reply["route"])), seq, ctx.now)
        ctx.note("verdict", ACCEPT, ("source", source), ("seq", seq), about=self.name, message=message)
        ctx.emit(reply, to=message["route"][-1])

    def check_as_destination(self, message: Message, directory: dict) -> tuple[str, str]:
        """Chain, signatures, then freshness; first failure wins."""
        source, seq = message["source"], message["seq"]
        if not chain_matches(self.provider, message):
            return REJECT, "chain_mismatch"
        if not verify_route_signatures(self.provider, message, directory):
            return REJECT, "bad_signature"
        if seq <= self.last_seq_from.get(source, 0):
            return REJECT, "stale_seq"
        return ACCEPT, ""

    # -- reply handling -----------------------------------------------------------

    def handle_rrep(self, message: Message, directory: dict, ctx: Ctx) -> Optional[Discovery]:
        source, dest, seq = message["source"], message["dest"], message["seq"]
        route = message["route"]
        if self.name == source:
            return self._source_verify(message, directory, ctx)
        if self.name not in route:
            ctx.note("drop", "rrep_off_path", ("source", source), ("seq", seq), about=self.name)
            return None
        if not rrep_signature_ok(self.provider, message, directory):
            ctx.note("verdict", "rrep_discard", "bad_signature", ("source", source), ("seq", seq), about=self.name)
            return None
        position = route.index(self.name)
        ctx.emit(message, to=route[position - 1])
        return None

    def _source_verify(self, message: Message, directory: dict, ctx: Ctx) -> Optional[Discovery]:
        dest, seq = message["dest"], message["seq"]
        discovery = self.pending.get((dest, seq))
        entry = self.table.get(dest)
        if discovery is None or (entry is not None and seq <= entry.seq):
            ctx.note("verdict", "rrep_reject", "stale_seq", ("dest", dest), ("seq", seq), about=self.name)
            return None
        # The reply carries the chain the destination received; with k
        # forwarders listed, that request arrived with this node's budget - k.
        route = message["route"]
        path = route[:-1]
        expect = expected_chain(self.provider, self.name, dest, seq, discovery.lifetime - len(path) + 1, path)
        if expect != message["chain"]:
            ctx.note("verdict", "rrep_reject", "chain_mismatch", ("dest", dest), ("seq", seq), about=self.name)
            return None
        # Every signature but the destination's is a request signature over
        # the route up to the destination.
        request = message.replace(route=path, sigs=message["sigs"][:-1])
        if not (
            verify_route_signatures(self.provider, request, directory)
            and rrep_signature_ok(self.provider, message, directory)
        ):
            ctx.note("verdict", "rrep_reject", "bad_signature", ("dest", dest), ("seq", seq), about=self.name)
            return None
        del self.pending[(dest, seq)]
        self.install(dest, route, seq, ctx.now)
        ctx.note("verdict", "route_installed", ("dest", dest), ("seq", seq), about=self.name)
        return discovery

    def install(self, dest: str, route: list, seq: int, now: int) -> Optional[RouteEntry]:
        entry = self.table.get(dest)
        if entry is not None and seq < entry.seq:
            return None
        next_hop = route[1] if len(route) > 1 else dest
        new_entry = RouteEntry(dest=dest, next_hop=next_hop, route=list(route), seq=seq, learned=now)
        self.table[dest] = new_entry
        return new_entry

    def route_to(self, dest: str) -> Optional[RouteEntry]:
        return self.table.get(dest)
