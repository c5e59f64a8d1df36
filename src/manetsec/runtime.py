"""Execution context handed to protocol step functions.

Handlers are step functions: message in, state mutated, outbound messages,
log notes and election signals collected on the context.  They never touch the event loop
directly, so the same handlers run under the simulator or any other
serialized driver.

The simulator keeps one context per node for the whole run and sets its
`now` before each step.  After a step it flushes the context -- logs the
notes, sends the envelopes, records the secrets, passes on the signals --
and the flush empties every list it consumes; a step that left all four
empty is not flushed.  So a handler must not keep the context, or any of
its lists, after its step returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .messages import BROADCAST, Envelope, Message


@dataclass
class Note:
    """One loggable observation from a handler (verdict, admit, alert...)."""

    kind: str
    parts: tuple  # the event's detail parts, as text
    about: str = ""
    message: Message = None  # attach the message a verdict refers to


def render_detail(parts) -> str:
    """The `:`-joined text of detail parts, each pair as `name=value`."""
    return ":".join([part if isinstance(part, str) else "=".join(part) for part in parts])


@dataclass(slots=True)
class Ctx:
    name: str
    now: int
    rng: random.Random
    outbound: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    secrets: list = field(default_factory=list)  # (label tuple, bytes) for the run registry
    signals: list = field(default_factory=list)  # (group, lost leader): the group needs an election

    def emit(self, message: Message, to: str = BROADCAST, channel: str = "radio") -> None:
        self.outbound.append(Envelope(message, self.name, to, channel))

    def note(self, kind: str, *parts, about: str = "", message: Message = None) -> None:
        """Note an event whose detail is `parts`, each a word or a (name,
        value) pair; values are held as the text they render to."""
        text = tuple(part if isinstance(part, str) else (part[0], str(part[1])) for part in parts)
        self.notes.append(Note(kind, text, about, message))

    def secret(self, label: tuple, value) -> None:
        """Record a secret this node made, for the run registry.  A label is
        its kind followed by the fields that identify it:

        - ``("group_key", lineage, epoch)``, the epoch an int;
        - ``("member_key", member, lineage)``;
        - ``("member_secret", lineage)``;
        - ``("session_key", peer)``;
        - ``("ring_key", version)``.
        """
        if isinstance(value, int):
            value = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
        self.secrets.append((label, bytes(value)))
