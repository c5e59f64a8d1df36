"""Execution context handed to protocol step functions.

Handlers are step functions: message in, state mutated, outbound messages
and log notes collected on the context.  They never touch the event loop
directly, so the same handlers run under the simulator or any other
serialized driver.
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

    @property
    def detail(self) -> str:
        from .sim import render_detail

        return render_detail(self.parts)


@dataclass
class Ctx:
    name: str
    now: int
    rng: random.Random
    provider: object
    outbound: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    secrets: list = field(default_factory=list)  # (label, bytes) for the run registry

    def emit(self, message: Message, to: str = BROADCAST, channel: str = "radio") -> None:
        self.outbound.append(Envelope(message=message, sender=self.name, to=to, channel=channel))

    def note(self, kind: str, *parts, about: str = "", message: Message = None) -> None:
        """Note an event whose detail is `parts`, each a word or a (name,
        value) pair; values are held as the text they render to."""
        text = tuple(part if isinstance(part, str) else (part[0], str(part[1])) for part in parts)
        self.notes.append(Note(kind, text, about, message))

    def secret(self, label: str, value) -> None:
        if isinstance(value, int):
            value = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
        self.secrets.append((label, bytes(value)))
