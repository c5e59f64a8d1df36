"""Node bookkeeping and weighted group-leader election.

A node's fitness to lead combines three terms: how much it moves, how much
battery it has left, and how well it has behaved so far.  The election
picks the candidate with the *smallest* weight
``w0*mobility + w1*(1 - battery) + w2*(1 - trust)``: a slow, well-charged,
well-behaved node scores low and wins.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

Position = tuple[float, float]

_WEIGHT_SUM_TOL = 1e-9

# The trust a leader holds for a member it has not yet observed.
TRUST_INITIAL = 0.5

TRUST_DELTAS = {
    "forwarded": 0.01,
    "dropped": -0.05,
    "malformed": -0.20,
    "heartbeat_missed": -0.10,
}


def _finite(value) -> bool:
    """True for a finite number; an int too large for a float is not one."""
    return abs(value) <= sys.float_info.max


def mobility(trace: Sequence[Position]) -> float:
    """Mean per-step displacement along a position trace.

    A single-sample trace has no displacement evidence and scores 0, which
    keeps newborn nodes electable.
    """
    if len(trace) == 0:
        raise ValueError("trace must contain at least one sample")
    for x, y in trace:
        if not (_finite(x) and _finite(y)):
            raise ValueError("trace coordinates must be finite")
    if len(trace) == 1:
        return 0.0
    steps = len(trace) - 1
    total = 0.0
    for (x0, y0), (x1, y1) in zip(trace, trace[1:]):
        total += math.hypot(x1 - x0, y1 - y0)
    # A trace that moved scores above zero, also where the mean of a
    # subnormal total underflows.
    return max(total / steps, math.ulp(0.0)) if total else 0.0


@dataclass(frozen=True)
class NodeAttributes:
    node: str
    mobility_m: float
    battery_b: float
    trust_t: float

    def __post_init__(self):
        for name in ("mobility_m", "battery_b", "trust_t"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "battery_b", min(1.0, max(0.0, self.battery_b)))
        object.__setattr__(self, "trust_t", min(1.0, max(0.0, self.trust_t)))


@dataclass(frozen=True)
class WeightConfig:
    w0: float = 0.4
    w1: float = 0.4
    w2: float = 0.2

    def __post_init__(self):
        if not all(map(_finite, (self.w0, self.w1, self.w2))):
            raise ValueError("weight factors must be finite")
        if min(self.w0, self.w1, self.w2) < 0:
            raise ValueError("weight factors must be non-negative")
        if abs(self.w0 + self.w1 + self.w2 - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("weight factors must satisfy w0 + w1 + w2 = 1")


def weight(attrs: NodeAttributes, cfg: WeightConfig) -> float:
    """Combined election weight; smaller is better."""
    return cfg.w0 * attrs.mobility_m + cfg.w1 * (1.0 - attrs.battery_b) + cfg.w2 * (1.0 - attrs.trust_t)


def elect_leader(candidates: Sequence[NodeAttributes], cfg: WeightConfig) -> str:
    """Pick the candidate with minimal weight; ties go to the smallest id."""
    if not candidates:
        raise ValueError("cannot elect from an empty candidate set")
    best = min(candidates, key=lambda a: (weight(a, cfg), a.node))
    return best.node


def update_trust(current: float, observation: str) -> float:
    """Additive trust update, clamped to [0, 1]."""
    if observation not in TRUST_DELTAS:
        raise ValueError(f"unknown observation {observation!r}")
    return min(1.0, max(0.0, current + TRUST_DELTAS[observation]))
