"""A fixed piece of Python work that measures the host's current speed.

On a shared virtual machine the speed at which this interpreter runs the
program drifts by tens of percent from one minute to the next, and every
time metric drifts with it.  The benchmark therefore times this yardstick
between scenarios and scales each scenario's host seconds by
``REFERENCE_S / yardstick seconds``: the figures it reports are seconds on
a host where the yardstick takes ``REFERENCE_S``.  A change to the program
leaves the yardstick alone (it calls nothing in ``manetsec``), so it moves
the scaled figures exactly as it moves the host seconds.

The work mirrors what the program spends its time on: building small
records, canonical text encoding, SHA-256 and sorting.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

# The yardstick's median time on the 2-vCPU Intel Xeon virtual machine the
# committed baseline was measured on.  Only a scale: any constant would do,
# as long as it never changes once figures have been compared with it.
REFERENCE_S = 0.027
_RECORDS = 1500


def work() -> int:
    acc = 0
    for i in range(_RECORDS):
        record = {
            "kind": "send",
            "src": f"n{i % 64}",
            "dst": f"n{(i * 7) % 64}",
            "seq": i,
            "hops": [f"n{j}" for j in range(i % 9)],
        }
        blob = json.dumps(record, sort_keys=True).encode("utf-8")
        acc += hashlib.sha256(blob).digest()[0]
        acc += len(repr(sorted(record.items())))
    return acc


def seconds() -> float:
    """Host seconds for one run of :func:`work`, after a full collection so
    that the previous scenario's garbage is not charged to it."""
    gc.collect()
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def scales(samples: list) -> list:
    """Scale factor for each interval between consecutive yardstick
    samples: ``REFERENCE_S`` over the mean of the two samples around it."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(samples, samples[1:])]
