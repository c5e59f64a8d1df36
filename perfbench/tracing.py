"""Traced runs: spans recorded around calls into each ``manetsec`` module.

All wrappers are installed from here, at run time, and removed again when
the traced block ends; no source file of the program is edited.  A
function imported by name into another module is a separate binding, so
it is patched in every module that calls it (``encode_message`` in
``messages``, ``sim`` and ``node``, for instance).

Each call through a wrapper appends one span (id, parent, name, start,
end, scenario) to flat in-memory arrays; nothing is written until the run
ends.  A layer's self time is the sum over its spans of the span's
duration minus the durations of its direct children.  Three root layers
(``Simulation.__init__``, ``Simulation.run`` and ``audit.audit``) frame
each scenario, so their self time is the part no layer claims
(``unattributed``).

A wrapper's own bookkeeping before its first clock read and after its
last one falls inside its parent's span, so a parent of many short calls
(``_radio_path`` over ``_in_range``) would show that cost as its own self
time.  :func:`span_cost` measures what one empty child span adds to its
parent, and :meth:`Tracer.self_times` moves that much per child out of
the parent and into ``trace.wrapper_s``.  Layer self times plus
``unattributed`` plus ``trace.wrapper_s`` add up to the traced time by
construction.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter

CRYPTO_OPS = ("hash", "sign", "verify", "sym_encrypt", "sym_decrypt", "pk_encrypt", "pk_decrypt")
PHASES = ("sim", "audit")
AUDIT_PROPERTIES = (
    "backward_secrecy",
    "forward_secrecy",
    "mutual_auth",
    "chain_soundness",
    "duplicate_suppression",
    "detection_outcomes",
    "epoch_monotonicity",
    "causality",
    "conservation",
    "secret_confinement",
)
ROOTS = ("root.construct", "root.run", "root.audit")

# (module, class or None, attribute, layer).  Module-level functions are
# listed once per module that holds a binding to them.
_TARGETS = (
    ("sim", "Simulation", "_radio_path", "sim.radio_path"),
    ("sim", "Simulation", "_in_range", "sim.in_range"),
    ("sim", "Simulation", "_transmit", "sim.transmit"),
    ("sim", "Simulation", "_log", "sim.log"),
    ("sim", "Simulation", "_flush", "sim.flush"),
    ("node", "ProtocolNode", "handle", "node.handle"),
    ("node", "AdversaryNode", "handle", "node.handle"),
    ("node", "ProtocolNode", "on_tick", "node.on_tick"),
    ("node", "AdversaryNode", "on_tick", "node.on_tick"),
    ("messages", None, "encode_message", "messages.encode"),
    ("sim", None, "encode_message", "messages.encode"),
    ("node", None, "encode_message", "messages.encode"),
    ("messages", None, "decode_message", "messages.decode"),
    ("audit", None, "decode_message", "messages.decode"),
    ("encoding", None, "encode", "encoding.encode"),
    ("encoding", None, "decode", "encoding.decode"),
    ("keymgmt", "LeaderKeyService", "handle_join", "keymgmt.handle_join"),
    ("keymgmt", "MemberKeyService", "handle_join", "keymgmt.handle_join"),
    ("keymgmt", "LeaderKeyService", "remove_members", "keymgmt.rekey"),
    ("keymgmt", "MemberKeyService", "handle_rekey", "keymgmt.rekey"),
    ("keymgmt", None, "leader_ring_agree", "keymgmt.ring_agree"),
    ("sim", None, "leader_ring_agree", "keymgmt.ring_agree"),
    ("routing", "Router", "handle_rreq", "routing.handle_rreq"),
    ("routing", "Router", "handle_rrep", "routing.handle_rrep"),
    ("routing", None, "verify_route_signatures", "routing.verify_route_signatures"),
    ("routing", None, "expected_chain", "routing.expected_chain"),
    ("audit", None, "expected_chain", "routing.expected_chain"),
    ("group", None, "elect_leader", "group.elect_leader"),
    ("sim", None, "elect_leader", "group.elect_leader"),
    ("group", None, "mobility", "group.mobility"),
    ("sim", None, "mobility", "group.mobility"),
    ("audit", None, "knowledge_set", "audit.knowledge_set"),
    ("audit", None, "_collect_ciphertexts", "audit.collect_ciphertexts"),
) + tuple(("audit", None, f"_check_{p}", f"audit.{p}") for p in AUDIT_PROPERTIES)

_PROVIDERS = ("DeterministicProvider", "RealCryptoProvider")
_ROOT_TARGETS = (
    ("sim", "Simulation", "__init__", "root.construct", 0),
    ("sim", "Simulation", "run", "root.run", 0),
    ("audit", None, "audit", "root.audit", 1),
)

# Layers reported with a call count and a self time; the audit properties
# run once per audit, so they get a self time only.
TIMED_LAYERS = tuple(dict.fromkeys(t[3] for t in _TARGETS if not t[2].startswith("_check_"))) + tuple(
    f"crypto.{op}.{phase}" for op in CRYPTO_OPS for phase in PHASES
)
EVENT_KINDS = ("send", "deliver", "drop", "verdict", "rekey", "admit", "elect", "alert")


def per_layer_metric_names() -> list:
    """Every metric a traced run reports, in output order."""
    names = []
    for layer in TIMED_LAYERS:
        names += [f"{layer}.calls", f"{layer}.s"]
    names += [f"audit.{p}.s" for p in AUDIT_PROPERTIES]
    names += ["audit.trial_decrypts", "audit.trial_decrypt_hit_ratio", "messages.encode_per_payload"]
    names += ["sim.ticks", "sim.payloads"] + [f"sim.events.{k}" for k in EVENT_KINDS]
    names += ["unattributed.s", "trace.wrapper_s", "trace.span_cost_s", "trace.spans"]
    names += ["trace.traced_s", "trace.untraced_s", "trace.overhead_s"]
    return names


class Tracer:
    """Flat span arrays plus the bookkeeping the wrappers share."""

    def __init__(self):
        self.parent = array("i")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.scenario = array("H")
        self.names: list = []
        self._ids: dict = {}
        self.raised = Counter()  # name id -> calls that raised
        self.top = -1  # id of the innermost open span
        self.phase = 0  # index into PHASES
        self.current_scenario = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def self_times(self, cost: float) -> tuple:
        """(calls by name, self seconds by name, wrapper seconds), computed
        from the spans.  Each span's self time gives up `cost` per
        direct child (never more than it has) to the wrapper seconds."""
        count = len(self.start)
        child = [0.0] * count
        children = [0] * count
        parent, start, end = self.parent, self.start, self.end
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                children[p] += 1
        calls = Counter()
        own = Counter()
        wrapper = 0.0
        names = self.names
        for i in range(count):
            name = names[self.name[i]]
            calls[name] += 1
            raw = end[i] - start[i] - child[i]
            moved = min(max(raw, 0.0), children[i] * cost)
            own[name] += raw - moved
            wrapper += moved
        return calls, own, wrapper

    def root_seconds(self) -> float:
        roots = {self._ids[r] for r in ROOTS if r in self._ids}
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0 and self.name[i] in roots
        )

    def write(self, path, scenario_seeds: list) -> None:
        """One JSON header line, then the five span arrays in field order."""
        header = {
            "fields": ["parent", "name", "start", "end", "scenario"],
            "typecodes": [a.typecode for a in self._arrays()],
            "count": len(self.start),
            "names": self.names,
            "scenario_seeds": scenario_seeds,
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in self._arrays():
                arr.tofile(handle)

    def _arrays(self):
        return (self.parent, self.name, self.start, self.end, self.scenario)


def read_spans(path) -> tuple:
    """Inverse of :meth:`Tracer.write`: (header, [arrays])."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        arrays = []
        for code in header["typecodes"]:
            arr = array(code)
            arr.fromfile(handle, header["count"])
            arrays.append(arr)
    return header, arrays


def _wrap(tracer: Tracer, fn, name_ids: tuple):
    """A span-recording wrapper; `name_ids` holds one name id, or one per
    phase when the layer is split by phase (crypto)."""
    parents, names, starts, ends, scenarios = tracer._arrays()
    raised = tracer.raised
    perf = time.perf_counter
    per_phase = len(name_ids) > 1
    only = name_ids[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nid = name_ids[tracer.phase] if per_phase else only
        sid = len(ends)
        outer = tracer.top
        parents.append(outer)
        names.append(nid)
        scenarios.append(tracer.current_scenario)
        ends.append(0.0)
        tracer.top = sid
        starts.append(perf())
        try:
            return fn(*args, **kwargs)
        except Exception:
            raised[nid] += 1
            raise
        finally:
            ends[sid] = perf()
            tracer.top = outer

    return wrapper


def _noop():
    return None


def _call_n(fn, n: int) -> None:
    for _ in range(n):
        fn()


_PROBE_CALLS = 20_000
_PROBE_REPEATS = 7


def span_cost() -> float:
    """Seconds one empty child span adds to its parent's self time: the
    parent's self time over many wrapped calls of an empty function, less
    the same loop over the bare function, per call (median of several)."""
    perf = time.perf_counter
    calls = _PROBE_CALLS
    samples = []
    for _ in range(_PROBE_REPEATS):
        probe = Tracer()
        child = _wrap(probe, _noop, (probe.name_id("child"),))
        parent = _wrap(probe, _call_n, (probe.name_id("parent"),))
        t0 = perf()
        _call_n(_noop, calls)
        bare = perf() - t0
        parent(child, calls)
        _, own, _ = probe.self_times(0.0)
        samples.append((own["parent"] - bare) / calls)
    return max(0.0, statistics.median(samples))


def _wrap_root(tracer: Tracer, fn, name_id: int, phase: int):
    """A wrapper that also sets the phase for every span beneath it."""
    inner = _wrap(tracer, fn, (name_id,))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tracer.phase
        tracer.phase = phase
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.phase = outer

    return wrapper


def _patch_points():
    """(owner, attribute, layer names, phase) for every binding to replace."""
    mod = {n: importlib.import_module(f"manetsec.{n}") for n in
           ("sim", "node", "messages", "encoding", "keymgmt", "routing", "group", "audit", "crypto")}
    points = []
    for module, cls, attr, layer in _TARGETS:
        owner = getattr(mod[module], cls) if cls else mod[module]
        points.append((owner, attr, (layer,), None))
    for cls in _PROVIDERS:
        owner = getattr(mod["crypto"], cls)
        for op in CRYPTO_OPS:
            points.append((owner, op, tuple(f"crypto.{op}.{phase}" for phase in PHASES), None))
    for module, cls, attr, layer, phase in _ROOT_TARGETS:
        owner = getattr(mod[module], cls) if cls else mod[module]
        points.append((owner, attr, (layer,), phase))
    return points


def bindings() -> list:
    """The current object behind every patch point (for restore checks)."""
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _patch_points()]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore
    every original binding, also when the block raises."""
    saved = []
    try:
        for owner, attr, layers, phase in _patch_points():
            original = owner.__dict__[attr]
            ids = tuple(tracer.name_id(layer) for layer in layers)
            saved.append((owner, attr, original))
            if phase is None:
                wrapper = _wrap(tracer, original, ids)
            else:
                wrapper = _wrap_root(tracer, original, ids[0], phase)
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, encode_payloads: int, cost: float) -> dict:
    """Per-layer figures from the spans (calls, self seconds, ratios).

    `encode_payloads` is the number of distinct payloads the traced
    scenarios logged, the base of ``messages.encode_per_payload``; `cost`
    is the :func:`span_cost` moved out of each parent per child span.
    """
    calls, own, wrapper = tracer.self_times(cost)
    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.s"] = (own[layer], "s")
    for prop in AUDIT_PROPERTIES:
        out[f"audit.{prop}.s"] = (own[f"audit.{prop}"], "s")
    trials = calls["crypto.sym_decrypt.audit"] + calls["crypto.pk_decrypt.audit"]
    misses = sum(
        tracer.raised[tracer.name_id(n)] for n in ("crypto.sym_decrypt.audit", "crypto.pk_decrypt.audit")
    )
    out["audit.trial_decrypts"] = (trials, "count")
    out["audit.trial_decrypt_hit_ratio"] = ((trials - misses) / trials if trials else 0.0, "ratio")
    out["messages.encode_per_payload"] = (
        calls["messages.encode"] / encode_payloads if encode_payloads else 0.0,
        "ratio",
    )
    out["unattributed.s"] = (sum(own[r] for r in ROOTS), "s")
    out["trace.wrapper_s"] = (wrapper, "s")
    out["trace.span_cost_s"] = (cost, "s")
    out["trace.spans"] = (len(tracer.start), "count")
    return out
