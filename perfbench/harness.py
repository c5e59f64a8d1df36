"""Running scenarios, checking their artifacts and summarising timings."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import yardstick
from tracing import EVENT_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

_sim = importlib.import_module("manetsec.sim")
# ``manetsec/__init__`` re-exports the ``audit`` function under the name of
# its module, so the module is fetched from the import system, and the
# function is looked up on it at call time (a traced run replaces it).
_audit = importlib.import_module("manetsec.audit")


@dataclass
class Outcome:
    """What one (workload, scenario seed) run produced and how long it took."""

    seed: int
    construct_s: float = 0.0
    run_s: float = 0.0
    audit_s: float = 0.0
    total_s: float = 0.0  # construct, run, audit and digest
    digests: dict = field(default_factory=dict)  # artifact -> sha256 hex
    stats: dict = field(default_factory=dict)
    error: str = ""


def simulated_stats(scenario, log) -> dict:
    """Counts that depend only on the scenario and must repeat exactly."""
    kinds = Counter(event.kind for event in log.events)
    return {
        "ticks": scenario.params.duration + 1,
        "events": dict(sorted(kinds.items())),
        "payloads": len(log.payloads),
    }


def run_scenario(scenario) -> Outcome:
    """Construct, simulate and audit one scenario, then digest its three
    artifacts (log text, payload sidecar, audit text)."""
    outcome = Outcome(scenario.seed)
    perf = time.perf_counter
    t0 = perf()
    try:
        simulation = _sim.Simulation(scenario)
        t1 = perf()
        log = simulation.run()
        t2 = perf()
        report = _audit.audit(log)
        t3 = perf()
    except Exception:
        outcome.error = traceback.format_exc()
        outcome.total_s = perf() - t0
        return outcome
    outcome.construct_s, outcome.run_s, outcome.audit_s = t1 - t0, t2 - t1, t3 - t2
    outcome.digests = {
        "log": hashlib.sha256(log.to_text().encode("utf-8")).hexdigest(),
        "payloads": hashlib.sha256(log.payload_blob()).hexdigest(),
        "audit": hashlib.sha256(report.to_text().encode("utf-8")).hexdigest(),
    }
    outcome.total_s = perf() - t0
    outcome.stats = simulated_stats(scenario, log)
    return outcome


def load_reference(path=REFERENCE) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def mismatch(outcome: Outcome, reference: dict, workload: str) -> str:
    """Why this outcome fails its reference, or "" when it matches."""
    if outcome.error:
        return outcome.error.strip().splitlines()[-1]
    expected = reference.get("workloads", {}).get(workload, {}).get(str(outcome.seed))
    if expected is None:
        return "no reference entry"
    for artifact, digest in outcome.digests.items():
        if expected["digests"].get(artifact) != digest:
            return f"{artifact} digest differs from the reference"
    if expected["stats"] != outcome.stats:
        return "simulated statistics differ from the reference"
    return ""


def total_stats(outcomes: list) -> dict:
    """Simulated statistics summed over a sweep."""
    events = Counter()
    for outcome in outcomes:
        events.update(outcome.stats.get("events", {}))
    out = {
        "sim.ticks": sum(o.stats.get("ticks", 0) for o in outcomes),
        "sim.payloads": sum(o.stats.get("payloads", 0) for o in outcomes),
    }
    for kind in EVENT_KINDS:
        out[f"sim.events.{kind}"] = events[kind]
    return out


def tail_rank(count: int) -> tuple:
    """(percentile, 1-based rank) of the highest whole percentile that
    leaves at least ten samples above it, by the nearest-rank rule."""
    percentile = max(0, (100 * (count - 10)) // count) if count else 0
    rank = max(1, math.ceil(percentile * count / 100))
    return percentile, rank


def summarise(values: list) -> dict:
    ordered = sorted(values)
    percentile, rank = tail_rank(len(ordered))
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_percentile": percentile,
        "samples": len(ordered),
    }


def cold_import_seconds(starts: int) -> tuple:
    """Median time to import ``manetsec`` in a fresh interpreter, as
    (host seconds, seconds scaled by the yardstick timed around each start)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import manetsec; print(time.perf_counter() - t)"
    )
    times = []
    samples = [yardstick.seconds()]
    for _ in range(starts):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
            cwd=ROOT,
        )
        times.append(float(done.stdout.strip()))
        samples.append(yardstick.seconds())
    scaled = [t * k for t, k in zip(times, yardstick.scales(samples))]
    return statistics.median(times), statistics.median(scaled)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    """HEAD of the checkout's own repository, if it is one."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "manetsec").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp() -> dict:
    """Where the numbers came from; figures from different stamps are not
    comparable."""
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "sympy": metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
    }
