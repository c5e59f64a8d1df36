"""Regenerate ``reference.json``: digests and simulated statistics for every
scenario seed in every workload's pool.

    python3 perfbench/make_reference.py

Regenerate only at a commit whose logs are known to be right (the
reference is what later commits are checked against); a change that
claims to keep behaviour must pass against the old file instead.
"""

from __future__ import annotations

import json
import sys

import run  # noqa: F401  (imports manetsec from this checkout's src/)
import harness
import workloads


def main() -> int:
    entries = {}
    for name, workload in workloads.WORKLOADS.items():
        entries[name] = {}
        for seed in workload.pool:
            outcome = harness.run_scenario(workload.make(seed))
            if outcome.error:
                print(outcome.error, file=sys.stderr)
                return 1
            entries[name][str(seed)] = {"digests": outcome.digests, "stats": outcome.stats}
        print(f"{name}: {len(entries[name])} scenarios", flush=True)
    stamp = harness.stamp()
    reference = {"generated_at": {k: stamp[k] for k in ("commit", "source_sha256")}, "workloads": entries}
    with open(harness.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
