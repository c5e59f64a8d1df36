"""Run the benchmark on several workload seeds and summarise each metric.

    python3 perfbench/spread.py --label baseline

For every workload in ``BENCHMARK.json`` this runs ``run.py`` once per seed
(1..10, each a fresh process, one after another), then reports each
end-to-end metric's median, quartiles and spread (interquartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles) against the metric's bound.  The summary, with the provenance
stamp of the first run, is written to ``perfbench/results/<label>.json``;
a performance change compares its own summary with the parent's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} failed:\n{done.stderr}")
    stamp = json.loads(next(l for l in lines if l.startswith("stamp: "))[len("stamp: "):])
    return stamp, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"runs": RUNS, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict = {}
        for seed in range(1, RUNS + 1):
            stamp, result = _run(workload, seed, bench["run_seconds"])
            summary.setdefault("stamp", stamp)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            rows[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "bound": bounds[name],
                "values": series,
            }
            print(f"{workload:12s} {name:16s} median {median:<12.6g} spread {rows[name]['spread']:.4f} "
                  f"bound {bounds[name]}", flush=True)
        summary["workloads"][workload] = rows
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.label}.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
