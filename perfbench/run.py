"""manetsec benchmark: seeded scenario sweeps, run, audited and checked.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
there.  The workload seed orders the workload's pool of scenario seeds
and ``--seconds`` sets how many of them one run sweeps (a fixed count per
run length, so two commits always do the same work).  Every scenario is
constructed, simulated and audited; its log text, payload sidecar and
audit text must hash to the digests in ``reference.json`` and its
simulated statistics must equal the recorded ones, or the scenario counts
as failed and the command exits 1.

``--trace 0`` reports the end-to-end metrics, with every time scaled by
the yardstick timed between scenarios (``yardstick.py``), so that the
host's drifting speed cancels out.  ``--trace 1`` sweeps the
first few scenarios of the same plan twice, untraced and then with a span
around every call into each ``manetsec`` layer, and reports per-layer call
counts and self times (less the measured cost of the wrappers beneath
each span); the difference between the two passes is the tracing
overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Earlier lines give the
provenance stamp, the simulated statistics, the tail percentile and its
sample count, and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
IMPORT_STARTS = 5  # fresh interpreters timed for the import part of setup_s
END_TO_END = (
    "scenarios_per_s",
    "events_per_s",
    "sim_s.p50",
    "sim_s.tail",
    "audit_s.p50",
    "audit_s.tail",
    "setup_s",
    "peak_rss_mb",
)


def _import_program():
    """Import ``manetsec`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "manetsec" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {SRC / 'manetsec'} is missing")
    sys.path.insert(0, str(SRC))
    import manetsec

    if Path(manetsec.__file__).resolve().parent != SRC / "manetsec":
        sys.exit(f"error: manetsec was imported from {manetsec.__file__}, not {SRC}")


_import_program()

import harness  # noqa: E402  (imports manetsec, so after the path check)
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _check(outcomes, reference, workload) -> int:
    failed = 0
    for outcome in outcomes:
        why = harness.mismatch(outcome, reference, workload)
        if why:
            failed += 1
            print(f"FAIL {workload} scenario seed {outcome.seed}: {why}", file=sys.stderr)
            if outcome.error:
                print(outcome.error, file=sys.stderr)
    return failed


def end_to_end(workload, seeds, reference) -> tuple:
    scenarios = [workload.make(seed) for seed in seeds]
    import_host_s, import_s = harness.cold_import_seconds(IMPORT_STARTS)
    # The yardstick is timed before the first scenario and after each one;
    # every time below is host seconds times the scale around its scenario.
    samples = [yardstick.seconds()]
    outcomes = []
    for scenario in scenarios:
        outcomes.append(harness.run_scenario(scenario))
        samples.append(yardstick.seconds())
    scale = yardstick.scales(samples)
    failed = _check(outcomes, reference, workload.name)
    timed = [(o, k) for o, k in zip(outcomes, scale) if not o.error]
    if not timed:
        sys.exit("error: every scenario raised; nothing was measured")
    sim = harness.summarise([o.run_s * k for o, k in timed])
    aud = harness.summarise([o.audit_s * k for o, k in timed])
    events = sum(sum(o.stats["events"].values()) for o, _ in timed)
    print(
        f"tail: p{sim['tail_percentile']} of {sim['samples']} scenarios "
        f"(the highest whole percentile with at least 10 samples above it)"
    )
    print(
        f"host: yardstick median {statistics.median(samples) * 1e3:.2f} ms "
        f"(reference {yardstick.REFERENCE_S * 1e3:.2f} ms); unscaled sim_s.p50 "
        f"{statistics.median(o.run_s for o, _ in timed):.4f} s, audit_s.p50 "
        f"{statistics.median(o.audit_s for o, _ in timed):.4f} s, import {import_host_s:.4f} s"
    )
    print(f"setup: import {import_s:.4f} s (median of {IMPORT_STARTS} fresh interpreters)")
    metrics = {
        "scenarios_per_s": (len(outcomes) / sum(o.total_s * k for o, k in zip(outcomes, scale)), "1/s"),
        "events_per_s": (events / sum(o.run_s * k for o, k in timed), "1/s"),
        "sim_s.p50": (sim["p50"], "s"),
        "sim_s.tail": (sim["tail"], "s"),
        "audit_s.p50": (aud["p50"], "s"),
        "audit_s.tail": (aud["tail"], "s"),
        "setup_s": (import_s + sum(o.construct_s * k for o, k in timed), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }
    return outcomes, failed, metrics


def per_layer(workload, seeds, reference, run_label) -> tuple:
    seeds = seeds[: workload.traced]
    scenarios = [workload.make(seed) for seed in seeds]
    plain = [harness.run_scenario(scenario) for scenario in scenarios]
    tracer = tracing.Tracer()
    cost_before = tracing.span_cost()
    with tracing.traced(tracer):
        spanned = []
        for index, scenario in enumerate(scenarios):
            tracer.current_scenario = index
            spanned.append(harness.run_scenario(scenario))
    # The host's speed drifts, so the wrapper cost is measured on both sides.
    cost = (cost_before + tracing.span_cost()) / 2
    failed = 0
    for a, b in zip(plain, spanned):
        # Both passes must match the reference, so tracing changed no byte.
        bad = harness.mismatch(a, reference, workload.name) or harness.mismatch(b, reference, workload.name)
        if bad:
            failed += 1
            print(f"FAIL {workload.name} scenario seed {a.seed}: {bad}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{run_label}.bin"
    tracer.write(spans_path, list(seeds))
    print(f"spans: {len(tracer.start)} written to {spans_path.relative_to(HERE.parent)}")
    payloads = sum(o.stats.get("payloads", 0) for o in spanned)
    metrics = tracing.layer_metrics(tracer, payloads, cost)
    metrics.update({k: (v, "count") for k, v in harness.total_stats(spanned).items()})
    traced_s = tracer.root_seconds()
    untraced_s = sum(o.construct_s + o.run_s + o.audit_s for o in plain)
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return spanned, failed, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = harness.load_reference()
    seeds = workload.plan(args.seed, args.seconds)
    stamp = harness.stamp()
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcomes, failed, metrics = per_layer(workload, seeds, reference, label)
        names = tracing.per_layer_metric_names()
    else:
        outcomes, failed, metrics = end_to_end(workload, seeds, reference)
        names = END_TO_END
    print("simulated: " + json.dumps(harness.total_stats(outcomes), sort_keys=True))
    for name in names:
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed}/{len(outcomes)}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{label}.json", "w", encoding="utf-8") as handle:
        json.dump({"stamp": stamp, "seeds": seeds, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
