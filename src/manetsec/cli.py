"""Command-line front end.

    manetsec validate SCENARIO
    manetsec run SCENARIO [--seed N] [--out DIR] [--provider test|real]
                          [--strict-chain]
    manetsec report LOGFILE

Exit codes are a stable contract: 0 success (all audit properties passed
and every scripted expectation held), 1 expectation or audit mismatch,
2 invalid input, 3 I/O failure.  ``MANETSEC_OUT`` overrides the default
output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace

from .audit import audit
from .scenariofile import ScenarioParseError, parse_scenario
from .sim import SimulationError, parse_log_text, run, validate_scenario

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_IO = 3


def _load_scenario(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    try:
        scenario = parse_scenario(text)
    except ScenarioParseError as exc:
        for problem in exc.problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return None, EXIT_INVALID
    problems = validate_scenario(scenario)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return None, EXIT_INVALID
    return scenario, EXIT_OK


def cmd_validate(args) -> int:
    scenario, status = _load_scenario(args.scenario)
    if status != EXIT_OK:
        return status
    print(f"{args.scenario}: ok ({len(scenario.nodes)} nodes, {len(scenario.groups)} groups)")
    return EXIT_OK


def cmd_run(args) -> int:
    scenario, status = _load_scenario(args.scenario)
    if status != EXIT_OK:
        return status
    if args.seed is not None:
        scenario.seed = args.seed
    if args.provider:
        scenario.provider_name = {"test": "test_double", "real": "real_crypto"}.get(
            args.provider, args.provider
        )
    if args.strict_chain:
        scenario.params = replace(scenario.params, strict_chain=True)
    out_dir = args.out or os.environ.get("MANETSEC_OUT") or "manetsec-out"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        log = run(scenario)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = audit(log)
    base = os.path.splitext(os.path.basename(args.scenario))[0]
    try:
        with open(os.path.join(out_dir, base + ".log"), "w", encoding="utf-8") as handle:
            handle.write(log.to_text())
        with open(os.path.join(out_dir, base + ".payloads"), "wb") as handle:
            handle.write(log.payload_blob())
        with open(os.path.join(out_dir, base + ".audit.txt"), "w", encoding="utf-8") as handle:
            handle.write(report.to_text())
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_IO
    ok = report.passed
    for result in report.results:
        print(result.line())
    for expectation, met in zip(scenario.expectations, report.met):
        label = f"expect {expectation.kind} {' '.join(str(a) for a in expectation.args)}"
        print(f"{label}: {'MET' if met else 'MISSED'}")
        ok = ok and met
    print(f"artifacts: {out_dir}/{base}.log (+.payloads, +.audit.txt)")
    return EXIT_OK if ok else EXIT_MISMATCH


# Timeline rows of `report`, in summary order: (event kind, the detail's
# leading word or None for any, summary counter, timeline label).  An event
# matches at most one row.
_REPORT_ROWS = (
    ("elect", None, "elections", "elect"),
    ("admit", None, "admits", "admit"),
    ("remove", None, "removals", "remove"),
    ("rekey", None, "rekeys", "rekey"),
    ("verdict", "discovery_started", "discoveries", "discover"),
    ("verdict", "accept", "accepts", "accept"),
    ("verdict", "reject", "rejects", "reject"),
    ("verdict", "route_installed", "routes_installed", "route"),
    ("alert", None, "alerts", "alert"),
)


def cmd_report(args) -> int:
    try:
        with open(args.log, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        log = parse_log_text(text)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    counts = dict.fromkeys((counter for _, _, counter, _ in _REPORT_ROWS), 0)
    for event in log.events:
        for kind, word, counter, label in _REPORT_ROWS:
            if event.kind == kind and word in (None, event.word):
                counts[counter] += 1
                print(f"t={event.tick:<4} {label:<8} {event.principals} ({event.detail})")
                break
    print(
        "summary: "
        + " ".join(f"{name}={value}" for name, value in counts.items())
    )
    # Drops by reason, the words of a drop's detail.
    drops = Counter(event.words for event in log.events if event.kind == "drop")
    print("drops: " + (" ".join(f"{reason}={drops[reason]}" for reason in sorted(drops)) or "none"))
    # Traffic by message kind, the leading word of a send or deliver detail.
    sent = Counter(event.word for event in log.events if event.kind == "send")
    delivered = Counter(event.word for event in log.events if event.kind == "deliver")
    kinds = sorted(sent.keys() | delivered.keys())
    print("traffic: " + (" ".join(f"{kind}={sent[kind]}/{delivered[kind]}" for kind in kinds) or "none"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="manetsec",
        description="Deterministic group-MANET key management and secure routing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario, audit it, write artifacts")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="output directory (default $MANETSEC_OUT or ./manetsec-out)")
    p_run.add_argument("--provider", choices=["test", "real"], default=None, help="crypto provider")
    p_run.add_argument("--strict-chain", action="store_true", help="chain-check at every hop")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="human-readable timeline of a log")
    p_report.add_argument("log")
    p_report.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
