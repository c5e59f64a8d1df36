"""Golden digests: the simulator's output, pinned byte for byte.

Each pinned case (``corpus.PINNED``, which says what they cover) hashes its
log text followed by its payload sidecar, and its log text reads back into
the events that were logged.  The committed table in ``golden_digests.json``
was generated from the simulator before any refactoring of its hot path, so
a refactoring that claims to keep behaviour must reproduce every digest.

Each case's audit text is pinned too, in ``golden_audit_digests.json``:
sixteen of the cases FAIL some property, so the table holds failing
verdicts and their counterexamples as well as passing ones, and an auditor
change that drifts any of them fails the suite.  The benchmark's own
reference (``perfbench/reference.json``) is checked here as well, on a
slice of each workload's pool, so the audit text of the benchmarked runs
is pinned in the suite and not only in the benchmark.

No log shows a ring key, so a wrong one would pass every digest of a
single-group run; the ring keys of churn seeds 500-519 and of every
multi-group case are checked against the leaders' chain raised with
builtin ``pow`` alone.

To print the log table for the current code:
``PYTHONPATH=src python tests/test_golden.py``; to print the audit table:
``PYTHONPATH=src python tests/test_golden.py audit``.
"""

import hashlib
import json
import os
import sys

import pytest

import corpus
from corpus import GOLDEN, digest
from manetsec import encoding, sim as sim_module
from manetsec.audit import audit
from manetsec.crypto import make_provider
from manetsec.keymgmt import RING_GENERATOR, RING_MODULUS, leader_ring_agree
from manetsec.node import ProtocolNode
from manetsec.sim import Simulation, parse_log_text
from topologies import workloads

HERE = os.path.dirname(__file__)
with open(os.path.join(HERE, "golden_audit_digests.json")) as fh:
    GOLDEN_AUDIT = json.load(fh)
with open(os.path.join(HERE, "..", "perfbench", "reference.json")) as fh:
    BENCHMARK_REFERENCE = json.load(fh)["workloads"]


def audit_digest(case_id) -> str:
    return hashlib.sha256(corpus.audit(case_id).to_text().encode()).hexdigest()


def test_table_names_every_case():
    assert sorted(GOLDEN) == sorted(GOLDEN_AUDIT) == sorted(corpus.PINNED)


@pytest.mark.parametrize("case_id", corpus.PINNED)
def test_golden_digest(case_id):
    log = corpus.log(case_id)
    assert digest(log) == GOLDEN[case_id]
    # The log reads back as the very events that were logged.
    assert parse_log_text(log.to_text()).events == log.events
    assert audit_digest(case_id) == GOLDEN_AUDIT[case_id]


# The fixtures, three churn cases, and every adversary kind on a link and
# at a node.
CROSS_RUN_CASES = (
    corpus.FIXTURES
    + [case_id for case_id in corpus.PINNED if case_id.startswith("churn:")][:3]
    + [case_id for case_id in corpus.PINNED if case_id.startswith("adversary:")]
)


def test_runs_in_one_process_keep_their_digests_in_either_order():
    # Crash, adversary and relay state lives on each Simulation, not on
    # anything shared: a slice of the cases run forward and then in reverse
    # in one process keeps every pinned digest both times.  The point is a
    # fresh run of each, so none comes from the corpus.
    for order in (CROSS_RUN_CASES, CROSS_RUN_CASES[::-1]):
        moved = [case_id for case_id in order if digest(corpus.fresh(case_id)) != GOLDEN[case_id]]
        assert moved == []


# A walking grid (many forwards and verdicts), a stealth relay and a churn.
MEMO_CASES = ("grid_mobile:900:plain", "fixture:stealth_mitm.scn", "churn:500:plain")


def test_provider_memos_leak_nothing_between_runs_in_either_order():
    # Every memo (verdicts, public keys, MAC and tag keys, held seals,
    # directories) lives on a run's provider or on the audit's own.  The
    # cases run forward and then in reverse in one process give the same
    # log, sidecar and audit bytes, the committed ones, both times.  The
    # memos hold bytes and bools alone, so a full collection untracks them.
    # The point is fresh runs, so none comes from the corpus.
    import gc

    providers, seen = [], {}

    def simulation(scenario):
        run = Simulation(scenario)
        providers.append(run.provider)
        return run

    for order in (MEMO_CASES, MEMO_CASES[::-1]):
        for case_id in order:
            log = corpus.fresh(case_id, simulation)
            artifacts = {"log": log.to_text().encode(), "payloads": log.payload_blob()}
            artifacts["audit"] = audit(log).to_text().encode()
            digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
            assert seen.setdefault(case_id, digests) == digests, case_id
            if case_id in GOLDEN:
                assert digest(log) == GOLDEN[case_id] and digests["audit"] == GOLDEN_AUDIT[case_id]
            else:
                workload, seed, _ = case_id.split(":")
                assert digests == BENCHMARK_REFERENCE[workload][seed]["digests"]
    gc.collect()
    assert all(provider._verdicts and provider._publics for provider in providers)
    tracked = [
        name for provider in providers for name in ("_verdicts", "_publics", "_mac_keys", "_tag_keys")
        if gc.is_tracked(getattr(provider, name))
    ]
    assert tracked == []


def test_a_corpus_log_is_a_copy_no_caller_can_change():
    # Every caller gets its own events, payloads, registry and audit report,
    # and a second request simulates nothing.
    case_id = "fixture:benign_line.scn"
    edited, report = corpus.log(case_id), corpus.audit(case_id)
    edited.events[0].tick = -1
    edited.events.append(edited.events[0])
    edited.payloads.popitem()
    edited.registry.expectations += edited.registry.expectations
    edited.registry.secrets = []
    report.results[0].passed, report.met[:] = False, []
    log, run, report = corpus.log(case_id), corpus.fresh(case_id), corpus.audit(case_id)
    assert corpus.SIMULATED[case_id] == 1
    assert digest(log) == digest(run) == GOLDEN[case_id] and log.registry == run.registry
    assert (report.to_text(), report.met) == (audit(run).to_text(), audit(run).met) and report.met


GATEWAY_CASES = [f"{name}:{seed}" for name in ("two_group", "ring_data", "leader_session") for seed in (1, 2, 3)]


@pytest.mark.parametrize("case_id", GATEWAY_CASES + ["unknown_destination"])
def test_every_gateway_wait_ends(case_id):
    # A gateway job ends when a GROUP_REP answers it or its last GROUP_NEG
    # arrives; a remote job or a composed request ends when answered.  The
    # jobs are the nodes' own state, so this reads a fresh Simulation.
    sim = Simulation(corpus.CASES[case_id].build())
    sim.run()
    held = {
        name: (node.gateway_jobs, node.remote_jobs, node.pending_composed)
        for name, node in sim.nodes.items()
        if isinstance(node, ProtocolNode) and (node.gateway_jobs or node.remote_jobs or node.pending_composed)
    }
    assert held == {}


RING_CASES = [f"churn:{seed}:plain" for seed in range(500, 520)]
RING_CASES += [case_id for case_id in corpus.PINNED if len(corpus.CASES[case_id].build().groups) > 1]


@pytest.mark.parametrize("case_id", RING_CASES, ids=lambda case_id: case_id.removesuffix(":plain"))
def test_ring_keys_equal_a_chain_of_builtin_pow(case_id, monkeypatch):
    # The chain is recorded as the run agrees each ring key, so the run is
    # a fresh one.  A ring of one leader records no chain and no key.
    chains = []  # the leaders and secrets of each ring version agreed, in order

    def recorded(leaders, provider):
        chains.append(list(leaders))
        return leader_ring_agree(leaders, provider)

    monkeypatch.setattr(sim_module, "leader_ring_agree", recorded)
    log = corpus.fresh(case_id)
    provider = make_provider(log.registry.provider_name)
    rekeys = [event for event in log.events if event.kind == "rekey" and event.word == "ring"]
    agreed = [event for event in rekeys if "," in event.actor]
    assert [event.actor.split(",") for event in agreed] == [[name for name, _ in chain] for chain in chains]
    versions = [int(event.get("version")) for event in agreed]
    keys = [(label[1], owner, key) for _, owner, label, key in log.registry.secrets if label[0] == "ring_key"]
    assert sorted((version, owner) for version, owner, _ in keys) == [
        (version, name) for version, chain in zip(versions, chains) for name, _ in chain
    ]
    for version, _, key in keys:
        shared = RING_GENERATOR
        for _, secret in chains[versions.index(version)]:
            shared = pow(shared, secret, RING_MODULUS)
        assert key == provider.hash(encoding.encode("ring-key", shared))[: provider.sym_key_size]


BENCHMARK_SLICE = [f"churn:{seed}:plain" for seed in range(500, 510)] + [
    f"{name}:{seed}:plain" for name in ("grid_static", "grid_mobile") for seed in workloads.WORKLOADS[name].pool[:3]
]


@pytest.mark.parametrize("case_id", BENCHMARK_SLICE, ids=lambda case_id: case_id.removesuffix(":plain"))
def test_benchmark_reference_digests(case_id):
    workload, seed, _ = case_id.split(":")
    log = corpus.log(case_id)
    artifacts = {
        "log": log.to_text().encode(),
        "payloads": log.payload_blob(),
        "audit": corpus.audit(case_id).to_text().encode(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    assert digests == BENCHMARK_REFERENCE[workload][seed]["digests"]


if __name__ == "__main__":
    pin = audit_digest if sys.argv[1:] == ["audit"] else lambda case_id: digest(corpus.log(case_id))
    table = {case_id: pin(case_id) for case_id in corpus.PINNED}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
