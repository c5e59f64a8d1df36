"""Acceptance suite: every release criterion, one test each, at its stated
tolerance.  Each test prints one PASS line on success; a failure shows up as
an ordinary pytest failure for that criterion.
"""

import random
import time

import corpus
from manetsec.artifacts import render_detail
from manetsec.audit import audit
from manetsec.crypto import (
    DeterministicProvider,
    zk_commit,
    zk_respond,
    zk_setup,
    zk_verify,
)
from manetsec.group import NodeAttributes, WeightConfig, elect_leader, weight
from manetsec.messages import MessageKind, decode_message
from manetsec.node import mutate_message
from manetsec.routing import Router
from manetsec.runtime import Ctx
from manetsec.sim import Action, AdversarySpec, SimParams, run
from topologies import (
    RADIUS,
    connected_random_positions,
    diameter,
    hop_distance,
    line_scenario,
    random_group_scenario,
    stealth_family_scenario,
    stealth_link_scenario,
    two_group_scenario,
    verdicts,
)


def announce(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. The worked stealth-relay example
# ---------------------------------------------------------------------------


def test_criterion_1_worked_stealth_example():
    started = time.monotonic()
    attacked = run(stealth_link_scenario(seed=7, lifetime=8))
    rejects = verdicts(attacked, "D", "reject:chain_mismatch")
    assert len(rejects) == 1, "destination must discard the relayed request"
    assert not verdicts(attacked, "D", "accept:")
    assert not verdicts(attacked, "S", "route_installed")

    clean = run(stealth_link_scenario(seed=7, lifetime=8, with_adversary=False))
    assert verdicts(clean, "D", "accept:")
    installs = verdicts(clean, "S", "route_installed:dest=D")
    assert installs, "without the relay the route must install"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"worked example took {elapsed:.3f}s (budget 1s)"
    announce(1, f"stealth relay rejected (chain_mismatch), clean variant routes; {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Stealth detection across path lengths and positions
# ---------------------------------------------------------------------------


def test_criterion_2_stealth_family_full_detection():
    variants = 0
    detected = 0
    for lifetime in (8, 12):
        for hops in range(2, 7):
            for position in range(hops):
                seed = 1000 + lifetime * 100 + hops * 10 + position
                log = run(stealth_family_scenario(hops, position, seed, lifetime))
                variants += 1
                rejects = verdicts(log, "D", "reject:chain_mismatch")
                accepts = verdicts(log, "D", "accept:")
                assert not accepts, f"hops={hops} pos={position} L={lifetime}: false accept"
                assert rejects, f"hops={hops} pos={position} L={lifetime}: not detected"
                detected += 1
    assert variants >= 25
    assert detected == variants
    announce(2, f"{detected}/{variants} stealth variants detected at the destination")


# ---------------------------------------------------------------------------
# 3. Single-field tamper fuzzing
# ---------------------------------------------------------------------------


def _harvest_in_flight(log, registry):
    """Honest in-flight request copies along the accepted route.

    Returns (route, origin_lifetime, [(message, next_hop_index)]) where the
    message is the copy about to be processed by route[next_hop_index]
    (the destination when the index is the last one).
    """
    accept = next(
        e for e in log.events if e.kind == "verdict" and e.detail.startswith("accept:")
    )
    accepted = decode_message(log.payloads[accept.digest])
    route = accepted["route"] + [accepted["dest"]]
    copies = []
    seen = set()
    for event in log.events:
        if event.kind != "deliver" or event.digest in seen:
            continue
        payload = log.payloads.get(event.digest)
        if payload is None or not payload.startswith(bytes([MessageKind.RREQ])):
            continue
        message = decode_message(payload)
        if message["source"] != accepted["source"] or message["seq"] != accepted["seq"]:
            continue
        prefix = message["route"]
        if prefix == route[: len(prefix)] and len(prefix) < len(route):
            recipient = event.principals.split(">", 1)[1]
            if recipient == route[len(prefix)]:
                seen.add(event.digest)
                copies.append((message, len(prefix)))
    return route, accepted, copies


MUTATION_MENU = (
    ("lifetime", "add", lambda rng, names: rng.choice((1, 2, -1, 3))),
    ("seq", "add", lambda rng, names: rng.choice((1, 2, 5))),
    ("source", "set", lambda rng, names: rng.choice(names)),
    ("dest", "set", lambda rng, names: rng.choice(names)),
    ("chain", "flipbit", lambda rng, names: None),
    ("sigs", "flip_item", lambda rng, names: None),
    ("route", "swap", lambda rng, names: None),
    ("route", "drop_last", lambda rng, names: None),
    ("route", "dup_last", lambda rng, names: None),
)


def _journey(provider, keys, directory, route, start_index, message):
    """Run a request through the remaining honest hops; True if accepted."""
    for position in range(start_index, len(route)):
        name = route[position]
        router = Router(name, keys[name], provider, SimParams())
        router.next_seq = message["seq"]  # the source already spent this seq
        ctx = Ctx(name=name, now=0, rng=random.Random(0))
        router.handle_rreq(message, directory, ctx)
        accepted = any(render_detail(n.parts).startswith("accept:") for n in ctx.notes)
        if accepted:
            return True
        forwarded = next(
            (e.message for e in ctx.outbound if e.message.kind == MessageKind.RREQ), None
        )
        if forwarded is None:
            return False  # rejected or dropped here
        message = forwarded
    return False


def test_criterion_3_tamper_fuzzing():
    provider = DeterministicProvider()
    rng = random.Random(0xF022)
    total_mutants = 0
    false_rejects = 0
    accepted_mutants = []
    topologies = 0
    seed = 9000
    while total_mutants < 10_000:
        seed += 1
        scenario, source, dest, span = random_group_scenario(seed, count=16)
        log = run(scenario)
        if not any(e.kind == "verdict" and e.detail.startswith("accept:") for e in log.events):
            continue  # geometry too tight this time; next seed
        topologies += 1
        registry = log.registry
        keys = registry.keypairs
        directory = {name: pair.public for name, pair in keys.items()}
        route, accepted, copies = _harvest_in_flight(log, registry)
        assert copies, "benign run must yield in-flight copies"
        per_stage = max(1, 10_000 // (14 * len(copies)))
        for message, stage in copies:
            # Control: the untouched copy must sail through.
            if not _journey(provider, keys, directory, route, stage, message):
                false_rejects += 1
            names = [n for n in route if n not in (message["source"],)]
            for _ in range(per_stage):
                field, op, pick = MUTATION_MENU[rng.randrange(len(MUTATION_MENU))]
                value = pick(rng, names)
                mutated = mutate_message(message, field, op, value, rng)
                if mutated.fields == message.fields:
                    continue  # mutation landed on the identity (e.g. same name)
                total_mutants += 1
                if _journey(provider, keys, directory, route, stage, mutated):
                    accepted_mutants.append((seed, stage, field, op))
    assert total_mutants >= 10_000
    assert not accepted_mutants, f"mutants accepted: {accepted_mutants[:5]}"
    assert false_rejects == 0
    announce(
        3,
        f"{total_mutants} single-field mutants over {topologies} topologies all rejected; "
        f"0 false rejects on controls",
    )


# ---------------------------------------------------------------------------
# 4. Identification handshake completeness and soundness
# ---------------------------------------------------------------------------


def test_criterion_4_identification_scheme():
    rng = random.Random(404)
    # Completeness: exhaustive over the prime pool and challenges 0..64.
    pool = [(11, 13), (11, 17), (13, 17), (13, 19), (17, 19)]
    checked = 0
    for p, q in pool:
        modulus = p * q
        for secret in range(2, modulus):
            params, _ = zk_setup(p, q, secret)
            commitment, witness = zk_commit(rng, modulus)
            for challenge in range(65):
                response = zk_respond(witness, secret, challenge, modulus)
                assert zk_verify(commitment, params.square, challenge, response, modulus)
                checked += 1

    # Soundness, 64-bit challenges: the guessing forger never wins in 1e5 tries.
    p, q, secret = 2_147_483_659, 2_147_483_693, 123_456_789  # gcd(secret, pq) == 1
    params, _ = zk_setup(p, q, secret)
    modulus = params.modulus
    square_inverse = pow(params.square, -1, modulus)
    wins64 = 0
    for _ in range(100_000):
        guess = rng.getrandbits(64)
        response = rng.randrange(2, modulus)
        commitment = (pow(response, 2, modulus) * pow(square_inverse, guess, modulus)) % modulus
        challenge = rng.getrandbits(64)
        if zk_verify(commitment, params.square, challenge, response, modulus):
            wins64 += 1
    assert wins64 == 0

    # Sanity of the soundness model: with 1-bit challenges the same forger
    # wins about half the time.
    wins1 = 0
    trials = 10_000
    for _ in range(trials):
        guess = rng.getrandbits(1)
        response = rng.randrange(2, modulus)
        commitment = (pow(response, 2, modulus) * pow(square_inverse, guess, modulus)) % modulus
        challenge = rng.getrandbits(1)
        if zk_verify(commitment, params.square, challenge, response, modulus):
            wins1 += 1
    rate = wins1 / trials
    assert 0.4 <= rate <= 0.6, f"1-bit impostor rate {rate}"
    announce(
        4,
        f"completeness {checked} exchanges; 64-bit impostor 0/100000; 1-bit rate {rate:.3f}",
    )


# ---------------------------------------------------------------------------
# 5. Forward/backward secrecy over churn, plus auditor self-test
# ---------------------------------------------------------------------------


def test_criterion_5_secrecy_audit_over_churn():
    violations = []
    for seed in range(500, 600):
        log = corpus.log(f"churn:{seed}:plain")
        epochs = [e for e in log.events if e.kind == "rekey" and not e.detail.startswith("ring")]
        assert len(epochs) >= 10, f"seed {seed}: only {len(epochs)} epochs"
        report = corpus.audit(f"churn:{seed}:plain")
        for name in ("forward_secrecy", "backward_secrecy"):
            result = report.result(name)
            if not result.passed:
                violations.append((seed, name, result.counterexamples[:3]))
        assert report.passed, f"seed {seed}: {report.to_text()}"
    assert not violations

    flagged = {}
    for fault, prop in (
        ("leak_key", "backward_secrecy"),
        ("skip_rekey", "backward_secrecy"),
        ("forge_admit", "mutual_auth"),
    ):
        result = corpus.audit(f"churn:500:{fault}").result(prop)
        assert not result.passed, f"fault {fault} not flagged"
        assert result.counterexamples, f"fault {fault} flagged without a counter-example"
        flagged[fault] = result.counterexamples[0]
    announce(5, f"100 churn runs clean; fault injections flagged at {flagged}")


# ---------------------------------------------------------------------------
# 6. Benign routing completeness
# ---------------------------------------------------------------------------


def test_diameter_is_largest_pairwise_hop_distance():
    # `diameter` sizes criterion 6's request budgets; it must equal the
    # largest hop distance over all pairs, as drawn for those seeds.
    for seed in range(700, 706):
        rng = random.Random(seed)
        positions = connected_random_positions(rng, rng.randint(8, 32))
        count = len(positions)
        pairwise = max(hop_distance(positions, RADIUS, a, b) for a in range(count) for b in range(a + 1, count))
        assert diameter(positions, RADIUS) == pairwise


def test_criterion_6_benign_completeness():
    successes = 0
    for seed in range(700, 800):
        scenario, source, dest, span = random_group_scenario(seed)
        assert scenario.params.rreq_lifetime >= span  # budget covers the diameter path
        log = corpus.log(f"random_group:{seed}")
        installs = verdicts(log, source, f"route_installed:dest={dest}")
        assert installs, f"seed {seed}: discovery failed ({len(scenario.nodes)} nodes, span {span})"
        accept = next(
            e for e in log.events if e.kind == "verdict" and e.detail.startswith("accept:")
        )
        accepted = decode_message(log.payloads[accept.digest])
        route = accepted["route"] + [accepted["dest"]]
        assert len(route) == len(set(route)), f"seed {seed}: loop in route {route}"
        report = corpus.audit(f"random_group:{seed}")
        assert report.result("duplicate_suppression").passed
        assert report.passed, f"seed {seed}: {report.to_text()}"
        successes += 1
    announce(6, f"{successes}/100 randomized topologies discovered loop-free routes")


# ---------------------------------------------------------------------------
# 7. Inter-group composition
# ---------------------------------------------------------------------------


def test_criterion_7_intergroup_composition():
    composed = 0
    foreign_drops = 0
    for seed in range(900, 920):
        scenario, source, dest = two_group_scenario(seed)
        # Nudge the clusters together so broadcasts leak across the boundary.
        for spec in scenario.nodes:
            if spec.name.startswith("b"):
                spec.trace = [(spec.trace[0][0] - 140.0, spec.trace[0][1])]
        log = run(scenario)
        installs = verdicts(log, source, f"route_installed:dest={dest}")
        assert installs, f"seed {seed}: no composed route"
        assert installs[0].detail.endswith(":composed")
        composed += 1
        group_of = {}
        for g in scenario.groups:
            for member in g.members:
                group_of[member] = g.group_id
        for event in log.events:
            if event.kind == "drop" and "foreign_group" in event.detail:
                foreign_drops += 1
            if event.kind == "verdict" and event.detail.startswith("rreq_processed:source="):
                processor = event.principals.split(":", 1)[0]
                origin = event.detail.split("source=")[1].split(":")[0]
                assert group_of[processor] == group_of[origin], (
                    f"seed {seed}: {processor} processed a foreign request from {origin}"
                )
    assert composed == 20
    assert foreign_drops > 0, "the boundary rule never fired; clusters too far apart"
    announce(7, f"20/20 composed routes; {foreign_drops} foreign requests discarded")


# ---------------------------------------------------------------------------
# 8. Election against the brute-force oracle
# ---------------------------------------------------------------------------


def test_criterion_8_election_oracle():
    rng = random.Random(808)
    cfg = WeightConfig(0.5, 0.3, 0.2)
    for _ in range(1000):
        size = rng.randint(1, 8)
        candidates = []
        for idx in range(size):
            candidates.append(
                NodeAttributes(
                    f"c{rng.randrange(100):02d}_{idx}",
                    mobility_m=rng.choice([0.0, 1.0, rng.uniform(0, 4)]),
                    battery_b=rng.choice([0.5, rng.random()]),
                    trust_t=rng.choice([0.5, rng.random()]),
                )
            )
        best = None
        for attrs in candidates:
            candidate = (weight(attrs, cfg), attrs.node)
            if best is None or candidate < best:
                best = candidate
        assert elect_leader(candidates, cfg) == best[1]
    announce(8, "1000 candidate sets match the brute-force argmin with id tie-break")


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------


def test_criterion_9_byte_identical_reruns():
    # Two fresh runs of each scenario are the point, so none comes from the
    # corpus.
    sources = [corpus.fixture(name) for name in ("benign_line.scn", "stealth_mitm.scn", "two_groups.scn")]
    for scenario in sources:
        first = run(scenario)
        second = run(scenario)
        assert first.to_text() == second.to_text()
        assert first.payload_blob() == second.payload_blob()
    announce(9, "3 scenarios re-run byte-identically (log text and payload sidecar)")


# ---------------------------------------------------------------------------
# 10. Replay and duplicate suppression
# ---------------------------------------------------------------------------


def test_criterion_10_replay_suppression():
    # (a) Replayed request: dies as a duplicate at the first honest hop.
    log = run(
        line_scenario(
            ["S", "A", "B", "D"],
            seed=10,
            script=[Action(2, "discover", ("S", "D"))],
            adversaries=[AdversarySpec("replay", ("link", "S", "A"), {"delay": 6})],
            duration=30,
        )
    )
    assert len(verdicts(log, "D", "accept:")) == 1
    assert [e for e in log.events if e.kind == "drop" and e.detail.startswith("duplicate")]
    assert audit(log).result("duplicate_suppression").passed

    # (b) Replayed reply from an earlier discovery: stale once a newer route
    # is installed.
    log = run(
        line_scenario(
            ["S", "A", "B", "D"],
            seed=11,
            script=[Action(2, "discover", ("S", "D")), Action(12, "discover", ("S", "D"))],
            adversaries=[AdversarySpec("replay", ("link", "A", "S"), {"delay": 16})],
            duration=40,
        )
    )
    installs = verdicts(log, "S", "route_installed:dest=D")
    assert len(installs) == 2, "both live discoveries install, the replay must not"
    assert any(":seq=2" in e.detail for e in installs)
    assert verdicts(log, "S", "rrep_reject:stale_seq")

    # (c) Replayed session opener beyond the freshness window.
    scenario = line_scenario(
        ["S", "A", "B", "D"],
        seed=12,
        script=[Action(2, "session", ("A", "B"))],
        adversaries=[AdversarySpec("replay", ("link", "A", "B"), {"delay": 55})],
        duration=90,
    )
    log = run(scenario)
    confirms = [
        e for e in log.events if e.kind == "verdict" and e.detail.startswith("session_confirmed")
    ]
    assert len(confirms) == 2  # one per endpoint, the replay added none
    aborts = [
        e
        for e in log.events
        if e.kind == "verdict"
        and (
            e.detail.startswith("session_aborted:stale_timestamp")
            or e.detail.startswith("session_aborted:no_matching_exchange")
        )
    ]
    assert aborts, "the replayed handshake message was not rejected"
    announce(10, "replayed RREQ suppressed, stale RREP rejected, session replays rejected")
