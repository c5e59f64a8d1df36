import importlib
import os

import pytest

import manetsec.audit as audit_module
from manetsec.cli import main

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scn(name):
    return os.path.join(SCENARIOS, name)


def test_validate_ok(capsys):
    assert main(["validate", scn("benign_line.scn")]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/zzz.scn"]) == 3


def test_validate_bad_weights(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "[weights]\nw0 = 0.5\nw1 = 0.3\nw2 = 0.3\n[nodes]\nA 1.0 0,0\n[groups]\ng1 4 A\n"
    )
    assert main(["validate", str(bad)]) == 2
    assert "w0 + w1 + w2 = 1" in capsys.readouterr().err


def test_validate_unknown_actor(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[nodes]\nA 1.0 0,0\n[groups]\ng1 4 A\n[script]\n2 discover A Z\n")
    assert main(["validate", str(bad)]) == 2
    assert "unknown node 'Z'" in capsys.readouterr().err


HALF_FORMED_BASE = "[nodes]\nA 1.0 0,0\nB 0.9 100,0\nX 0.5 50,0\n[groups]\ng1 4 A B\n"


@pytest.mark.parametrize(
    "tail, problem",
    [
        ("[expect]\nroute A\n", "expectation route expects 2 arguments"),
        ("[expect]\nverdict A accept: extra\n", "expectation verdict expects 2 arguments"),
        ("[expect]\nsession A B\n", "expectation session expects 3 arguments"),
        ("[expect]\nalerted\n", "expectation alerted expects 1 argument"),
        ("[adversaries]\nnode X modify_field op=add value=1\n", "adversary 0: modify_field needs field="),
        ("[adversaries]\nlink A B modify_field op=swap\n", "adversary 0: modify_field needs field="),
        ("[adversaries]\nnode X modify_field field=seq\n", "adversary 0: modify_field needs op="),
        ("[adversaries]\nlink A B modify_field field=seq\n", "adversary 0: modify_field needs op="),
        ("[adversaries]\nnode X modify_field field=seq op=add\n", "adversary 0: modify_field op add needs value="),
        (
            "[adversaries]\nlink A B modify_field field=seq op=bogus\n",
            "adversary 0: unknown modify_field op 'bogus'",
        ),
        (
            "[adversaries]\nlink A B modify_field field=chian op=flip\n",
            "adversary 0: modify_field field 'chian' names no message field",
        ),
        (
            "[adversaries]\nlink A B modify_field field=chain op=add value=1\n",
            "adversary 0: modify_field op add does not apply to chain, whose type is bytes",
        ),
        (
            "[adversaries]\nlink A B modify_field field=chain op=set value=abc\n",
            "adversary 0: modify_field op set does not apply to chain, whose type is bytes",
        ),
        (
            "[adversaries]\nlink A B modify_field field=route op=flip\n",
            "adversary 0: modify_field op flip does not apply to route, whose type is list[name]",
        ),
        (
            "[adversaries]\nlink A B modify_field field=route op=flip_item\n",
            "adversary 0: modify_field op flip_item does not apply to route, whose type is list[name]",
        ),
        (
            "[adversaries]\nnode X modify_field field=seq op=swap\n",
            "adversary 0: modify_field op swap does not apply to seq, whose type is int",
        ),
        (
            "[adversaries]\nlink A B modify_field field=seq op=set value=abc\n",
            "adversary 0: modify_field value 'abc' for int field seq is not an integer",
        ),
        (
            "[adversaries]\nlink A B modify_field field=source op=set value=a:b\n",
            "adversary 0: modify_field value 'a:b' for name field source is not a name",
        ),
        (
            "[adversaries]\nlink A B modify_field field=lifetime op=add value=1.5\n",
            "adversary 0: modify_field value 1.5 for int field lifetime is not an integer",
        ),
        (
            "[adversaries]\nnode X drop_probabilistic p=abc\n",
            "adversary 0: drop_probabilistic p must be a number, not 'abc'",
        ),
        ("[adversaries]\nlink A B replay delay=abc\n", "adversary 0: replay delay must be an integer, not 'abc'"),
        (
            "[adversaries]\nnode X impersonate strategy=random modulus=1\n",
            "adversary 0: impersonate modulus must be an integer of at least 4, not 1",
        ),
        ("[params]\nradio_radius = 0\n", "radio_radius must be finite and positive, not 0.0"),
        ("[params]\nradio_radius = -1\n", "radio_radius must be finite and positive, not -1.0"),
        ("[params]\nradio_radius = nan\n", "radio_radius must be finite and positive, not nan"),
        ("[params]\nradio_radius = inf\n", "radio_radius must be finite and positive, not inf"),
        ("[params]\nheartbeat_period = 0\n", "heartbeat_period must be an integer of at least 1, not 0"),
        ("[params]\nrreq_lifetime = -1\n", "rreq_lifetime must be an integer of at least 1, not -1"),
        ("[params]\nrreq_lifetime = 0\n", "rreq_lifetime must be an integer of at least 1, not 0"),
        ("[params]\ntrust_initial = nan\n", "trust_initial must be within [0, 1], not nan"),
        ("[params]\ntrust_initial = 1.5\n", "trust_initial must be within [0, 1], not 1.5"),
        ("[params]\ntrust_initial = -0.1\n", "trust_initial must be within [0, 1], not -0.1"),
        ("[params]\nduration = -1\n", "duration must be a non-negative integer, not -1"),
        ("[params]\nchallenge_bits = -1\n", "challenge_bits must be an integer of at least 1, not -1"),
        ("[params]\nchallenge_bits = 0\n", "challenge_bits must be an integer of at least 1, not 0"),
        ("[params]\nchallenge_rounds = 0\n", "challenge_rounds must be an integer of at least 1, not 0"),
        ("[params]\nliveness_deadline = 0\n", "liveness_deadline must be an integer of at least 1, not 0"),
        ("[params]\ndiscovery_timeout = 0\n", "discovery_timeout must be an integer of at least 1, not 0"),
        ("[params]\nfreshness_window = -1\n", "freshness_window must be a non-negative integer, not -1"),
        (
            "[adversaries]\nnode X impersonate strategy=bogus\n",
            "adversary 0: impersonate strategy must be replay or random, not 'bogus'",
        ),
        # Extra arguments would be ignored, and an action after the duration
        # would never run.
        ("3 discover A B extra words\n", "action discover expects 2 arguments"),
        ("3 leave A B C\n", "action leave expects 1 arguments"),
        ("3 send_data A B hello world\n", "action send_data expects 2 or 3 arguments"),
        ("3 send_data A\n", "action send_data expects 2 or 3 arguments"),
        ("[params]\nduration = 1\n", "script time 2 is after the duration 1, so it would never run"),
        # An expectation about a node the scenario lacks would hold vacuously.
        ("[expect]\nno_route A Zed\n", "expectation no_route: unknown node 'Zed'"),
        ("[expect]\nno_verdict Zed accept\n", "expectation no_verdict: unknown node 'Zed'"),
        ("[expect]\nnot_admitted Qq\n", "expectation not_admitted: unknown node 'Qq'"),
        ("[expect]\nsession Zed B confirmed\n", "expectation session: unknown node 'Zed'"),
        ("[expect]\nalerted g1\n", "expectation alerted: unknown node 'g1'"),
        # A file must be read as it was written: no key set twice, no field
        # ignored, no value the run cannot use.
        ("[params]\nseed = 3\nseed = 4\n", "line 11: seed is already set on line 10"),
        ("[nodes]\nY 0.5 0,0 junk\n", "line 10: expected: name battery x,y[;x,y...]"),
        ("[adversaries]\nlink A B replay delay=1 delay=2\n", "line 10: adversary argument delay given twice"),
        ("[weights]\nw0 = nan\nw1 = 0.8\n", "weight factors must be finite"),
        ("[weights]\nw0 = inf\n", "weight factors must be finite"),
        ("[weights]\nmobility_scale = 2.5\n", "line 10: unknown key 'mobility_scale' in [weights]"),
        ("[weights]\ninvert_battery_trust = false\n", "line 10: unknown key 'invert_battery_trust' in [weights]"),
        ("[params]\nprovider = bogus\n", "unknown crypto provider 'bogus'"),
        # One adversary per node and per link: a second would never act.
        ("[adversaries]\nnode X drop_all\nnode X replay delay=2\n", "adversary 1: node X already has an adversary"),
        ("[adversaries]\nlink A X drop_all\nlink X A drop_all\n", "adversary 1: link X-A already has an adversary"),
        (
            "[params]\nseed = 99999999999999999999\n",
            "seed must be an integer within signed 64 bits, not 99999999999999999999",
        ),
        # A misspelt or stray adversary argument would run as if absent.
        ("[adversaries]\nlink A B replay dealy=3\n", "adversary 0: replay reads no argument 'dealy'"),
        ("[adversaries]\nnode X drop_all p=0.5\n", "adversary 0: drop_all reads no argument 'p'"),
    ],
)
def test_half_formed_scenario_rejected(tmp_path, capsys, tail, problem):
    bad = tmp_path / "bad.scn"
    bad.write_text(HALF_FORMED_BASE + "[script]\n2 discover A B\n" + tail)
    assert main(["validate", str(bad)]) == 2
    assert problem in capsys.readouterr().err
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2


def test_run_benign_exit_zero(tmp_path, capsys):
    assert main(["run", scn("benign_line.scn"), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "backward_secrecy: PASS" in out
    assert "expect route n0 n4: MET" in out
    assert (tmp_path / "benign_line.log").exists()
    assert (tmp_path / "benign_line.payloads").exists()
    assert (tmp_path / "benign_line.audit.txt").exists()


def test_run_detected_attack_is_expected_outcome(tmp_path):
    # Detection is the scripted expectation, so the exit code is success.
    assert main(["run", scn("stealth_mitm.scn"), "--out", str(tmp_path)]) == 0


def test_run_indexes_the_log_once(tmp_path, monkeypatch, capsys):
    # The audit's index also answers the MET/MISSED lines.
    built = []

    class CountedIndex(audit_module._LogIndex):
        def __init__(self, log):
            built.append(log)
            super().__init__(log)

    monkeypatch.setattr(audit_module, "_LogIndex", CountedIndex)
    assert main(["run", scn("stealth_mitm.scn"), "--out", str(tmp_path)]) == 0
    assert len(built) == 1
    out = capsys.readouterr().out
    assert "expect verdict D reject:chain_mismatch: MET" in out
    assert "expect no_verdict D accept:: MET" in out
    assert "expect no_route S D: MET" in out


def test_run_checks_the_scenario_after_its_overrides(tmp_path, capsys):
    # The seed override is checked with the rest of the scenario, before any
    # output is made.
    out = tmp_path / "out"
    assert main(["run", scn("benign_line.scn"), "--seed", str(2**64), "--out", str(out)]) == 2
    assert "seed must be an integer within signed 64 bits, not 18446744073709551616" in capsys.readouterr().err
    assert not out.exists()


def test_run_checks_the_scenario_once(tmp_path, monkeypatch):
    sim_module = importlib.import_module("manetsec.sim")
    original, checked = sim_module.validate_scenario, []

    def counted(scenario):
        checked.append(scenario)
        return original(scenario)

    for module in (sim_module, importlib.import_module("manetsec.cli")):
        monkeypatch.setattr(module, "validate_scenario", counted)
    assert main(["run", scn("benign_line.scn"), "--provider", "real", "--out", str(tmp_path)]) == 0
    assert len(checked) == 1
    assert checked[0].provider_name == "real_crypto"


def test_run_expectation_mismatch_exits_one(tmp_path):
    # A scenario claiming the attack goes undetected must fail its run.
    text = open(scn("stealth_mitm.scn")).read()
    lying = text.replace(
        "verdict D reject:chain_mismatch", "verdict D accept:"
    ).replace("no_verdict D accept:", "no_verdict D reject:")
    path = tmp_path / "lying.scn"
    path.write_text(lying)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1


def test_run_seed_override_changes_log(tmp_path):
    main(["run", scn("benign_line.scn"), "--out", str(tmp_path / "a")])
    main(["run", scn("benign_line.scn"), "--seed", "999", "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "benign_line.log").read_text()
    b = (tmp_path / "b" / "benign_line.log").read_text()
    assert a != b


def test_run_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MANETSEC_OUT", str(tmp_path / "envout"))
    assert main(["run", scn("stealth_mitm_clean.scn")]) == 0
    assert (tmp_path / "envout" / "stealth_mitm_clean.log").exists()


def test_report_counts_benign_run(tmp_path, capsys):
    main(["run", scn("stealth_mitm_clean.scn"), "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "stealth_mitm_clean.log")]) == 0
    out = capsys.readouterr().out
    assert "elections=1" in out
    assert "admits=3" in out
    assert "discoveries=1" in out
    assert "accepts=1" in out
    assert "routes_installed=1" in out


def test_report_shows_epoch_bump_at_leave(tmp_path, capsys):
    main(["run", scn("benign_line.scn"), "--out", str(tmp_path)])
    capsys.readouterr()
    main(["report", str(tmp_path / "benign_line.log")])
    out = capsys.readouterr().out
    remove_lines = [l for l in out.splitlines() if " remove " in l]
    assert remove_lines and "announced_leave" in remove_lines[0]
    leave_tick = remove_lines[0].split()[0]
    rekeys_at_leave = [
        l for l in out.splitlines() if l.startswith(leave_tick) and " rekey " in l and "leave" in l
    ]
    assert rekeys_at_leave


def test_report_is_pure_function_of_log(tmp_path, capsys):
    main(["run", scn("benign_line.scn"), "--out", str(tmp_path)])
    capsys.readouterr()
    main(["report", str(tmp_path / "benign_line.log")])
    first = capsys.readouterr().out
    main(["report", str(tmp_path / "benign_line.log")])
    second = capsys.readouterr().out
    assert first == second


def test_report_corrupt_log_exits_two(tmp_path):
    path = tmp_path / "corrupt.log"
    path.write_text("definitely not a log\n")
    assert main(["report", str(path)]) == 2


@pytest.mark.parametrize("name", ["epoch", "hops"])
def test_report_exits_two_on_a_count_pair_that_is_not_a_number(name, tmp_path, capsys):
    main(["run", scn("benign_line.scn"), "--out", str(tmp_path)])
    path = tmp_path / "benign_line.log"
    text = path.read_text()
    start = text.index(f":{name}=") + len(name) + 2
    path.write_text(text[:start] + "x" + text[start:].lstrip("0123456789"))
    capsys.readouterr()
    assert main(["report", str(path)]) == 2
    assert f"{name}=x" in capsys.readouterr().err


def test_report_empty_log_ok(tmp_path, capsys):
    path = tmp_path / "empty.log"
    path.write_text("#manetsec-log v1\n#complete\n")
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "elections=0" in out


def test_strict_chain_flag(tmp_path, capsys):
    # Strict mode moves stealth-relay detection to the first honest hop, so
    # the destination-verdict expectation is not met and the run exits 1.
    code = main(["run", scn("stealth_mitm.scn"), "--strict-chain", "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "expect verdict D reject:chain_mismatch: MISSED" in out
    # The missed verdict matched no event, so the audit names none.
    assert "detection_outcomes: FAIL\n" in out


# Full report text of two fixtures, as `report` printed it before it became
# table-driven, and then the `traffic:` line; between them they hit every
# timeline row but `alert`.
REPORTS = {
    "stealth_mitm": """\
t=0    elect    A (group=g1:cause=founding)
t=0    admit    A:B (founding)
t=0    admit    A:D (founding)
t=0    admit    A:S (founding)
t=0    rekey    A (founding:lineage=g1-1:epoch=1)
t=0    rekey    A (ring:version=1)
t=2    discover S:S (discovery_started:dest=D:seq=1)
t=6    reject   D:D (reject:chain_mismatch:source=S:seq=1)
summary: elections=1 admits=3 removals=0 rekeys=2 discoveries=1 accepts=0 rejects=1 routes_installed=0 alerts=0
drops: duplicate=2
traffic: HEARTBEAT=13/13 LEADER_ANNOUNCE=2/0 REKEY=3/5 RREQ=5/7
""",
    "benign_line": """\
t=0    elect    n0 (group=g1:cause=founding)
t=0    admit    n0:n1 (founding)
t=0    admit    n0:n2 (founding)
t=0    admit    n0:n3 (founding)
t=0    admit    n0:n4 (founding)
t=0    rekey    n0 (founding:lineage=g1-1:epoch=1)
t=0    rekey    n0 (ring:version=1)
t=2    discover n0:n0 (discovery_started:dest=n4:seq=1)
t=6    accept   n4:n4 (accept:source=n0:seq=1)
t=10   route    n0:n0 (route_installed:dest=n4:seq=1)
t=23   remove   n0:n3 (announced_leave)
t=23   rekey    n0 (leave:lineage=g1-1:epoch=2)
summary: elections=1 admits=4 removals=1 rekeys=3 discoveries=1 accepts=1 rejects=0 routes_installed=1 alerts=0
drops: duplicate=3
traffic: DATA=10/16 HEARTBEAT=33/45 LEADER_ANNOUNCE=2/0 LEAVE=5/8 REKEY=7/7 RREP=4/4 RREQ=4/7
""",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_text_is_pinned(name, tmp_path, capsys):
    main(["run", scn(f"{name}.scn"), "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["report", str(tmp_path / f"{name}.log")]) == 0
    assert capsys.readouterr().out == REPORTS[name]


def test_report_counts_alerts(tmp_path, capsys):
    path = tmp_path / "alerts.log"
    path.write_text("#manetsec-log v1\n3\t0\talert\tA\t-\tnode_crashed\n#complete\n")
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "t=3    alert    A (node_crashed)"
    assert "alerts=1" in out
    assert out.splitlines()[-2:] == ["drops: none", "traffic: none"]


def test_report_summarises_drops_by_reason(tmp_path, capsys):
    path = tmp_path / "drops.log"
    details = ["duplicate:source=S:seq=1", "out_of_range:tx=4", "data_undecryptable:no_key", "duplicate:source=A:seq=2"]
    rows = "".join(f"1\t{seq}\tdrop\tB\t-\t{detail}\n" for seq, detail in enumerate(details))
    path.write_text(f"#manetsec-log v1\n{rows}#complete\n")
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("summary: ")
    assert out[1:] == ["drops: data_undecryptable:no_key=1 duplicate=2 out_of_range=1", "traffic: none"]
