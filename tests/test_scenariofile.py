import pathlib
import re
from dataclasses import fields

import pytest

from manetsec.group import WeightConfig
from manetsec.scenariofile import _SETTINGS, ScenarioParseError, parse_scenario, scenario_to_text
from manetsec.sim import SimParams, validate_scenario
from topologies import (
    churn_scenario,
    line_scenario,
    random_group_scenario,
    stealth_family_scenario,
    stealth_link_scenario,
    stealth_node_scenario,
    two_group_scenario,
    workloads,
)

GOOD = """
[params]
seed = 5
rreq_lifetime = 6
strict_chain = true

[weights]
w0 = 0.5
w1 = 0.3
w2 = 0.2

[nodes]
S 1.0 0,0
A 0.9 100,0;110,5

[groups]
g1 4 S A

[script]
2 discover S A
4 send_data S *

[adversaries]
link S A mitm_relay
node A replay delay=3

[expect]
route S A
"""


def test_parse_good_file():
    scenario = parse_scenario(GOOD)
    assert scenario.seed == 5
    assert scenario.params.rreq_lifetime == 6
    assert scenario.params.strict_chain is True
    assert scenario.weights.w0 == 0.5
    assert [n.name for n in scenario.nodes] == ["S", "A"]
    assert scenario.nodes[1].trace == [(100.0, 0.0), (110.0, 5.0)]
    assert scenario.groups[0].capacity == 4
    assert scenario.script[0].op == "discover"
    assert scenario.adversaries[0].placement == ("link", "S", "A")
    assert scenario.adversaries[1].args == {"delay": 3}
    assert scenario.expectations[0].kind == "route"


def test_false_reads_back_false():
    # `false` is the default, so a writer never gives it; a reader still
    # takes it, as it takes `true`.
    assert parse_scenario(GOOD.replace("strict_chain = true", "strict_chain = false")).params.strict_chain is False


def test_parse_reports_line_numbers():
    bad = "[nodes]\nS 1.0 0,0\nbroken line here\n[params]\nseed = x\nmystery = 3\n"
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(bad)
    text = str(exc.value)
    assert "line 3" in text
    assert "line 5" in text
    assert "line 6" in text


def test_parse_flags_bad_weights_with_constraint():
    bad = GOOD.replace("w2 = 0.2", "w2 = 0.3")
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(bad)
    assert "w0 + w1 + w2 = 1" in str(exc.value)


def test_parse_unknown_section():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("[wat]\nx = 1\n")
    assert "unknown section" in str(exc.value)


def test_content_outside_section():
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario("seed = 5\n")
    assert "outside" in str(exc.value)


def test_serialize_parse_roundtrip():
    scenario = stealth_link_scenario(seed=77)
    text = scenario_to_text(scenario)
    back = parse_scenario(text)
    assert back.seed == scenario.seed
    assert [n.name for n in back.nodes] == [n.name for n in scenario.nodes]
    assert back.params.rreq_lifetime == scenario.params.rreq_lifetime
    assert back.params.duration == scenario.params.duration
    assert back.adversaries[0].kind == "mitm_relay"
    assert validate_scenario(back) == []


# Every builder, and the first scenario of each benchmark workload's pool.
ROUND_TRIP = {
    "line": lambda: line_scenario(["A", "B", "C"], duration=12),
    "stealth_link": lambda: stealth_link_scenario(seed=77),
    "stealth_node": lambda: stealth_node_scenario(seed=3),
    "stealth_family": lambda: stealth_family_scenario(5, 2, seed=9),
    "random_group": lambda: random_group_scenario(4)[0],
    "two_group": lambda: two_group_scenario(4)[0],
    "churn": lambda: churn_scenario(4),
    **{f"workload:{name}": lambda w=w: w.make(w.pool[0]) for name, w in workloads.WORKLOADS.items()},
}


@pytest.mark.parametrize("build", ROUND_TRIP.values(), ids=ROUND_TRIP.keys())
def test_written_scenario_reads_back_equal(build):
    scenario = build()
    assert parse_scenario(scenario_to_text(scenario)) == scenario


def test_every_setting_reads_back():
    params = SimParams(
        radio_radius=97.25,
        rreq_lifetime=5,
        heartbeat_period=7,
        liveness_deadline=29,
        freshness_window=11,
        challenge_bits=40,
        challenge_rounds=3,
        strict_chain=True,
        discovery_timeout=17,
        trust_initial=0.1 + 0.2,
        duration=90,
    )
    weights = WeightConfig(0.1, 0.2, 0.7)
    for value, default in ((params, SimParams()), (weights, WeightConfig())):
        assert all(getattr(value, f.name) != getattr(default, f.name) for f in fields(value))
    scenario = line_scenario(["A", "B"], seed=-(2**63), weights=weights, provider_name="real")
    scenario.params = params
    text = scenario_to_text(scenario)
    assert "trust_initial = 0.30000000000000004" in text
    assert parse_scenario(text) == scenario


@pytest.mark.parametrize("section", ["params", "weights"])
def test_readme_lists_every_settings_key(section):
    # The README's scenario-file block names each key of the two settings
    # sections, in order; a field added or removed must change it too.
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    listed = re.search(rf"^\[{section}\] +keys: (.*?)(?=^\[)", readme, re.M | re.S).group(1)
    assert re.findall(r"\w+", re.sub(r"\(.*?\)", "", listed)) == list(_SETTINGS[section])
