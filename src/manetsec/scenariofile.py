"""Plain-text scenario format: parse and serialize.

A scenario file is line-oriented with `#` comments and six sections:

    [params]       key = value pairs (seed, radio_radius, rreq_lifetime,
                   heartbeat_period, liveness_deadline, freshness_window,
                   challenge_bits, challenge_rounds, strict_chain,
                   discovery_timeout, trust_initial, duration, provider)
    [weights]      w0/w1/w2 (must sum to 1), invert_battery_trust,
                   mobility_scale
    [nodes]        name battery x,y[;x,y;...]   one node per line
    [groups]       group_id capacity member...
    [script]       tick action arg...           times non-decreasing
    [adversaries]  node NAME kind [k=v ...]  |  link U V kind [k=v ...]
    [expect]       expectation arg...

Example:

    [nodes]
    S 1.0 0,0
    A 0.9 100,0
    [groups]
    g1 8 S A
    [script]
    2 discover S A
    [expect]
    route S A
"""

from __future__ import annotations

from dataclasses import fields as dc_fields

from .group import WeightConfig
from .sim import Action, AdversarySpec, Expectation, GroupSpec, NodeSpec, Scenario, SimParams

_SECTIONS = ("params", "weights", "nodes", "groups", "script", "adversaries", "expect")

_PARAM_TYPES = {
    "seed": int,
    "radio_radius": float,
    "rreq_lifetime": int,
    "heartbeat_period": int,
    "liveness_deadline": int,
    "freshness_window": int,
    "challenge_bits": int,
    "challenge_rounds": int,
    "strict_chain": bool,
    "discovery_timeout": int,
    "trust_initial": float,
    "duration": int,
    "provider": str,
}


class ScenarioParseError(ValueError):
    """Carries per-line diagnostics."""

    def __init__(self, problems):
        self.problems = problems
        super().__init__("\n".join(problems))


def _to_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_kv(tokens):
    args = {}
    for token in tokens:
        key, _, raw = token.partition("=")
        if not raw:
            raise ValueError(f"expected key=value, got {token!r}")
        for caster in (int, float):
            try:
                args[key] = caster(raw)
                break
            except ValueError:
                continue
        else:
            args[key] = raw
    return args


def parse_scenario(text: str) -> Scenario:
    problems = []
    section = None
    params_kv = {}
    weights_kv = {}
    nodes, groups, script, adversaries, expectations = [], [], [], [], []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                problems.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if section is None:
            problems.append(f"line {lineno}: content outside any known section")
            continue
        try:
            if section in ("params", "weights"):
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if not value:
                    raise ValueError("expected key = value")
                (params_kv if section == "params" else weights_kv)[key] = (value, lineno)
            elif section == "nodes":
                tokens = line.split()
                if len(tokens) < 3:
                    raise ValueError("expected: name battery x,y[;x,y...]")
                name, battery = tokens[0], float(tokens[1])
                trace = []
                for sample in tokens[2].split(";"):
                    x, y = sample.split(",")
                    trace.append((float(x), float(y)))
                nodes.append(NodeSpec(name=name, trace=trace, battery=battery))
            elif section == "groups":
                tokens = line.split()
                if len(tokens) < 3:
                    raise ValueError("expected: group_id capacity member...")
                groups.append(GroupSpec(group_id=tokens[0], capacity=int(tokens[1]), members=tokens[2:]))
            elif section == "script":
                tokens = line.split()
                if len(tokens) < 2:
                    raise ValueError("expected: tick action args...")
                script.append(Action(tick=int(tokens[0]), op=tokens[1], args=tuple(tokens[2:])))
            elif section == "adversaries":
                tokens = line.split()
                if tokens[0] == "node":
                    if len(tokens) < 3:
                        raise ValueError("expected: node NAME kind [k=v...]")
                    placement = ("node", tokens[1])
                    kind = tokens[2]
                    args = _parse_kv(tokens[3:])
                elif tokens[0] == "link":
                    if len(tokens) < 4:
                        raise ValueError("expected: link U V kind [k=v...]")
                    placement = ("link", tokens[1], tokens[2])
                    kind = tokens[3]
                    args = _parse_kv(tokens[4:])
                else:
                    raise ValueError("placement must be 'node' or 'link'")
                adversaries.append(AdversarySpec(kind=kind, placement=placement, args=args))
            elif section == "expect":
                tokens = line.split()
                expectations.append(Expectation(kind=tokens[0], args=tuple(tokens[1:])))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")

    params = SimParams()
    seed = 0
    provider = "test_double"
    for key, (value, lineno) in params_kv.items():
        if key not in _PARAM_TYPES:
            problems.append(f"line {lineno}: unknown parameter {key!r}")
            continue
        caster = _PARAM_TYPES[key]
        try:
            cast = _to_bool(value) if caster is bool else caster(value)
        except ValueError:
            problems.append(f"line {lineno}: bad value for {key}: {value!r}")
            continue
        if key == "seed":
            seed = cast
        elif key == "provider":
            provider = cast
        else:
            setattr(params, key, cast)

    weight_values = {"w0": 0.4, "w1": 0.4, "w2": 0.2}
    invert = True
    mobility_scale = None
    for key, (value, lineno) in weights_kv.items():
        try:
            if key in ("w0", "w1", "w2"):
                weight_values[key] = float(value)
            elif key == "invert_battery_trust":
                invert = _to_bool(value)
            elif key == "mobility_scale":
                mobility_scale = float(value)
            else:
                problems.append(f"line {lineno}: unknown weight setting {key!r}")
        except ValueError:
            problems.append(f"line {lineno}: bad value for {key}: {value!r}")
    try:
        weights = WeightConfig(
            weight_values["w0"],
            weight_values["w1"],
            weight_values["w2"],
            invert_battery_trust=invert,
            mobility_scale=mobility_scale,
        )
    except ValueError as exc:
        problems.append(str(exc))
        weights = WeightConfig(0.4, 0.4, 0.2)

    if problems:
        raise ScenarioParseError(problems)
    return Scenario(
        seed=seed,
        nodes=nodes,
        groups=groups,
        params=params,
        weights=weights,
        script=script,
        adversaries=adversaries,
        expectations=expectations,
        provider_name=provider,
    )


def scenario_to_text(scenario: Scenario) -> str:
    """Serialize; inverse of parse_scenario for files it produced."""
    out = ["[params]", f"seed = {scenario.seed}", f"provider = {scenario.provider_name}"]
    defaults = SimParams()
    for f in dc_fields(SimParams):
        value = getattr(scenario.params, f.name)
        if value != getattr(defaults, f.name) and value is not None:
            out.append(f"{f.name} = {str(value).lower() if isinstance(value, bool) else value}")
    out.append("")
    out.append("[weights]")
    out.append(f"w0 = {scenario.weights.w0}")
    out.append(f"w1 = {scenario.weights.w1}")
    out.append(f"w2 = {scenario.weights.w2}")
    if not scenario.weights.invert_battery_trust:
        out.append("invert_battery_trust = false")
    if scenario.weights.mobility_scale:
        out.append(f"mobility_scale = {scenario.weights.mobility_scale}")
    out.append("")
    out.append("[nodes]")
    for spec in scenario.nodes:
        trace = ";".join(f"{x:g},{y:g}" for x, y in spec.trace)
        out.append(f"{spec.name} {spec.battery:g} {trace}")
    out.append("")
    out.append("[groups]")
    for spec in scenario.groups:
        out.append(f"{spec.group_id} {spec.capacity} {' '.join(spec.members)}")
    if scenario.script:
        out.append("")
        out.append("[script]")
        for action in scenario.script:
            out.append(f"{action.tick} {action.op} {' '.join(str(a) for a in action.args)}")
    if scenario.adversaries:
        out.append("")
        out.append("[adversaries]")
        for adv in scenario.adversaries:
            where = " ".join(adv.placement)
            kv = " ".join(f"{k}={v}" for k, v in adv.args.items())
            out.append(f"{where} {adv.kind}{' ' + kv if kv else ''}")
    if scenario.expectations:
        out.append("")
        out.append("[expect]")
        for exp in scenario.expectations:
            out.append(f"{exp.kind} {' '.join(str(a) for a in exp.args)}")
    return "\n".join(out) + "\n"
