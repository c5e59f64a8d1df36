"""Plain-text scenario format: parse and serialize.

A scenario file is line-oriented with `#` comments and seven sections.  Two
hold settings, `key = value` lines whose keys, types and defaults are the
fields of the dataclass the section fills; each key may be set once:

    [params]       seed, provider and the fields of sim.SimParams
    [weights]      the fields of group.WeightConfig

Five hold lists, one spec per line, each line in exactly one form:

    [nodes]        name battery x,y[;x,y;...]
    [groups]       group_id capacity member...
    [script]       tick action arg...           times non-decreasing
    [adversaries]  node NAME kind [k=v ...]  |  link U V kind [k=v ...]
    [expect]       expectation arg...

An adversary argument may be given once.  Each section is declared once
below, and the reader and the writer both follow that declaration: the
writer gives each setting that differs from its default and every float
by `repr`, so reading back what it wrote gives an equal scenario.

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
from typing import get_args, get_type_hints

from .group import WeightConfig
from .sim import PLACEMENTS, Action, AdversarySpec, Expectation, GroupSpec, NodeSpec, Scenario, SimParams


class ScenarioParseError(ValueError):
    """Carries per-line diagnostics."""

    def __init__(self, problems):
        self.problems = problems
        super().__init__("\n".join(problems))


def _settings(holder, cls, keys=None) -> dict:
    """key -> (holder, field, type, default) for the fields of dataclass
    `cls`, which the scenario holds as `holder` (None: the scenario itself).
    `keys` maps each key to the field it sets; by default every field is a
    key of its own name."""
    hints = get_type_hints(cls)
    defaults = {f.name: f.default for f in dc_fields(cls)}
    out = {}
    for key, name in (keys or {name: name for name in defaults}).items():
        # An Optional[T] field is read as a T.
        kind = next((arg for arg in get_args(hints[name]) if arg is not type(None)), hints[name])
        out[key] = (holder, name, kind, defaults[name])
    return out


# Each settings section: its keys.  `[params]` also sets the scenario's own
# seed and crypto provider.
_SETTINGS = {
    "params": {
        **_settings(None, Scenario, {"seed": "seed", "provider": "provider_name"}),
        **_settings("params", SimParams),
    },
    "weights": _settings("weights", WeightConfig),
}


def _read_value(kind, raw: str):
    if kind is bool:
        if raw.lower() in ("true", "yes", "1", "on"):
            return True
        if raw.lower() in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    return kind(raw)


def _text(value) -> str:
    """A value as the file writes it: a float by `repr`, which reads back
    exactly, and a boolean in lower case."""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


def _read_node(tokens) -> NodeSpec:
    if len(tokens) != 3:
        raise ValueError("expected: name battery x,y[;x,y...]")
    trace = []
    for sample in tokens[2].split(";"):
        x, y = sample.split(",")
        trace.append((float(x), float(y)))
    return NodeSpec(name=tokens[0], trace=trace, battery=float(tokens[1]))


def _read_group(tokens) -> GroupSpec:
    if len(tokens) < 3:
        raise ValueError("expected: group_id capacity member...")
    return GroupSpec(group_id=tokens[0], capacity=int(tokens[1]), members=tokens[2:])


def _read_action(tokens) -> Action:
    if len(tokens) < 2:
        raise ValueError("expected: tick action args...")
    return Action(tick=int(tokens[0]), op=tokens[1], args=tuple(tokens[2:]))


def _read_adversary(tokens) -> AdversarySpec:
    length = PLACEMENTS.get(tokens[0])
    if length is None:
        raise ValueError("placement must be 'node' or 'link'")
    if len(tokens) < length + 1:
        raise ValueError("expected: node NAME kind [k=v...] | link U V kind [k=v...]")
    args = {}
    for token in tokens[length + 1 :]:
        key, _, raw = token.partition("=")
        if not raw:
            raise ValueError(f"expected key=value, got {token!r}")
        if key in args:
            raise ValueError(f"adversary argument {key} given twice")
        for caster in (int, float, str):
            try:
                args[key] = caster(raw)
                break
            except ValueError:
                continue
    return AdversarySpec(kind=tokens[length], placement=tuple(tokens[:length]), args=args)


def _write_node(spec: NodeSpec) -> str:
    return f"{spec.name} {spec.battery!r} " + ";".join(f"{x!r},{y!r}" for x, y in spec.trace)


def _write_adversary(adv: AdversarySpec) -> str:
    return " ".join([*adv.placement, adv.kind, *(f"{key}={_text(value)}" for key, value in adv.args.items())])


# Each list section: the Scenario field it fills, the reader from one
# line's tokens to its spec, and the writer from a spec back to its line.
_LISTS = {
    "nodes": ("nodes", _read_node, _write_node),
    "groups": ("groups", _read_group, lambda spec: " ".join([spec.group_id, str(spec.capacity), *spec.members])),
    "script": (
        "script",
        _read_action,
        lambda action: " ".join([str(action.tick), action.op, *map(str, action.args)]),
    ),
    "adversaries": ("adversaries", _read_adversary, _write_adversary),
    "expect": (
        "expectations",
        lambda tokens: Expectation(kind=tokens[0], args=tuple(tokens[1:])),
        lambda expect: " ".join([expect.kind, *map(str, expect.args)]),
    ),
}


def parse_scenario(text: str) -> Scenario:
    problems = []
    section = None
    values = {None: {"seed": 0}, "params": {}, "weights": {}}  # holder -> field -> value
    first = {}  # (section, key) -> the line that set it
    lists = {name: [] for name in _LISTS}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SETTINGS and section not in _LISTS:
                problems.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        try:
            if section in _SETTINGS:
                key, _, value = (part.strip() for part in line.partition("="))
                if not value:
                    raise ValueError("expected key = value")
                if key not in _SETTINGS[section]:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                if (section, key) in first:
                    raise ValueError(f"{key} is already set on line {first[section, key]}")
                first[section, key] = lineno
                holder, name, kind, _ = _SETTINGS[section][key]
                try:
                    values[holder][name] = _read_value(kind, value)
                except ValueError:
                    raise ValueError(f"bad value for {key}: {value!r}") from None
            elif section in _LISTS:
                lists[section].append(_LISTS[section][1](line.split()))
            else:
                problems.append(f"line {lineno}: content outside any known section")
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")

    try:
        weights = WeightConfig(**values["weights"])
    except ValueError as exc:
        problems.append(str(exc))
    if problems:
        raise ScenarioParseError(problems)
    return Scenario(
        **values[None],
        params=SimParams(**values["params"]),
        weights=weights,
        **{field: lists[section] for section, (field, _, _) in _LISTS.items()},
    )


def scenario_to_text(scenario: Scenario) -> str:
    """Serialize; parse_scenario reads the text back to an equal scenario."""
    out = []
    for section, keys in _SETTINGS.items():
        out.append(f"[{section}]")
        for key, (holder, name, _, default) in keys.items():
            value = getattr(scenario if holder is None else getattr(scenario, holder), name)
            if value != default:
                out.append(f"{key} = {_text(value)}")
        out.append("")
    for section, (field, _, write) in _LISTS.items():
        if getattr(scenario, field):
            out += [f"[{section}]", *map(write, getattr(scenario, field)), ""]
    return "\n".join(out)
