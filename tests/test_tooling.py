"""The benchmark's traced runs patch named functions and methods of the
program (``perfbench/tracing.py``).  Renaming one of them would break only
``--trace 1``; this test makes it fail the suite as well.  It reads the
tracer's target table and patches nothing."""

import ast
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

import pytest

import corpus
import manetsec
from manetsec import messages, sim
from manetsec.node import BEHAVIORS

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.bindings()
    assert len(points) > len(tracing._TARGETS)
    for owner, attr, target in points:
        assert callable(target), f"{owner.__name__}.{attr}"


def test_only_the_schema_decodes():
    # Every other module reads messages and sealed plaintexts by name,
    # through `messages.decode_message` and `messages.open_sealed`.
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    decoders = sorted(path.name for path in src.glob("*.py") if "encoding.decode(" in path.read_text())
    assert decoders == ["messages.py"]


def _audit_call_sites(name, *args):
    """The function or method of `audit.py` around each call to `name`
    whose leading arguments are the constants `args`."""
    tree = ast.parse((pathlib.Path(__file__).parent.parent / "src" / "manetsec" / "audit.py").read_text())
    sites = []
    for top in tree.body:
        owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                    and [getattr(arg, "value", None) for arg in call.args[: len(args)]] == list(args)
                ):
                    sites.append(owner + getattr(node, "name", "<module>"))
    return sites


def test_the_audit_decodes_in_one_place():
    # The audit reads a payload's kind tag before decoding it; every decode
    # goes through `_LogIndex.message`, so no reader decodes behind that.
    assert _audit_call_sites("decode_message") == ["_LogIndex.message"]


def test_the_audit_reads_transmissions_in_one_pass():
    # A transmission's `tx` and `hops` parts are read once, by one reader,
    # in the index's one pass over the log; no property reads them again.
    assert set(_audit_call_sites("_transmission")) == {"_LogIndex.__init__"}
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    assert [path.name for path in sorted(src.glob("*.py")) if "_transmission(" in path.read_text()] == ["audit.py"]


def test_no_audit_reader_walks_the_sends():
    # The index keeps the first send of each sealed payload; no property
    # walks every send of the log again to find them.
    assert _audit_call_sites("of_kind")
    assert _audit_call_sites("of_kind", "send") == []


def test_sealed_kinds_are_the_kinds_with_a_sealed_layout():
    # The audit skips a payload by its tag when its kind is not in
    # SEALED_KINDS; every kind that can be sealed must be in it.
    assert messages.SEALED_KINDS == {kind for kind, _ in messages._SEALED}
    for kind in messages.MessageKind:
        assert (messages.seals(kind) == ()) == (kind not in messages.SEALED_KINDS), kind.name


def test_one_data_builder():
    # Every DATA hop, the origin's, a relay's and a group broadcast, is
    # sealed for its next hop by `ProtocolNode._emit_data` alone.
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    sites = [
        path.name for path in sorted(src.glob("*.py"))
        for _ in re.finditer(r"\bmsg\(\s*MessageKind\.DATA\b", path.read_text())
    ]
    assert sites == ["node.py"]


def test_only_keymgmt_builds_the_joiners_messages():
    # Every node that joins, a placed adversary too, runs the joiner's half
    # of the handshake in `keymgmt.MemberKeyService`: no other module builds
    # a JOIN_REQ, ZK_CHALLENGE, CERT or NONCE.
    joiners = {"JOIN_REQ", "ZK_CHALLENGE", "CERT", "NONCE"}
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    sites = {
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and node.args
        and isinstance(kind := node.args[0], ast.Attribute) and kind.attr in joiners
        and isinstance(kind.value, ast.Name) and kind.value.id == "MessageKind"
    }
    assert sites == {"keymgmt.py"}


def test_only_keymgmt_knows_the_ring_secret():
    # Each leader draws its own ring secret in its LeaderKeyService; no
    # other module sizes, draws or writes one.
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    sites = {
        path.name for path in sorted(src.glob("*.py"))
        if re.search(r"\bRING_SECRET_BITS\b|\bring_secret\s*(:[^=\n]*)?=[^=]", path.read_text())
    }
    assert sites == {"keymgmt.py"}


def test_no_service_declares_a_run_parameter_of_its_own():
    # Each protocol parameter is declared once, as a `SimParams` field, and
    # a service reads it from the run's params: no constructor in `keymgmt`
    # or `routing` (an `__init__` or a dataclass field) takes one by name,
    # so no second default can creep in.
    params = {f.name for f in fields(sim.SimParams)}
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    declared = []
    for module in ("keymgmt.py", "routing.py"):
        for cls in ast.parse((src / module).read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            is_dataclass_ = any("dataclass" in ast.unparse(decorator) for decorator in cls.decorator_list)
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    names = [arg.arg for arg in item.args.posonlyargs + item.args.args + item.args.kwonlyargs]
                elif is_dataclass_ and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names = [item.target.id]
                else:
                    continue
                declared += [f"{module}:{cls.name}.{name}" for name in names if name in params]
    assert declared == []


def test_only_in_range_measures_distance():
    # Every distance test of the simulator is made inside
    # Simulation._in_range, one call per reach row, so the benchmark's
    # `sim.in_range.calls` counts the rows built: no other line of sim.py
    # names math.hypot, under any alias.
    path = pathlib.Path(sim.__file__)
    text = path.read_text()
    [cls] = [node for node in ast.parse(text).body if isinstance(node, ast.ClassDef) and node.name == "Simulation"]
    [method] = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "_in_range"]
    lines = [number for number, line in enumerate(text.splitlines(), start=1) if "hypot" in line]
    assert lines and all(method.lineno <= number <= method.end_lineno for number in lines), lines


def test_only_schedule_writes_the_queue():
    # Each transmission hop is queued as one entry by Simulation._schedule;
    # apart from it, only __init__ (the empty queue) and run (the pop of
    # each tick's entries) touch `self.queue`, so no second scheduling path
    # can build entries of another shape.
    [cls] = [
        node for node in ast.parse(pathlib.Path(sim.__file__).read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "Simulation"
    ]
    uses = []
    for method in cls.body:
        if isinstance(method, ast.FunctionDef):
            for parent in ast.walk(method):
                for child in ast.iter_child_nodes(parent):
                    if isinstance(child, ast.Attribute) and ast.unparse(child) == "self.queue":
                        uses.append((method.name, ast.unparse(parent)))
    assert [use for use in uses if use[0] != "_schedule"] == [
        ("__init__", "self.queue: dict[int, list] = {}"),
        ("run", "self.queue.pop"),
    ]
    assert [use for use in uses if use[0] == "_schedule"]


def test_no_method_writes_a_reach_row():
    # A broadcast files its sender's reach row itself as its hearers, so a
    # row is shared by the reach cache and the queue: no function of sim.py
    # calls a mutating list method on, adds to, or stores or deletes an item
    # of a value read from `self._reach` or returned by `self._neighbours`,
    # or of a name that ever holds one.
    mutators = {"append", "clear", "extend", "insert", "pop", "remove", "reverse", "sort"}

    def is_row(node, held):
        if isinstance(node, ast.Name):
            return node.id in held
        if isinstance(node, ast.Subscript):
            return ast.unparse(node.value) == "self._reach"
        return isinstance(node, ast.Call) and ast.unparse(node.func) in ("self._reach.get", "self._neighbours")

    held_by, writes = {}, []
    for scope in ast.walk(ast.parse(pathlib.Path(sim.__file__).read_text())):
        if not isinstance(scope, ast.FunctionDef):
            continue
        held = set()  # the names that ever hold a row, found to a fixed point
        while True:
            before = len(held)
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and any(is_row(part, held) for part in [node.value, *node.targets]):
                    held |= {target.id for target in node.targets if isinstance(target, ast.Name)}
                elif isinstance(node, ast.NamedExpr) and is_row(node.value, held):
                    held.add(node.target.id)
            if len(held) == before:
                break
        held_by[scope.name] = held
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in mutators:
                written = node.func.value
            elif isinstance(node, ast.AugAssign):
                written = node.target
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                written = node.value
            else:
                continue
            if is_row(written, held):
                writes.append((scope.name, ast.unparse(node)))
    assert writes == []
    # The pin reads the rows where they are held.
    assert "row" in held_by["_neighbours"] and "hearers" in held_by["_transmit"]


def _scoped_nodes():
    """(module file, `Class.method`, `function` or "<module>", node) for every
    AST node of the program, under the top-level scope that holds it."""
    for path in sorted(pathlib.Path(manetsec.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for scope in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = owner + scope.name if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>"
                for node in ast.walk(scope):
                    yield path.name, name, node


def test_one_send_builder():
    # Every send event, a node's transmission or a link tap's replay, is
    # built by Simulation._send, so the send format has one source: no other
    # function of the program builds a SimEvent whose kind is "send".
    builders = []
    for module, scope, node in _scoped_nodes():
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "SimEvent":
            kinds = node.args[2:3] + [word.value for word in node.keywords if word.arg == "kind"]
            if any(isinstance(kind, ast.Constant) and kind.value == "send" for kind in kinds):
                builders.append((module, scope))
    assert builders == [("sim.py", "Simulation._send")]


def test_only_the_message_layer_stores_a_messages_bytes():
    # A message's `encoded` is written in messages.py alone: by its first
    # read, or by `with_beat` as it builds a heartbeat.  Everywhere else a
    # message's bytes are read, never set.
    stores = []
    for module, scope, node in _scoped_nodes():
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        )
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr == "encoded":
                stores.append((module, scope))
            if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Constant):
                if target.slice.value == "encoded":
                    stores.append((module, scope))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(("setattr", "__setattr__")):
            if any(isinstance(arg, ast.Constant) and arg.value == "encoded" for arg in node.args):
                stores.append((module, scope))
    assert sorted(stores) == [("messages.py", "Message.with_beat"), ("messages.py", "_Encoded.__get__")]


def test_only_the_heartbeat_builds_a_beat_from_the_last():
    callers = [
        (module, scope) for module, scope, node in _scoped_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "with_beat"
    ]
    assert callers == [("node.py", "ProtocolNode._heartbeat")]


def test_a_node_keeps_its_last_heartbeat_on_itself():
    # The kept beat is per node and per run: an attribute of the node set in
    # its `__init__` and its `_heartbeat`, never a class attribute nor an
    # entry of a container that outlives the node.
    writes, names = [], []
    for module, scope, node in _scoped_nodes():
        if module != "node.py":
            continue
        if isinstance(node, ast.Attribute) and node.attr == "last_heartbeat":
            names.append(ast.unparse(node))
            if isinstance(node.ctx, ast.Store):
                writes.append((scope, ast.unparse(node)))
        if isinstance(node, ast.Name) and node.id == "last_heartbeat":
            names.append(node.id)
    assert sorted(writes) == [
        ("ProtocolNode.__init__", "self.last_heartbeat"), ("ProtocolNode._heartbeat", "self.last_heartbeat")
    ]
    assert set(names) == {"self.last_heartbeat"}
    from manetsec.node import ProtocolNode

    assert not hasattr(ProtocolNode, "last_heartbeat")


def _simulation_methods(tree):
    """Each method of the Simulation class in sim.py's parsed `tree`, by name."""
    [cls] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Simulation"]
    return {method.name: method for method in cls.body if isinstance(method, ast.FunctionDef)}


def test_one_place_discards_a_relayed_broadcast():
    # Each protocol node's relay record lives on the simulator: only
    # Simulation._flush adds to it, and only Simulation.run tests membership
    # in it, to discard a copy of a group broadcast the node has already
    # sent.  The node classes hold neither a relay record nor a liveness flag.
    mutators = {"add", "clear", "discard", "pop", "popitem", "remove", "setdefault", "update"}
    writes, tests = [], []
    for path in sorted(pathlib.Path(manetsec.__file__).parent.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if not isinstance(scope, ast.FunctionDef):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in mutators:
                    if "relayed" in ast.unparse(node.func.value):
                        writes.append((path.name, scope.name, ast.unparse(node)))
                if isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                    if any("relayed" in ast.unparse(c) for c in node.comparators):
                        tests.append((path.name, scope.name, ast.unparse(node)))
    assert writes == [("sim.py", "_flush", "relayed.add(envelope.message.encoded)")]
    assert tests == [("sim.py", "run", "encoded in relayed.get(recipient, ())")]
    uses = {
        name for name, method in _simulation_methods(ast.parse(pathlib.Path(sim.__file__).read_text())).items()
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "relayed"
    }
    assert uses == {"__init__", "_flush", "run"}
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
        for node in ast.walk(ast.parse(pathlib.Path(sim.__file__).with_name("node.py").read_text()))
    }
    assert not named & {"relayed", "alive"}


def test_only_the_simulation_setup_tells_node_classes_apart():
    # Which nodes are placed adversaries is stated once, as a set of names
    # built in Simulation.__init__; nowhere else does sim.py test a node's
    # class.
    tree = ast.parse(pathlib.Path(sim.__file__).read_text())
    allowed = {id(node) for node in ast.walk(_simulation_methods(tree)["__init__"])}
    tests = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2
        and {"ProtocolNode", "AdversaryNode"} & {getattr(n, "id", None) for n in ast.walk(node.args[1])}
        and id(node) not in allowed
    ]
    assert tests == []


def test_one_method_decides_what_a_tap_does():
    # Both the unicast walk and a broadcast's tapped hop hand a message
    # crossing a link tap to Simulation._tap.  `intercept` is called there
    # and in the unicast walk, for a placed node adversary the walk crosses,
    # and nowhere else in sim.py.
    calls = {
        name: {ast.unparse(node.func) for node in ast.walk(method) if isinstance(node, ast.Call)}
        for name, method in _simulation_methods(ast.parse(pathlib.Path(sim.__file__).read_text())).items()
    }
    assert [name for name, called in calls.items() if "intercept" in called] == ["_unicast", "_tap"]
    assert sorted(name for name, called in calls.items() if "self._tap" in called) == ["_dispatch_radio", "_unicast"]
    text = pathlib.Path(sim.__file__).read_text()
    assert len(re.findall(r"\bintercept\(", text)) == 2
    # What a tap passes on keeps its sender's transmission, so a tap's
    # outbox holds only replays: it is filled once, in _tap's replay branch.
    assert len(re.findall(r"\boutbox\.append\(", text)) == 1
    tap = _simulation_methods(ast.parse(text))["_tap"]
    [replay] = [
        node for node in ast.walk(tap) if isinstance(node, ast.If) and ast.unparse(node.test) == "tap.kind == 'replay'"
    ]
    assert "tap.outbox.append" in {ast.unparse(node.func) for node in ast.walk(replay) if isinstance(node, ast.Call)}


def test_path_search_reads_position_and_liveness_alone():
    # Relays are chosen by position and liveness alone.  Every method that
    # searches or walks paths (each that reads a kept search, and each method
    # of the simulation that one calls, but the reach rows) reads, of the
    # simulation, only the reach rows, the crashed set and the kept searches,
    # and names no behavior, so none can tell a placed adversary from any
    # other node.
    methods = _simulation_methods(ast.parse(pathlib.Path(sim.__file__).read_text()))
    kept = {"_searches", "_fanouts", "_opened"}

    def read(method):
        return {
            node.attr for node in ast.walk(method)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
        }

    searching = {name for name, method in methods.items() if read(method) & kept}
    pending = list(searching)
    while pending:
        for name in read(methods[pending.pop()]) & set(methods) - {"_neighbours"} - searching:
            searching.add(name)
            pending.append(name)
    assert "_radio_path" in searching
    for name in sorted(searching):
        method = methods[name]
        assert read(method) <= {"_neighbours", "crashed"} | kept, name
        names = {node.id for node in ast.walk(method) if isinstance(node, ast.Name)}
        words = {node.value for node in ast.walk(method) if isinstance(node, ast.Constant)}
        assert not (names | words) & ({"BEHAVIORS", "STEALTH_RELAY", "AdversaryNode"} | set(BEHAVIORS)), name


def test_only_the_wake_loop_steps_a_node():
    # A node's `on_tick` runs only when the next-event clock says it is due:
    # the one use of the name in the program is a call in Simulation.run,
    # inside the loop over the tick's wakeups.
    uses = []
    for path in sorted(pathlib.Path(manetsec.__file__).parent.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, ast.FunctionDef):
                uses += [
                    (path.name, scope.name, scope, node) for node in ast.walk(scope)
                    if isinstance(node, ast.Attribute) and node.attr == "on_tick"
                ]
    assert [(name, function) for name, function, _, _ in uses] == [("sim.py", "run")]
    [(_, _, run, attribute)] = uses
    assert any(isinstance(node, ast.Call) and node.func is attribute for node in ast.walk(run))
    loops = [
        ast.unparse(loop.iter) for loop in ast.walk(run)
        if isinstance(loop, ast.For) and any(node is attribute for node in ast.walk(loop))
    ]
    assert loops == ["range(duration + 1)", "due"]


def test_each_module_name_on_the_package_is_that_module():
    # `manetsec.audit` is the auditor module, not a function re-exported
    # under its name.
    src = pathlib.Path(manetsec.__file__).parent
    for name in sorted(path.stem for path in src.glob("[!_]*.py")):
        if hasattr(manetsec, name):
            assert getattr(manetsec, name) is sys.modules[f"manetsec.{name}"], name


def test_import_loads_no_heavy_dependency():
    # The identification primes come from crypto.is_prime, and the real
    # provider imports `cryptography` only when constructed, so importing
    # the package pulls in neither sympy (with mpmath) nor cryptography.
    src = pathlib.Path(__file__).parent.parent / "src"
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import manetsec; "
        "print(' '.join(sorted({'sympy', 'mpmath', 'cryptography'} & set(sys.modules))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, str(src)], capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == ""


def _declared(kind):
    """`kind` and every type inside it: list[NodeSpec] -> list[NodeSpec], NodeSpec."""
    yield kind
    for arg in get_args(kind):
        yield from _declared(arg)


def test_every_scenario_field_has_a_shape_check():
    # validate_scenario checks each field of a scenario against its declared
    # type through sim.SHAPES; a spec class or a field missing from the
    # table would go unchecked.
    reached, todo = set(), [sim.Scenario]
    while todo:
        cls = todo.pop()
        reached.add(cls)
        todo += [t for kind in get_type_hints(cls).values() for t in _declared(kind) if is_dataclass(t)]
    assert set(sim.SHAPES) == reached
    for cls in reached:
        assert [name for name, *_ in sim.SHAPES[cls]] == [f.name for f in fields(cls)]


def test_a_run_is_named_in_one_place():
    # Test modules share runs through `tests/corpus.py`, so a new case is
    # added there alone: no test module imports another, and only the
    # corpus lists the scenario files.
    listing = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
        assert not [name for name in imported if name.startswith("test_")], path.name
        named = os.path.basename(corpus.SCENARIOS) in [node.value for node in nodes if isinstance(node, ast.Constant)]
        calls = {getattr(n.func, "attr", getattr(n.func, "id", None)) for n in nodes if isinstance(n, ast.Call)}
        if named and calls & {"listdir", "scandir", "glob", "iglob", "iterdir", "walk"}:
            listing.append(path.name)
    assert listing == ["corpus.py"]


def test_the_program_holds_no_fault_hook():
    # A leader that breaks the protocol is a subclass the tests hold
    # (``topologies.LEADERS``), not a mode a scenario can switch on.
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    hook = re.compile(r"\b(faults|FAULTS|leak_key|skip_rekey|forge_admit)\b")
    assert [path.name for path in sorted(src.glob("*.py")) if hook.search(path.read_text())] == []


def test_the_audit_opens_with_a_provider_of_its_own(monkeypatch):
    # The auditor attempts every decryption itself.  The simulator's provider
    # holds the plaintext of each seal it made until its first open, so the
    # audit must never open with it: it makes its own, from the registry.
    from manetsec import audit as audit_module
    from topologies import line_scenario

    tree = ast.parse(pathlib.Path(audit_module.__file__).read_text())
    made = [
        node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "attr", getattr(target, "id", "")) == "provider"
    ]
    assert [ast.unparse(value) for value in made] == ["make_provider(log.registry.provider_name)"]

    script = [sim.Action(4, "leave", ("C",)), sim.Action(8, "send_data", ("A", "*", "hi"))]
    scenario = line_scenario(["A", "B", "C"], script=script, duration=14)
    run = sim.Simulation(scenario)
    log = run.run()
    assert run.provider._held  # the group broadcast is never opened
    first = []
    knowledge = audit_module._LogIndex.knowledge

    def spy(index, principal):
        if not first:
            first.append((index.provider, dict(index.provider._held)))
        return knowledge(index, principal)

    monkeypatch.setattr(audit_module._LogIndex, "knowledge", spy)
    audit_module.audit(log)
    [(provider, held)] = first
    assert provider is not run.provider and type(provider) is type(run.provider) and held == {}


# The calls that change a dict, list or set in place.
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem", "remove", "discard", "clear"
}


def _module_containers(tree) -> set:
    """The module-level names of `tree` bound to a dict, list or set."""
    kinds = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    names = set()
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = getattr(node, "value", None)
        made = isinstance(value, kinds) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "list", "set", "defaultdict")
        )
        names.update(target.id for target in targets if made and isinstance(target, ast.Name))
    return names


def _writes(function, names) -> list:
    """Each statement or call in `function` that writes one of `names`."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Global):
            found += [ast.unparse(node) for name in node.names if name in names]
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        )
        for target in targets:
            if isinstance(target, ast.Subscript) and getattr(target.value, "id", None) in names:
                found.append(ast.unparse(node))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            if getattr(node.func.value, "id", None) in names:
                found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize(
    "module",
    ["audit.py", "crypto.py", "encoding.py", "group.py", "keymgmt.py", "messages.py", "node.py", "scenariofile.py"],
)
def test_no_function_writes_a_module_level_container(module):
    # The audit's, the providers' and the message layer's memos live on an
    # object that lasts one audit or one run (the log index, a provider
    # instance), so they die with it; none is kept on the module between runs.
    # `sim.py` is left out: `_shape` fills its `SHAPES` table once, at import.
    tree = ast.parse((pathlib.Path(__file__).parent.parent / "src" / "manetsec" / module).read_text())
    containers = _module_containers(tree)
    assert containers  # e.g. `_NEGATED`, `PROVIDERS`, `_BY_TYPE`, `FIELD_TYPES`
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    functions = [node for node in ast.walk(tree) if isinstance(node, kinds)]
    assert [write for function in functions for write in _writes(function, containers)] == []
    # Nor does a decorator keep a cache on the module.
    decorators = [ast.unparse(d) for f in functions for d in getattr(f, "decorator_list", ())]
    assert not [d for d in decorators if re.search(r"\b(lru_)?cache\b", d)], decorators


def _lists(value):
    if isinstance(value, list):
        yield value
        for item in value:
            yield from _lists(item)


def test_a_run_and_its_audit_share_no_directory(monkeypatch):
    # Each provider holds its own directory memo, so the audit reads every
    # directory itself, into lists of its own, whatever the run has read.
    # The run's provider is read, so the run is a fresh one.
    from manetsec import audit as audit_module
    from manetsec.crypto import make_provider
    from topologies import churn_scenario

    run = sim.Simulation(churn_scenario(500))
    log = run.run()
    made = []
    monkeypatch.setattr(audit_module, "make_provider", lambda name: made.append(make_provider(name)) or made[-1])
    assert audit_module.audit(log).passed
    [provider] = made
    ran, audited = run.provider.directories, provider.directories
    assert ran is not audited
    shared = ran.keys() & audited.keys()
    assert shared
    for field in shared:
        assert ran[field] == audited[field]
        assert not {id(item) for item in _lists(ran[field])} & {id(item) for item in _lists(audited[field])}


def test_a_finished_runs_directories_die_with_its_simulation():
    # A dict cannot be weakly referenced, but a subclass can: it stands in
    # for the run's memo, and once the Simulation is gone nothing keeps it.
    # The memo is set before the run, so the run is a fresh one.
    import gc
    import weakref

    from manetsec.audit import audit
    from topologies import churn_scenario

    class Memo(dict):
        pass

    run = sim.Simulation(churn_scenario(500))
    run.provider.directories = Memo()
    memo = weakref.ref(run.provider.directories)
    log = run.run()
    assert memo()  # the run read its directories through it
    # Each node's last heartbeat, kept to build its next one, dies with it too.
    beats = [weakref.ref(node.last_heartbeat) for node in run.nodes.values() if node.last_heartbeat is not None]
    assert beats
    del run
    gc.collect()
    assert memo() is None
    assert [beat for beat in beats if beat() is not None] == []
    assert audit(log).passed  # the log alone is still whole
