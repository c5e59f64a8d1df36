"""The benchmark's traced runs patch named functions and methods of the
program (``perfbench/tracing.py``).  Renaming one of them would break only
``--trace 1``; this test makes it fail the suite as well.  It reads the
tracer's target table and patches nothing."""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from typing import get_args, get_type_hints

import manetsec
from manetsec import sim

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


def test_one_data_builder():
    # Every DATA hop, the origin's, a relay's and a group broadcast, is
    # sealed for its next hop by `ProtocolNode._emit_data` alone.
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    sites = [
        path.name for path in sorted(src.glob("*.py"))
        for _ in re.finditer(r"\bmsg\(\s*MessageKind\.DATA\b", path.read_text())
    ]
    assert sites == ["node.py"]


def test_only_keymgmt_knows_the_ring_secret():
    # Each leader draws its own ring secret in its LeaderKeyService; no
    # other module sizes, draws or writes one.
    src = pathlib.Path(__file__).parent.parent / "src" / "manetsec"
    sites = {
        path.name for path in sorted(src.glob("*.py"))
        if re.search(r"\bRING_SECRET_BITS\b|\bring_secret\s*(:[^=\n]*)?=[^=]", path.read_text())
    }
    assert sites == {"keymgmt.py"}


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
