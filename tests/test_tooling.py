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
