"""The benchmark's traced runs patch named functions and methods of the
program (``perfbench/tracing.py``).  Renaming one of them would break only
``--trace 1``; this test makes it fail the suite as well.  It reads the
tracer's target table and patches nothing."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.bindings()
    assert len(points) > len(tracing._TARGETS)
    for owner, attr, target in points:
        assert callable(target), f"{owner.__name__}.{attr}"
