"""Each walkthrough in ``demos/`` prints what it printed when its text in
``tests/demo_output/`` was captured, run in-process."""

import os
import runpy

import pytest

HERE = os.path.dirname(__file__)
DEMOS = os.path.join(HERE, "..", "demos")
EXPECTED = os.path.join(HERE, "demo_output")


@pytest.mark.parametrize("name", sorted(n[:-3] for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_prints_its_captured_text(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name + ".py"), run_name="__main__")
    with open(os.path.join(EXPECTED, name + ".txt"), encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()
