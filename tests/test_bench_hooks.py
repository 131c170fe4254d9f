"""The program names perfbench hooks must exist, so that a rename fails here
and not only in a traced benchmark run.

perfbench/run.py wraps each (module, attribute) of its SPANS table in traced
runs, and arms its set-up clock on the trainer attributes it passes to
`_arm_setup_clock` in every run. Both are read from the script's source,
without importing it.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _hooks() -> list[tuple[str, str]]:
    tree = ast.parse(RUN.read_text())
    spans = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in node.targets)
    ]
    clock = [
        ast.literal_eval(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_arm_setup_clock"
    ]
    assert len(spans) == 1 and len(clock) == 1, "expected one SPANS table and one set-up clock"
    hooks = {target for targets in spans[0].values() for target in targets}
    return sorted(hooks | {("trainer", attr) for attr in clock[0]})


@pytest.mark.parametrize("module, attr", _hooks())
def test_benchmark_hook_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"coredse.{module}"), attr, None))
