"""The program names perfbench uses must exist, so that a rename fails here
and not only in a benchmark run.

perfbench/run.py wraps each (module, attribute) of its SPANS table in traced
runs, and arms its set-up clock on the trainer attributes it passes to
`_arm_setup_clock` in every run. It builds configs, GA and random-search
runs with keyword arguments, and writes a `core-dse` config with its own
space and reward sections. All of these are read from the script's source,
without importing it.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

import coredse
from coredse import cli

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


# The library calls perfbench/run.py makes with keyword arguments, and the
# config keys it passes: each name must still bind where it lands.
CALLED = ("TrainConfig", "PolicyConfig", "RewardConfig", "ga_run", "random_search")


def _assigned(name: str) -> ast.expr:
    (value,) = [
        node.value
        for node in ast.parse(RUN.read_text()).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    ]
    return value


@pytest.mark.parametrize("name", CALLED)
def test_benchmark_call_binds(name):
    calls = [
        node
        for node in ast.walk(ast.parse(RUN.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name
    ]
    assert calls, f"perfbench/run.py no longer calls {name}"
    signature = inspect.signature(getattr(coredse, name))
    for call in calls:
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_benchmark_space_options_bind():
    call = _assigned("RESNET_OPTIONS")
    assert isinstance(call, ast.Call) and call.func.id == "dict"
    options = {kw.arg: ast.literal_eval(kw.value) for kw in call.keywords}
    assert options and coredse.SpaceOptions(**options)


def test_benchmark_cli_config_loads(tmp_path, capsys):
    # cli-default-width writes `core-dse defaults` with its toy space and
    # reward in place of the defaults' sections.
    assert cli.main(["defaults"]) == 0
    config = json.loads(capsys.readouterr().out)
    config.update(space=ast.literal_eval(_assigned("TOY_SPACE")), reward=ast.literal_eval(_assigned("TOY_REWARD")))
    (tmp_path / "workload.txt").write_text("25 13 11 11 3 3\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    setup = cli.Setup(cli.load_config(str(path)), tmp_path, None)
    assert setup.reward.alpha_c == config["reward"]["alpha_c"]
    assert setup.problem().n_raw > 0
