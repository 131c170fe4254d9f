"""Which searches load scipy.

`scipy.special` is imported where the Beta heads use it, so a process that
runs only the GA, random search, the oracle or the CLI's `report` and
`defaults` never loads scipy. Each case runs in one fresh interpreter, since
this test process has loaded scipy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBLEM = """
import json, sys

import coredse
from coredse.costmodel import platform_by_name
from coredse.design import Layer, SpaceOptions, Workload
from coredse.objective import RewardConfig
from coredse.problems import accelerator_problem

# The benchmark's ResNet-like space.
RESNETISH = Workload("resnetish", (
    Layer(K=64, C=64, X=56, Y=56, R=3, S=3),
    Layer(K=128, C=128, X=28, Y=28, R=3, S=3),
    Layer(K=256, C=256, X=14, Y=14, R=3, S=3),
))
NARROW = SpaceOptions(n_pe=(2, 128, 2), l1_bytes=(256, 1024, 256), l2_bytes=(16384, 131072, 16384), vary_level1=False)
problem = accelerator_problem(RESNETISH, platform_by_name("edge"), NARROW)
reward = RewardConfig(weights=(-1e-6, 0.0), alpha_c=3.0)


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

BASELINES = """
from coredse.baselines import ga_run, random_search
from coredse.cli import main

assert ga_run(problem, reward, pop_size=32, generations=1, seed=0).samples_used == 64
assert random_search(problem, reward, budget=64, seed=0).samples_used == 64

with open("wl.txt", "w") as fh:
    fh.write("8 8 8 8 3 3\\n")
config = {
    "workload": "wl.txt",
    "platform": "cloud",
    "space": {"n_pe": [2, 16, 2], "l1_bytes": 4096, "l2_bytes": 8192, "tile_dims": ["K"],
              "vary_level1": False, "include_order": False, "vary_parallel_dim": False},
    "reward": {"weights": [-1.0, -1.0], "alpha_c": 100.0},
    "train": {"batch_size": 8, "sample_budget": 64, "seed": 0},
    "ga": {"pop_size": 8},
}
for method in ("ga", "random"):
    with open(method + ".json", "w") as fh:
        json.dump({**config, "method": method}, fh)
    assert main(["run", "--config", method + ".json", "--out", method]) == 0
assert main(["oracle", "--config", "random.json", "--out", "oracle"]) == 0
assert main(["report", "ga", "random", "oracle"]) == 0
assert main(["defaults"]) == 0
print(json.dumps(scipy_modules()))
"""

CORE = """
from coredse.trainer import PolicyConfig, TrainConfig, train

before = scipy_modules()
cfg = TrainConfig(batch_size=8, max_episodes=2, sample_budget=16, learning_rate=1e-3, reward=reward,
                  policy=PolicyConfig(input_width=8, hidden_width=16))
assert train(problem, cfg).samples_used == 16
print(json.dumps([before, scipy_modules()]))
"""


def modules_after(script: str, cwd: Path):
    """The JSON that `script` prints last, run after PROBLEM in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBLEM + script],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ga_random_oracle_report_and_defaults_never_load_scipy(tmp_path):
    assert modules_after(BASELINES, tmp_path) == []


def test_core_loads_scipy_special_when_its_policy_builds_heads(tmp_path):
    before, after = modules_after(CORE, tmp_path)
    assert before == []
    assert "scipy.special" in after
