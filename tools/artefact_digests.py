"""SHA-256 digests of `core-dse run`'s artefacts, for comparing two checkouts.

Each listed run is a `core-dse run` (as `python -m coredse.cli`) of this
checkout's own `src/`, in a temporary directory. One line is printed per
artefact: the SHA-256 of the run's `history.csv`, `summary.json` and, for
CORE runs, `policy.bin`, then the run's name and the file's. Runs whose
artefacts should not change under a refactor can be compared across two
checkouts with `diff`:

    python3 tools/artefact_digests.py > before.txt   # in one checkout
    python3 tools/artefact_digests.py > after.txt    # in the other
    diff before.txt after.txt

Nothing is written into the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SPACES = {
    # Gate 3's enumerable one-layer toy space on the cloud platform.
    "toy": {
        "layers": ((25, 13, 11, 11, 3, 3),),
        "platform": "cloud",
        "space": {
            "n_pe": 64,
            "l1_bytes": 4096,
            "l2_bytes": 8192,
            "tile_dims": ["K", "C"],
            "tile_step": 4,
            "vary_level1": False,
            "include_order": False,
            "vary_parallel_dim": False,
        },
        "reward": {"weights": [-1.0, 0.0], "alpha_c": 50000.0},
    },
    # Gate 4's three-layer ResNet-like space on the edge platform, as perfbench searches it.
    "resnet": {
        "layers": ((64, 64, 56, 56, 3, 3), (128, 128, 28, 28, 3, 3), (256, 256, 14, 14, 3, 3)),
        "platform": "edge",
        "space": {
            "n_pe": [2, 128, 2],
            "l1_bytes": [256, 1024, 256],
            "l2_bytes": [16384, 131072, 16384],
            "vary_level1": False,
        },
        "reward": {"weights": [-1e-6, 0.0], "alpha_c": 3.0},
    },
}
# The same space with level-1 tiles varying too (87 raw parameters), so that
# the scaled level-1 tile decode runs.
SPACES["resnet-level1"] = {**SPACES["resnet"], "space": {**SPACES["resnet"]["space"], "vary_level1": True}}
METHODS = ("core", "core-no-shaping", "core-no-scaling", "ga", "random")
SMALL = {
    "policy": {"input_width": 64, "hidden_width": 256},
    "train": {"batch_size": 16, "max_episodes": 64, "sample_budget": 1024, "learning_rate": 3e-3, "seed": 0},
}


def runs():
    """(name, space, method, config sections) of every run, in print order."""
    for space in ("toy", "resnet"):
        for method in METHODS:
            yield f"{space}-{method}", space, method, SMALL
    for method in ("core", "core-no-scaling", "ga"):
        yield f"resnet-level1-{method}", "resnet-level1", method, SMALL
    # The default 512/4096 policy, at the benchmark's cli-default-width budget.
    yield "toy-core-default-width", "toy", "core", {"train": {"sample_budget": 128}}
    # Gate 7's run.
    gate7 = {"batch_size": 16, "max_episodes": 25, "sample_budget": 400, "learning_rate": 0.003, "seed": 3}
    yield "toy-core-gate7", "toy", "core", {"policy": {"input_width": 16, "hidden_width": 32}, "train": gate7}


def digests(space: str, method: str, sections: dict) -> list[tuple[str, str]]:
    """(file name, SHA-256) of each artefact of one run."""
    spec = SPACES[space]
    config = {
        "workload": "workload.txt",
        "platform": spec["platform"],
        "method": method,
        "space": spec["space"],
        "reward": spec["reward"],
        **sections,
    }
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        (run_dir / "workload.txt").write_text("".join(" ".join(map(str, l)) + "\n" for l in spec["layers"]))
        (run_dir / "config.json").write_text(json.dumps(config))
        cmd = [sys.executable, "-m", "coredse.cli", "run", "--config", "config.json", "--out", "out"]
        done = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{space} {method}: exit {done.returncode}\n{done.stderr}")
        files = ("history.csv", "summary.json") + (("policy.bin",) if method.startswith("core") else ())
        return [(name, hashlib.sha256((run_dir / "out" / name).read_bytes()).hexdigest()) for name in files]


def main() -> int:
    for name, space, method, sections in runs():
        for file, digest in digests(space, method, sections):
            print(f"{digest}  {name}/{file}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
