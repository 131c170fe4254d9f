"""Alternating parent/change pairs of untraced benchmark runs, summarised.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--pairs 10] [--seconds 35] [--seed0 N]

DIR is the root of a checkout. Pair i runs seed N + i in both checkouts,
one process at a time, the parent first on even i and the change first on
odd i. Before every run the checkout's `src/coredse/__pycache__` is
removed, and the run writes no bytecode (PYTHONDONTWRITEBYTECODE=1), so
that both sides import from source. Each run is `perfbench/run.py --trace 0`
in its own checkout, and its output is kept in that checkout's
`perfbench/runs/pairs/`.

For each end-to-end metric the script prints each side's median and
quartiles, the change of the medians, and in how many pairs each side was
better, by the direction the change's `BENCHMARK.json` gives. It exits 1
if any run failed, was not `correct`, or had a failed design.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_once(root: Path, side: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One untraced run from source in ``root``; its JSON result, or None if it failed."""
    shutil.rmtree(root / "src" / "coredse" / "__pycache__", ignore_errors=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=4 * seconds + 600)
    log = root / "perfbench" / "runs" / "pairs" / f"{workload}-seed{seed}-{side}.txt"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {side} seed {seed}: exit {proc.returncode}, see {log}")
        return None
    result = json.loads(lines[-1])
    values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
    print(f"  {side} seed {seed}: correct={result['correct']} failed={result['failed']} {values}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0 or args.seed0 < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed0 >= 0")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = {
        m["name"]: m["better"] for m in json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    }

    results = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(roots[side], side, args.workload, seed, args.seconds)
            ok &= result is not None and result["correct"] is True and result["failed"] == 0
            results[side].append(result)
    pairs = [(p, c) for p, c in zip(results["parent"], results["change"]) if p and c]

    print(f"\n{args.workload}: {len(pairs)} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    print(f"{'metric':<22}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}{'change':>9}  wins p/c")
    for name in better:
        if not pairs or name not in pairs[0][0]["metrics"]:
            continue
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if better[name] == "higher" else -1
        parent_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        change_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        cells = []
        for values in (parent, change):
            q1, q2, q3 = quartiles(values)
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        p_med, c_med = statistics.median(parent), statistics.median(change)
        rel = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a"
        print(f"{name:<22}{cells[0]:>34}{cells[1]:>34}{rel:>9}  {parent_wins}/{change_wins}")
    if not ok:
        print("FAILED: a run failed, was not correct, or had failed designs", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
