"""Shows that each of the benchmark's checks can fail.

    python3 perfbench/selftest.py

Runs one short GA search on the ResNet-like space, confirms that its genuine
result passes every check, then feeds the checks corrupted copies of it and
requires each to be rejected. Exits 0 only if every corruption was caught.
"""

import copy
import dataclasses
import sys

import checks
import refmodel
import run


def genuine_result():
    """A real GA result on the ResNet-like space: (rows, best design, objective)."""
    p = run.import_program()
    problem, reward = run.resnet_problem(p)
    result = p.baselines.ga_run(problem, reward, pop_size=32, generations=3, seed=0)
    rows = [dict(r, valid=bool(r["valid"])) for r in result.history_rows()]
    return rows, problem.describe(result.best_feasible.design), result.best_feasible.objective


def below_floor_design() -> dict:
    """A well-formed, feasible toy-space design that uses 128 PEs where the
    space allows 64, so its latency is under the space's compute floor."""
    full = [3, 3, 25, 13, 11, 11]  # (S, R, K, C, X, Y): the whole layer
    order = list(refmodel.DIMS)
    return {
        "n_pe": 128,
        "l1_bytes": 16384,
        "l2_bytes": 16384,
        "mappings": [
            [
                {"order": order, "parallel_dim": "K", "parallelism": 16, "tiles": full},
                {"order": order, "parallel_dim": "C", "parallelism": 8, "tiles": full},
            ]
        ],
    }


def main() -> int:
    ok = True

    def expect(label: str, faults: list[str], want_fault: bool) -> None:
        nonlocal ok
        caught = bool(faults)
        ok &= caught == want_fault
        verdict = ("rejected" if caught else "accepted") + ("" if caught == want_fault else "  <-- WRONG")
        print(f"{label}: {verdict}" + (f" ({faults[0]})" if faults else ""))

    for name, space, floor in (("ResNet-like", run.RESNET, 903168), ("toy", run.TOY, 5531)):
        computed = space.compute_floor()
        expect(f"{name} compute floor {floor}", [] if computed == floor else [f"computed {computed}"], False)

    rows, design, objective = genuine_result()
    weights, space, n = run.RESNET_WEIGHTS, run.RESNET, len(rows)
    expect("genuine GA result", checks.check_search(rows, design, objective, n, weights, space)[1], False)

    price = refmodel.price(design, space)
    off_by_one = refmodel.objective(dataclasses.replace(price, latency=price.latency + 1), weights)
    expect("latency one cycle off", checks.check_best(design, off_by_one, weights, space)[1], True)

    bad = copy.deepcopy(design)
    lvl1, lvl2 = bad["mappings"][0]
    lvl1["tiles"][2] = lvl2["tiles"][2] + 1  # K
    expect("level-1 tile over its level-2 tile", checks.check_best(bad, objective, weights, space)[1], True)

    low = below_floor_design()
    low_price = refmodel.price(low, run.TOY)
    well_formed = not low_price.problems and low_price.feasible
    expect("crafted 128-PE toy design is well formed and feasible", [] if well_formed else ["it is not"], False)
    low_objective = refmodel.objective(low_price, run.TOY_REWARD["weights"])
    expect(
        f"best of {low_price.latency:.0f} cycles under the floor",
        checks.check_best(low, low_objective, run.TOY_REWARD["weights"], run.TOY)[1],
        True,
    )

    worse = copy.deepcopy(rows)
    last = worse[-1]["episode"]
    for r in worse:
        if r["episode"] == last:
            r["best_reward"] -= 1.0
    expect("best-so-far that gets worse", checks.check_history(worse, objective, n), True)

    anomalous = copy.deepcopy(rows)
    anomalous[0]["valid"] = False
    failed = checks.failed_count(anomalous)
    expect("anomalous outcome", [f"counted as {failed} failed operation"] if failed == 1 else [], True)

    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
