"""Release gates, one test per gate.

Each test prints exactly one PASS/FAIL line with its measured numbers, so a
full run doubles as the sign-off record. Settings here are frozen; loosening
a tolerance or shrinking a sample count needs a ledger entry, not a quiet
edit.
"""

import functools
import itertools
import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np

from coredse.baselines import ga_run, random_search
from coredse.cli import main
from coredse.costmodel import (
    CostConstants,
    area_mm2,
    layer_latency,
    platform_by_name,
    traffic_bytes,
)
from coredse.design import CoDesignSpace, Layer, SpaceOptions, Workload, validate_config
from coredse.objective import RewardConfig, advantages, surrogate_gradients, surrogate_objective
from coredse.policy import (
    context_vector,
    entropy,
    forward_cached,
    head_backward,
    heads_from_raw,
    init_params,
    kl,
    layout_for_space,
    mlp_backward,
    mlp_forward,
    sample,
)
from coredse.problems import accelerator_problem
from coredse.space import decode_range, decode_scaled
from coredse.trainer import PolicyConfig, TrainConfig, entropy_coefficient, train
from heads import dists_from_heads

RESNETISH = Workload(
    "resnetish",
    (
        Layer(K=64, C=64, X=56, Y=56, R=3, S=3),
        Layer(K=128, C=128, X=28, Y=28, R=3, S=3),
        Layer(K=256, C=256, X=14, Y=14, R=3, S=3),
    ),
)

# Single-layer space small enough to enumerate; optimum is compute bound:
# ceil(25*13*11*11*9 / 64) cycles with a latency-only objective.
TOY_WL = Workload("toy", (Layer(K=25, C=13, X=11, Y=11, R=3, S=3),))
TOY_OPT = SpaceOptions(
    n_pe=64,
    l1_bytes=4096,
    l2_bytes=8192,
    tile_dims=("K", "C"),
    tile_step=4,
    vary_level1=False,
    include_order=False,
    vary_parallel_dim=False,
)
TOY_OPTIMUM = 5531.0
TOY_CARDINALITY = 6524
TOY_RW = RewardConfig(weights=(-1.0, 0.0), alpha_c=5e4)

# Tensor relevance restated here so the gates do not trust the module under test.
DIMS = ("S", "R", "K", "C", "X", "Y")
IDX = {d: i for i, d in enumerate(DIMS)}
REL = {
    "weights": ("S", "R", "K", "C"),
    "inputs": ("C", "X", "Y"),
    "outputs": ("K", "X", "Y"),
}


def _report(num: int, name: str, ok: bool, details: str, capsys) -> None:
    with capsys.disabled():
        print(f"\ngate {num} ({name}): {'PASS' if ok else 'FAIL'} ({details})")


def _rel_volume(tensor: str, tiles) -> int:
    v = 1
    for d in REL[tensor]:
        v *= tiles[IDX[d]]
    return v


def _toy_cfg(seed: int, rw: RewardConfig = TOY_RW) -> TrainConfig:
    return TrainConfig(
        batch_size=16,
        max_episodes=300,
        sample_budget=4800,
        learning_rate=3e-3,
        seed=seed,
        reward=rw,
        policy=PolicyConfig(input_width=64, hidden_width=256),
    )


@functools.lru_cache(maxsize=1)
def _toy_core_runs():
    """Ten full runs on the toy space, shared by gates 3 and 5."""
    problem = accelerator_problem(TOY_WL, platform_by_name("cloud"), TOY_OPT)
    return tuple(train(problem, _toy_cfg(s)) for s in range(10))


def _final_best(result) -> float:
    return result.best_feasible.objective if result.best_feasible else math.inf


def _valid_rate(results) -> float:
    flags = np.concatenate([rep.valid for res in results for rep in res.history])
    return flags.sum() / flags.size


# ---------------------------------------------------------------------------
# gate 1: every raw action decodes to a structurally valid design


def test_gate1_decode_feasibility(capsys):
    t0 = time.process_time()
    codesign = CoDesignSpace(RESNETISH)
    n = 100_000
    raws = np.random.default_rng([1]).random((n, len(codesign.space.params)))
    bad = sum(bool(validate_config(codesign.decode(row), RESNETISH)) for row in raws)
    dt = time.process_time() - t0
    ok = bad == 0 and dt < 60.0
    _report(1, "decode-feasibility", ok, f"{n - bad}/{n} structurally valid, {dt:.1f}s", capsys)
    assert ok


# ---------------------------------------------------------------------------
# gate 2: analytic surrogate gradients against central finite differences


def test_gate2_gradient_check(capsys):
    t0 = time.process_time()
    wl = Workload("one", (Layer(K=64, C=64, X=28, Y=28, R=3, S=3),))
    opts = SpaceOptions(tile_dims=("K",), tile_step=3, include_order=False)
    layout = layout_for_space(CoDesignSpace(wl, opts).space)
    s0 = context_vector(16)
    beta_e, h = 0.3, 1e-4

    worst = 0.0
    kept = skipped = 0
    for seed in range(20):
        params = init_params(np.random.default_rng([seed]), 16, 64, layout.out_width)
        dists, cache = forward_cached(params, s0, layout)
        acts = sample(dists, np.random.default_rng([seed, 0]), 3)
        advs = np.random.default_rng([seed, 77]).normal(size=len(acts))

        d_alpha, d_beta, d_logits = surrogate_gradients(dists, acts, advs, beta_e)
        factors = mlp_backward(params, cache, head_backward(dists, d_alpha, d_beta, d_logits))
        analytic = [g for delta, h in factors for g in (np.outer(delta, h), delta)]

        def value_and_masks():
            out, (_, pres) = mlp_forward(params, s0)
            v = surrogate_objective(heads_from_raw(out, layout), acts, advs, beta_e)
            return v, [p > 0 for p in pres]

        for arr, grad in zip(params.arrays(), analytic):
            flat, gf = arr.reshape(-1), grad.reshape(-1)
            for j in range(flat.size):
                keep = flat[j]
                flat[j] = keep + h
                up, m_up = value_and_masks()
                flat[j] = keep - h
                dn, m_dn = value_and_masks()
                flat[j] = keep
                if any(not np.array_equal(a, b) for a, b in zip(m_up, m_dn)):
                    skipped += 1  # ReLU kink between the probes, FD is invalid there
                    continue
                fd = (up - dn) / (2 * h)
                scale = max(abs(gf[j]), abs(fd))
                if scale > 1e-12:
                    worst = max(worst, abs(gf[j] - fd) / scale)
                kept += 1

    dt = time.process_time() - t0
    ok = worst < 1e-3 and kept > 0 and dt < 120.0
    _report(
        2,
        "analytic-vs-fd",
        ok,
        f"max rel err {worst:.2e} over {kept} coords, 20 seeds, {skipped} kink skips, {dt:.0f}s",
        capsys,
    )
    assert ok


# ---------------------------------------------------------------------------
# gate 3: exhaustive oracle on an enumerable space, then learned search vs it


def test_gate3_toy_space_optimum(tmp_path, capsys):
    t0 = time.process_time()
    (tmp_path / "toy.txt").write_text("25 13 11 11 3 3\n")
    config = {
        "workload": "toy.txt",
        "platform": "cloud",
        "method": "core",
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
        "policy": {"input_width": 64, "hidden_width": 256},
        "train": {
            "batch_size": 16,
            "max_episodes": 300,
            "sample_budget": 4800,
            "learning_rate": 0.003,
            "seed": 0,
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "oracle"
    rc = main(["oracle", "--config", str(tmp_path / "config.json"), "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    oracle_ok = (
        rc == 0
        and summary["best_objective"] == TOY_OPTIMUM
        and summary["count"] == TOY_CARDINALITY
    )

    hits = sum(_final_best(r) <= TOY_OPTIMUM * 1.05 for r in _toy_core_runs())
    dt = time.process_time() - t0
    ok = oracle_ok and hits >= 8 and dt < 600.0
    _report(
        3,
        "exhaustive-oracle-match",
        ok,
        f"oracle best {summary['best_objective']} over {summary['count']} designs, "
        f"{hits}/10 seeds within 5%, {dt:.0f}s",
        capsys,
    )
    assert ok


# ---------------------------------------------------------------------------
# gate 4: equal-budget comparison against GA and random search


def test_gate4_baseline_budget_parity(capsys):
    t0 = time.perf_counter()
    options = SpaceOptions(
        n_pe=(2, 128, 2),
        l1_bytes=(256, 1024, 256),
        l2_bytes=(16384, 131072, 16384),
        vary_level1=False,
    )
    rw = RewardConfig(weights=(-1e-6, 0.0), alpha_c=3.0)
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), options)

    def latency(result) -> float:
        # weights are (-1e-6, 0), so the objective is latency in millions
        return result.best_feasible.objective * 1e6 if result.best_feasible else math.inf

    # The compute floor: every layer at ceil(MACs / 128 PEs) cycles. A feasible
    # design there scores reward -(floor * 1e-6), bit for bit, and none scores more.
    floor = statistics.mean(-(-math.prod(layer.dims()) // 128) for layer in RESNETISH.layers)
    floor_reward = floor * -1e-6

    def samples_to_floor(result) -> int | None:
        """The number of designs evaluated when the first one at the floor was."""
        for i, row in enumerate(result.history_rows()):
            if row["valid"] and row["violation_sum"] == 0.0 and row["reward"] >= floor_reward:
                return i + 1
        return None

    def floor_summary(name, counts) -> str:
        hits = [n for n in counts if n is not None]
        span = f" ({min(hits)}-{max(hits)})" if hits else ""
        return f"{name} {len(hits)}/{len(counts)}{span}"

    core, ga, rand = [], [], []
    reached = {"core": [], "ga": [], "random": []}
    for seed in range(10):
        cfg = TrainConfig(
            batch_size=16,
            max_episodes=625,
            sample_budget=10_000,
            learning_rate=3e-3,
            seed=seed,
            reward=rw,
            policy=PolicyConfig(input_width=64, hidden_width=256),
        )
        runs = (
            ("core", core, train(problem, cfg)),
            ("ga", ga, ga_run(problem, rw, pop_size=32, generations=311, seed=seed)),
            ("random", rand, random_search(problem, rw, budget=10_000, seed=seed)),
        )
        for name, bests, result in runs:
            bests.append(latency(result))
            reached[name].append(samples_to_floor(result))

    med = statistics.median
    mc, mg, mr = med(core), med(ga), med(rand)
    dt = time.perf_counter() - t0
    ok = mc <= mg and mc <= mr
    _report(
        4,
        "equal-budget-comparison",
        ok,
        f"median best latency: core {mc:.0f}, ga {mg:.0f}, random {mr:.0f} cycles; "
        f"ratios ga/core {mg / mc:.2f}, random/core {mr / mc:.2f}; "
        f"seeds at the {floor:.0f} floor (samples to it): "
        + ", ".join(floor_summary(name, counts) for name, counts in reached.items())
        + f"; 10 seeds x 10000 samples each, {dt:.0f}s",
        capsys,
    )
    assert ok


# ---------------------------------------------------------------------------
# gate 5: reward shaping and scaled decoding both earn their keep


def test_gate5_ablations(capsys):
    t0 = time.perf_counter()
    full = _toy_core_runs()
    cloud = platform_by_name("cloud")
    shaped_off = accelerator_problem(TOY_WL, cloud, TOY_OPT)
    scaled_off = accelerator_problem(TOY_WL, cloud, TOY_OPT, use_scaling=False)

    no_shaping = tuple(
        train(shaped_off, _toy_cfg(s, replace(TOY_RW, shaping=False))) for s in range(10)
    )
    no_scaling = tuple(train(scaled_off, _toy_cfg(s)) for s in range(10))

    med = statistics.median
    m_full = med(_final_best(r) for r in full)
    m_noshape = med(_final_best(r) for r in no_shaping)
    m_noscale = med(_final_best(r) for r in no_scaling)
    rate_full = _valid_rate(full)
    rate_noscale = _valid_rate(no_scaling)

    dt = time.perf_counter() - t0
    ok = (
        m_noshape >= m_full
        and m_noscale >= m_full
        and rate_full == 1.0
        and rate_noscale < 1.0
    )
    _report(
        5,
        "ablations",
        ok,
        f"median best: full {m_full:.0f}, no-shaping {m_noshape:.0f}, no-scaling {m_noscale:.0f}; "
        f"valid rate full {rate_full:.3f} vs unscaled decode {rate_noscale:.3f}; {dt:.0f}s",
        capsys,
    )
    assert ok


# ---------------------------------------------------------------------------
# gate 6: closed-form pieces match hand algebra at 1e-9


def test_gate6_reward_algebra(capsys):
    tol = 1e-9
    checks = []

    def check(label: str, cond: bool) -> None:
        checks.append((label, bool(cond)))

    check("decode midpoint even grid", decode_range(0.5, 2, 1024, 2) == 514)
    check("decode scaled bound", decode_scaled(0.5, 1, 1, (33, 48)) == 17)

    r = np.array([1.0, 2.5, -3.0])
    shift = 7.25
    check(
        "leave-one-out advantage",
        np.allclose(advantages(r), [1.0 + 0.25, 2.5 + 1.0, -3.0 - 1.75], rtol=0.0, atol=tol),
    )
    check(
        "advantage shift invariance",
        np.allclose(advantages(r + shift), advantages(r), rtol=0.0, atol=tol),
    )
    check("advantages sum to zero", abs(advantages(r).sum()) < tol)
    check("constant batch zero advantage", not advantages(np.full(5, RewardConfig().r_ano)).any())
    check("single design zero advantage", advantages([4.0]).tolist() == [0.0])

    flat_beta = dists_from_heads([("beta", 1.0, 1.0)])
    check("flat beta entropy", abs(entropy(flat_beta)) < tol)
    uniform6 = dists_from_heads([("cat", np.full(6, 1.0 / 6.0))])
    check("uniform choice entropy", abs(entropy(uniform6) - math.log(6.0)) < tol)

    rng = np.random.default_rng([6, 6])
    kl_ok = True
    for _ in range(200):
        def fresh():
            probs = rng.random(6) + 1e-3
            return dists_from_heads(
                [("beta", rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)), ("cat", probs / probs.sum())]
            )

        d_new, d_old = fresh(), fresh()
        if kl(d_new, d_old) < -tol or abs(kl(d_new, d_new)) > tol:
            kl_ok = False
            break
    check("kl nonnegative and zero at self", kl_ok)

    cfg = TrainConfig(max_episodes=50)
    check("entropy schedule start", abs(entropy_coefficient(0, cfg) - 1.0) < tol)
    check("entropy schedule end", abs(entropy_coefficient(49, cfg) - 0.02) < tol)

    failures = [label for label, held in checks if not held]
    ok = not failures
    detail = f"{len(checks)} identities at 1e-9" if ok else "failed: " + ", ".join(failures)
    _report(6, "exact-algebra", ok, detail, capsys)
    assert ok, failures


# ---------------------------------------------------------------------------
# gate 7: one seed, one config, byte-identical logs on every rerun


def test_gate7_run_determinism(tmp_path, capsys):
    (tmp_path / "toy.txt").write_text("25 13 11 11 3 3\n")
    config = {
        "workload": "toy.txt",
        "platform": "cloud",
        "method": "core",
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
        "policy": {"input_width": 16, "hidden_width": 32},
        "train": {
            "batch_size": 16,
            "max_episodes": 25,
            "sample_budget": 400,
            "learning_rate": 0.003,
            "seed": 3,
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    blobs = []
    for run in range(3):
        out = tmp_path / f"run{run}"
        assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        blobs.append(tuple((out / f).read_bytes() for f in ("history.csv", "summary.json", "policy.bin")))

    ok = blobs[0] == blobs[1] == blobs[2]
    size = len(blobs[0][0])
    _report(
        7,
        "determinism",
        ok,
        f"history.csv ({size} bytes), summary.json, policy.bin identical across 3 runs",
        capsys,
    )
    assert ok


# ---------------------------------------------------------------------------
# gate 8: cost-model invariants on randomized mappings


def _walk_fetches(tensor: str, outer, tiles, order) -> int:
    """Walk the loop nest; refetch whenever an index at or outside the
    tensor's innermost relevant loop changes."""
    trips = [-(-outer[IDX[d]] // tiles[IDX[d]]) for d in order]
    pos = max(i for i, d in enumerate(order) if d in REL[tensor])
    fetches, last = 0, None
    for combo in itertools.product(*(range(t) for t in trips)):
        prefix = combo[: pos + 1]
        if prefix != last:
            fetches += 1
            last = prefix
    return fetches


def test_gate8_cost_model_invariants(capsys):
    t0 = time.perf_counter()
    consts = CostConstants()
    bpe = consts.bytes_per_element
    codesign = CoDesignSpace(RESNETISH)
    rng = np.random.default_rng([8])
    n_cfg = 3400  # 3 layers each, >= 10^4 mappings
    raws = rng.random((n_cfg, len(codesign.space.params)))

    failures = []
    mappings = 0
    rule_checks = 0
    for ci, row in enumerate(raws):
        cfg = codesign.decode(row)
        for layer, pair in zip(RESNETISH.layers, cfg.mappings):
            lvl1, lvl2 = pair
            dims = layer.dims()
            macs = math.prod(dims)
            metrics = layer_latency(layer, pair, cfg.n_pe, consts)
            if metrics.latency < -(-macs // cfg.n_pe):
                failures.append(f"latency floor, config {ci}")
            for t in REL:
                if traffic_bytes(t, dims, lvl2.tiles, lvl2.order, bpe) < bpe * _rel_volume(t, dims):
                    failures.append(f"dram traffic below {t} size, config {ci}")
                if traffic_bytes(t, lvl2.tiles, lvl1.tiles, lvl1.order, bpe) < bpe * _rel_volume(t, lvl2.tiles):
                    failures.append(f"l2 traffic below {t} tile size, config {ci}")
            mappings += 1

            # Refetch rule on the first slice of configs: loops inside the
            # innermost relevant loop never change traffic; hoisting an
            # irrelevant outer loop innermost divides traffic by its trips.
            if ci < 200:
                for outer, m in ((dims, lvl2), (lvl2.tiles, lvl1)):
                    for t in REL:
                        base = traffic_bytes(t, outer, m.tiles, m.order, bpe)
                        pos = max(i for i, d in enumerate(m.order) if d in REL[t])
                        inner = list(m.order[pos + 1 :])
                        if len(inner) > 1:
                            rng.shuffle(inner)
                            permuted = m.order[: pos + 1] + tuple(inner)
                            if traffic_bytes(t, outer, m.tiles, permuted, bpe) != base:
                                failures.append(f"inner permutation changed {t} traffic, config {ci}")
                            rule_checks += 1
                        hoistable = [i for i, d in enumerate(m.order[:pos]) if d not in REL[t]]
                        if hoistable:
                            i0 = hoistable[0]
                            d = m.order[i0]
                            hoisted = m.order[:i0] + m.order[i0 + 1 :] + (d,)
                            trips = -(-outer[IDX[d]] // m.tiles[IDX[d]])
                            if traffic_bytes(t, outer, m.tiles, hoisted, bpe) * trips != base:
                                failures.append(f"hoist did not divide {t} traffic, config {ci}")
                            rule_checks += 1

    # Area must be nondecreasing in every argument.
    area_rng = np.random.default_rng([8, 2])
    for _ in range(10_000):
        n_pe = int(area_rng.integers(1, 1025))
        l1 = int(area_rng.integers(1, 1 << 20))
        l2 = int(area_rng.integers(1, 1 << 20))
        base = area_mm2(n_pe, l1, l2, consts)
        bump = int(area_rng.integers(1, 64))
        if (
            area_mm2(n_pe + bump, l1, l2, consts) < base
            or area_mm2(n_pe, l1 + bump, l2, consts) < base
            or area_mm2(n_pe, l1, l2 + bump, consts) < base
        ):
            failures.append("area not monotone")
            break

    # Small spaces walked end to end against the closed-form traffic.
    walk_rng = np.random.default_rng([8, 3])
    walks = 0
    for _ in range(40):
        outer = tuple(int(walk_rng.integers(1, 6)) for _ in range(6))
        tiles = tuple(int(walk_rng.integers(1, o + 1)) for o in outer)
        order = tuple(str(d) for d in walk_rng.permutation(DIMS))
        for t in REL:
            expect = bpe * _rel_volume(t, tiles) * _walk_fetches(t, outer, tiles, order)
            if traffic_bytes(t, outer, tiles, order, bpe) != expect:
                failures.append(f"walk mismatch for {t}")
            walks += 1

    dt = time.perf_counter() - t0
    ok = not failures
    detail = (
        f"{mappings} mappings: traffic and latency floors hold, "
        f"{rule_checks} refetch-rule checks, area monotone on 10000 bumps, "
        f"{walks} nest walks match, {dt:.0f}s"
    )
    if not ok:
        detail = "failed: " + "; ".join(failures[:4])
    _report(8, "cost-model-invariants", ok, detail, capsys)
    assert ok, failures[:10]
