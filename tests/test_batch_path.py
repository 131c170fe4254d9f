"""The array path of accelerator problems against the scalar decode and cost model.

`Problem.evaluate_raws` must give designs and outcomes equal (notes
included) to decoding and simulating one design at a time, and every batch
it declines must reach the scalar path through `evaluate_batch`. It must
decline exactly the batches with a design the scalar path finds anomalous,
and on the benchmark's spaces no search's batch. A problem whose decode or
evaluate is replaced loses the array path. Scored and recorded, an outcome
batch must give the rewards, best designs and history rows that scoring
one design at a time gives.
"""

import dataclasses

import numpy as np
import pytest

from coredse.costmodel import CostConstants, platform_by_name
from coredse.design import Layer, SpaceOptions, Workload
from coredse.objective import RewardConfig, raw_objective, scalar_reward
from coredse.problems import accelerator_problem
from coredse.space import Categorical, ConfigurationError
from coredse.baselines import ga_run, random_search
from coredse.trainer import (
    PolicyConfig,
    SearchLog,
    TrainConfig,
    _decode_and_eval_one,
    _shaped_reward,
    evaluate_batch,
    train,
)

RESNETISH = Workload(
    "resnetish",
    (
        Layer(K=64, C=64, X=56, Y=56, R=3, S=3),
        Layer(K=128, C=128, X=28, Y=28, R=3, S=3),
        Layer(K=256, C=256, X=14, Y=14, R=3, S=3),
    ),
)
# The benchmark's ResNet-like space.
NARROW = SpaceOptions(
    n_pe=(2, 128, 2), l1_bytes=(256, 1024, 256), l2_bytes=(16384, 131072, 16384), vary_level1=False
)
TOY_WL = Workload("toy", (Layer(K=25, C=13, X=11, Y=11, R=3, S=3),))
TOY = SpaceOptions(
    n_pe=64,
    l1_bytes=4096,
    l2_bytes=8192,
    tile_dims=("K", "C"),
    tile_step=4,
    vary_level1=False,
    include_order=False,
    vary_parallel_dim=False,
)


def rows_of(outcomes) -> list:
    """An outcome batch as the scalar path's (design, EvalOutcome) pairs."""
    return [(outcomes.design(k), outcomes.outcome(k)) for k in range(len(outcomes))]


def counting_declines(problem):
    """A copy of problem whose array path notes, per batch it sees, whether it declined it."""
    declined = []
    run = problem.array_path.run

    def counting(matrix):
        outcomes = run(matrix)
        declined.append(outcomes is None)
        return outcomes

    return dataclasses.replace(problem, array_path=dataclasses.replace(problem.array_path, run=counting)), declined


def matches_scalar(problem, raws, batch=32) -> tuple[int, int]:
    """Assert batch == scalar over raws, in batches.

    Returns the batches the array path declined and the anomalous outcomes.
    """
    counted, declined = counting_declines(problem)
    anomalous = 0
    for i in range(0, len(raws), batch):
        chunk = raws[i : i + batch]
        want = [_decode_and_eval_one(problem, r) for r in chunk]
        assert rows_of(evaluate_batch(counted, chunk)) == want, f"rows {i}..{i + len(chunk) - 1}"
        anomalous += sum(outcome.anomalous for _, outcome in want)
    assert len(declined) == -(-len(raws) // batch)  # the array path saw every batch
    return sum(declined), anomalous


def test_gate1_raws_match_scalar():
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"))
    raws = np.random.default_rng([1]).random((100_000, problem.n_raw))
    assert matches_scalar(problem, raws) == (0, 0)


def test_gate8_configs_match_scalar():
    problem = accelerator_problem(RESNETISH, platform_by_name("cloud"))
    raws = np.random.default_rng([8]).random((3400, problem.n_raw))
    assert matches_scalar(problem, raws) == (0, 0)


@pytest.mark.parametrize(
    "workload,options",
    [
        (RESNETISH, NARROW),
        (TOY_WL, TOY),
        (RESNETISH, SpaceOptions(include_order=False, vary_parallel_dim=False)),
    ],
)
def test_fixed_and_narrow_spaces_match_scalar(workload, options):
    problem = accelerator_problem(workload, platform_by_name("edge"), options)
    raws = np.random.default_rng([2]).random((2000, problem.n_raw))
    assert matches_scalar(problem, raws) == (0, 0)


@pytest.mark.parametrize(
    "options,use_scaling",
    [
        (NARROW, False),
        (SpaceOptions(), False),
        (SpaceOptions(n_pe=(0, 64, 2)), True),  # n_pe 0: par1's bound clamps, and the design is invalid
        (SpaceOptions(n_pe=(1, 63, 2)), True),  # odd PE counts
        (SpaceOptions(include_parallel=False, fixed_parallelism=4), True),  # over n_pe 2, or a small tile
    ],
)
def test_structurally_invalid_rows_match_scalar(options, use_scaling):
    """A batch of one design that breaks a rule is declined, exactly when the scalar evaluate names a rule."""
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), options, use_scaling=use_scaling)
    raws = np.random.default_rng([3]).random((1000, problem.n_raw))
    declined, anomalous = matches_scalar(problem, raws, batch=1)
    assert declined == anomalous > 0


@pytest.mark.parametrize(
    "options",
    [
        # Whole-dim tiles and a fixed parallel dim: only level-1 parallelism <= n_pe can break.
        SpaceOptions(n_pe=(2, 8, 2), tile_dims=(), vary_parallel_dim=False, include_order=False),
        # One tiled dim and fixed parallelism 1: only level-1 tile <= level-2 tile can break.
        SpaceOptions(n_pe=(2, 8, 2), tile_dims=("K",), include_parallel=False, include_order=False),
    ],
)
def test_a_single_broken_rule_matches_scalar(options):
    problem = accelerator_problem(TOY_WL, platform_by_name("cloud"), options, use_scaling=False)
    raws = np.random.default_rng([7]).random((1000, problem.n_raw))
    declined, anomalous = matches_scalar(problem, raws, batch=1)
    assert declined == anomalous and 0 < anomalous < len(raws)


def test_non_finite_and_out_of_range_raws_match_scalar():
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), NARROW)
    rng = np.random.default_rng([4])
    raws = rng.random((1600, problem.n_raw))
    cats = [i for i, p in enumerate(problem.space.params) if isinstance(p.kind, Categorical)]
    raws[:, cats] = np.floor(raws[:, cats] * 6)
    bad = (np.nan, np.inf, -np.inf, 1e308, -1e308)
    for k, row in enumerate(range(0, 1600, 4)):
        raws[row, rng.integers(problem.n_raw)] = bad[k % len(bad)]
    for k, row in enumerate(range(1, 1600, 8)):
        raws[row, cats[k % len(cats)]] = (6.0, 7.5, -1.0, -0.5, 5.999)[k % 5]
    declined, anomalous = matches_scalar(problem, raws, batch=1)
    assert 0 < declined == anomalous


def test_rows_that_are_not_number_matrices_take_the_scalar_path():
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), SpaceOptions(n_pe=(0, 64, 2)))
    rows = np.random.default_rng([6]).random((4, problem.n_raw)).tolist()
    rows[1][0] = None  # float(None) raises where a NaN could decode
    for raws in (rows, [rows[0], rows[2][:-1]], [rows[0], ["0.5"] * problem.n_raw]):
        assert rows_of(evaluate_batch(problem, raws)) == [_decode_and_eval_one(problem, r) for r in raws]


def test_int64_guard_leaves_large_layers_to_the_scalar_path():
    big = Workload("big", (Layer(K=2**16, C=2**16, X=2**12, Y=2**12, R=3, S=3),))
    problem = accelerator_problem(big, platform_by_name("cloud"))
    assert problem.evaluate_raws is None
    raws = np.random.default_rng([5]).random((64, problem.n_raw))
    assert rows_of(evaluate_batch(problem, raws)) == [_decode_and_eval_one(problem, r) for r in raws]
    # Float bytes per element, or a bound past 2**53, leave it scalar too.
    edge = platform_by_name("edge")
    float_bytes = CostConstants(bytes_per_element=2.0)
    assert accelerator_problem(RESNETISH, edge, consts=float_bytes).evaluate_raws is None
    assert accelerator_problem(RESNETISH, edge, SpaceOptions(l2_bytes=(1, 2**60, 1))).evaluate_raws is None
    assert accelerator_problem(RESNETISH, edge).evaluate_raws is not None


def test_a_fixed_parallel_dim_that_is_no_dim_is_refused_at_construction():
    # Unchecked, "k" raised a bare KeyError where the dim is fixed but
    # parallelism varies, and "Z" made every design anomalous.
    for bad in ("Z", "k"):
        for options in (
            SpaceOptions(include_parallel=False, fixed_parallel_dim=bad),
            SpaceOptions(vary_parallel_dim=False, fixed_parallel_dim=bad),
        ):
            with pytest.raises(ConfigurationError, match="fixed_parallel_dim"):
                accelerator_problem(RESNETISH, platform_by_name("edge"), options)


@pytest.mark.parametrize("field", ["decode", "evaluate"])
def test_a_replaced_decode_or_evaluate_sees_every_design(field):
    """A wrapped callable must not be skipped by the array path built for the original."""
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), NARROW)
    original = getattr(problem, field)
    calls = []

    def wrapped(x):
        calls.append(x)
        return original(x)

    replaced = dataclasses.replace(problem, **{field: wrapped})
    assert replaced.evaluate_raws is None
    raws = np.random.default_rng([9]).random((64, problem.n_raw))
    for i in range(0, 64, 32):
        chunk = raws[i : i + 32]
        assert rows_of(evaluate_batch(replaced, chunk)) == rows_of(evaluate_batch(problem, chunk))
    assert len(calls) == 64


@pytest.mark.parametrize(
    "workload,platform,options,weights",
    [(RESNETISH, "edge", NARROW, (-1e-6, 0.0)), (TOY_WL, "cloud", TOY, (-1.0, 0.0))],
    ids=["resnet-like", "cli-default-width"],
)
def test_searches_on_the_benchmark_spaces_decline_no_batch(workload, platform, options, weights):
    """The scaling decode makes every design valid, so the array path prices each batch whole."""
    problem, declined = counting_declines(accelerator_problem(workload, platform_by_name(platform), options))
    cfg = RewardConfig(weights=weights, alpha_c=5e4)
    tcfg = TrainConfig(
        batch_size=16,
        max_episodes=128,
        sample_budget=2048,
        learning_rate=3e-3,
        reward=cfg,
        policy=PolicyConfig(input_width=64, hidden_width=256),
    )
    for result in (
        train(problem, tcfg),
        ga_run(problem, cfg, pop_size=32, generations=2048 // 32 - 1),
        random_search(problem, cfg, budget=2048),
    ):
        assert result.samples_used == 2048
    assert len(declined) == 128 + 64 + 64 and not any(declined)


# ---------------------------------------------------------------------------
# scored and recorded batches against one design at a time


def reference_rewards(outcomes, cfg) -> list[float]:
    """The trainer's shaped rewards, computed from one EvalOutcome at a time."""
    valid = [o for o in outcomes if not o.anomalous]
    if cfg.shaping:
        scored = [-raw_objective(o, cfg.weights) - cfg.alpha_c * o.violation_sum() for o in valid]
        floor = min(scored, default=cfg.r_ano)
    else:
        scored = [cfg.no_shaping_penalty if o.violations else -raw_objective(o, cfg.weights) for o in valid]
        floor = cfg.no_shaping_penalty
    scored = iter(scored)
    return [floor if o.anomalous else next(scored) for o in outcomes]


def reference_log(batches, cfg):
    """Best designs and history rows recorded one design at a time, as
    `SearchLog.record` did before outcome batches."""
    best = feasible = None
    rows = []
    for ep, (raws, pairs) in enumerate(batches):
        rewards = reference_rewards([o for _, o in pairs], cfg)
        for k, (design, o) in enumerate(pairs):
            if o.anomalous:
                continue
            obj = raw_objective(o, cfg.weights)
            if best is None or rewards[k] > best[0]:
                best = (rewards[k], obj, design, raws[k].tobytes(), ep)
            if o.feasible and (feasible is None or obj < feasible[1]):
                feasible = (rewards[k], obj, design, raws[k].tobytes(), ep)
        for k, (_, o) in enumerate(pairs):
            best_reward = best[0] if best else float("nan")
            rows.append(repr((ep, k, rewards[k], int(not o.anomalous), o.violation_sum(), best_reward)))
    return best, feasible, rows


def recorded(best):
    return None if best is None else (best.reward, best.objective, best.design, best.raw.tobytes(), best.episode)


def score_both_ways(problem, raws, cfg, batch=32):
    """Assert the outcome batch's rewards, best designs and history rows equal
    those scored one design at a time; return the batches' anomalous count."""
    log, batches, anomalous = SearchLog(), [], 0
    for ep, i in enumerate(range(0, len(raws), batch)):
        chunk = raws[i : i + batch]
        pairs = [_decode_and_eval_one(problem, r) for r in chunk]
        outcomes = evaluate_batch(problem, chunk)
        rewards = _shaped_reward(outcomes, cfg)
        assert rewards.tobytes() == np.array(reference_rewards([o for _, o in pairs], cfg)).tobytes()
        fitness = np.where(outcomes.anomalous, cfg.r_ano, scalar_reward(outcomes, cfg))
        if cfg.shaping:  # the baselines' fitness is the shaped reward on valid designs
            valid = ~outcomes.anomalous
            assert fitness[valid].tobytes() == rewards[valid].tobytes()
        log.record(ep, chunk, outcomes, rewards, cfg.weights, np.nan)
        batches.append((chunk, pairs))
        anomalous += int(outcomes.anomalous.sum())
    best, feasible, rows = reference_log(batches, cfg)
    assert recorded(log.best) == best and recorded(log.best_feasible) == feasible
    got = [repr(tuple(r.values())) for r in log.history_rows()]
    assert got == rows
    return anomalous


SCORED = RewardConfig(weights=(-1e-6, -1e-9), alpha_c=3.0)


@pytest.mark.parametrize("shaping", [True, False])
def test_scaled_decode_scores_as_one_design_at_a_time(shaping):
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), NARROW)
    raws = np.random.default_rng([10]).random((512, problem.n_raw))
    raws[5::37, 3] = np.nan  # decode raises: the array path declines these rows' batches
    cfg = dataclasses.replace(SCORED, shaping=shaping)
    assert score_both_ways(problem, raws, cfg) == len(range(5, 512, 37))


@pytest.mark.parametrize("shaping", [True, False])
def test_unscaled_decode_scores_as_one_design_at_a_time(shaping):
    # gate 5's no-scaling space: structurally invalid designs come back anomalous
    problem = accelerator_problem(TOY_WL, platform_by_name("cloud"), TOY, use_scaling=False)
    raws = np.random.default_rng([11]).random((512, problem.n_raw))
    cfg = RewardConfig(weights=(-1.0, -1e-3), alpha_c=5e4, shaping=shaping)
    assert 0 < score_both_ways(problem, raws, cfg) < len(raws)


def test_a_problem_without_an_array_path_scores_as_one_design_at_a_time():
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), NARROW)
    replaced = dataclasses.replace(problem, decode=lambda raw: problem.decode(raw))
    assert replaced.evaluate_raws is None
    raws = np.random.default_rng([12]).random((256, problem.n_raw))
    score_both_ways(replaced, raws, SCORED)
