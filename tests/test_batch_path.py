"""The array path of accelerator problems against the scalar decode and cost model.

`Problem.evaluate_raws` must give designs and outcomes equal (notes
included) to decoding and simulating one design at a time, and every row
it refuses must reach the scalar path through `evaluate_batch`. A problem
whose decode or evaluate is replaced loses the array path.
"""

import dataclasses

import numpy as np
import pytest

from coredse.costmodel import CostConstants, platform_by_name
from coredse.design import Layer, SpaceOptions, Workload
from coredse.problems import accelerator_problem
from coredse.space import Categorical, ConfigurationError
from coredse.trainer import _decode_and_eval_one, evaluate_batch

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


def matches_scalar(problem, raws, batch=32) -> tuple[int, int]:
    """Assert batch == scalar over raws, in batches.

    Returns the rows the array path refused and the anomalous outcomes.
    """
    refused = []
    run = problem.array_path.run

    def counting(matrix):
        out = run(matrix)
        refused.append(sum(r is None for r in out))
        return out

    counted = dataclasses.replace(problem, array_path=dataclasses.replace(problem.array_path, run=counting))
    anomalous = 0
    for i in range(0, len(raws), batch):
        chunk = raws[i : i + batch]
        want = [_decode_and_eval_one(problem, r) for r in chunk]
        assert evaluate_batch(counted, chunk) == want, f"rows {i}..{i + len(chunk) - 1}"
        anomalous += sum(outcome.anomalous for _, outcome in want)
    assert len(refused) == -(-len(raws) // batch)  # the array path saw every batch
    return sum(refused), anomalous


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
    """Decoded designs that break a rule are not refused: the scalar evaluate names the rule."""
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), options, use_scaling=use_scaling)
    raws = np.random.default_rng([3]).random((1000, problem.n_raw))
    refused, anomalous = matches_scalar(problem, raws)
    assert refused == 0 and anomalous > 0


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
    refused, anomalous = matches_scalar(problem, raws)
    assert refused == 0 and 0 < anomalous < len(raws)


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
    refused, anomalous = matches_scalar(problem, raws)
    assert 0 < refused == anomalous


def test_rows_that_are_not_number_matrices_take_the_scalar_path():
    problem = accelerator_problem(RESNETISH, platform_by_name("edge"), SpaceOptions(n_pe=(0, 64, 2)))
    rows = np.random.default_rng([6]).random((4, problem.n_raw)).tolist()
    rows[1][0] = None  # float(None) raises where a NaN could decode
    for raws in (rows, [rows[0], rows[2][:-1]], [rows[0], ["0.5"] * problem.n_raw]):
        assert evaluate_batch(problem, raws) == [_decode_and_eval_one(problem, r) for r in raws]


def test_int64_guard_leaves_large_layers_to_the_scalar_path():
    big = Workload("big", (Layer(K=2**16, C=2**16, X=2**12, Y=2**12, R=3, S=3),))
    problem = accelerator_problem(big, platform_by_name("cloud"))
    assert problem.evaluate_raws is None
    raws = np.random.default_rng([5]).random((64, problem.n_raw))
    assert evaluate_batch(problem, raws) == [_decode_and_eval_one(problem, r) for r in raws]
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
        assert evaluate_batch(replaced, raws[i : i + 32]) == evaluate_batch(problem, raws[i : i + 32])
    assert len(calls) == 64
