import math

import numpy as np
import pytest

from coredse.space import (
    Categorical,
    ConfigurationError,
    CycleError,
    ParameterSpace,
    ParamSpec,
    Ranged,
    Select,
    ShapeError,
    SortKey,
    decode_order,
    decode_range,
    decode_scaled,
    decode_values,
    enumerate_values,
    scaling_graph,
    space_cardinality,
    topological_order,
)


# ---------------------------------------------------------------------------
# decode_range


def test_decode_range_endpoints():
    assert decode_range(0.0, 1, 8) == 1
    assert decode_range(1.0, 1, 8) == 8
    assert decode_range(0.0, 2, 16, 2) == 2
    assert decode_range(1.0, 2, 16, 2) == 16


def test_decode_range_buckets():
    # count = 8 values on {2,4,...,16}: bucket width 1/8
    assert decode_range(0.124, 2, 16, 2) == 2
    assert decode_range(0.125, 2, 16, 2) == 4
    assert decode_range(0.874, 2, 16, 2) == 14
    assert decode_range(0.875, 2, 16, 2) == 16


def test_decode_range_midpoint_large_grid():
    # 512 even values in [2, 1024]; b = 0.5 lands exactly on index 256.
    assert decode_range(0.5, 2, 1024, 2) == 514


def test_decode_range_degenerate_single_value():
    assert decode_range(0.0, 5, 5) == 5
    assert decode_range(0.999, 5, 5) == 5


def test_decode_range_covers_every_value_uniformly():
    values = [decode_range((i + 0.5) / 7, 3, 15, 2) for i in range(7)]
    assert values == [3, 5, 7, 9, 11, 13, 15]


def test_decode_range_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        decode_range(0.5, 5, 3)
    with pytest.raises(ConfigurationError):
        decode_range(0.5, 1, 8, 0)
    with pytest.raises(ConfigurationError):
        decode_range(float("nan"), 1, 8)


# ---------------------------------------------------------------------------
# decode_scaled


def test_decode_scaled_is_range_with_min_source():
    rng = np.random.default_rng(0)
    for _ in range(200):
        b = rng.random()
        srcs = tuple(int(v) for v in rng.integers(1, 40, size=3))
        assert decode_scaled(b, 1, 1, srcs) == decode_range(b, 1, min(srcs), 1)


def test_decode_scaled_example():
    # min(33, 48) = 33 values; floor(33 * 0.5) = 16 -> 1 + 16 = 17
    assert decode_scaled(0.5, 1, 1, (33, 48)) == 17


def test_decode_scaled_degenerate_clamps_to_low():
    assert decode_scaled(0.5, 4, 1, (3,)) == 4


def test_decode_scaled_needs_sources():
    with pytest.raises(ConfigurationError):
        decode_scaled(0.5, 1, 1, ())


# ---------------------------------------------------------------------------
# decode_order


def test_decode_order_descending_keys():
    assert decode_order([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]) == (5, 4, 3, 2, 1, 0)


def test_decode_order_ties_break_by_slot():
    assert decode_order([0.5, 0.5, 0.5]) == (0, 1, 2)
    assert decode_order([0.5, 0.7, 0.5]) == (1, 0, 2)


def test_decode_order_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        decode_order([0.1, float("inf"), 0.3])


# ---------------------------------------------------------------------------
# space construction and validation


def test_duplicate_names_rejected():
    with pytest.raises(ConfigurationError):
        ParameterSpace((ParamSpec("x", Ranged(1, 4)), ParamSpec("x", Ranged(1, 2))))


def test_step_must_divide_span():
    with pytest.raises(ConfigurationError):
        ParameterSpace((ParamSpec("x", Ranged(1, 8, 3)),))


def test_categorical_needs_two_choices():
    with pytest.raises(ConfigurationError):
        ParameterSpace((ParamSpec("x", Categorical(1)),))


def test_unknown_scaling_source_rejected():
    with pytest.raises(ConfigurationError):
        ParameterSpace((ParamSpec("x", Ranged(1, 4), scaled_by=("ghost",)),))


def test_self_scaling_rejected():
    with pytest.raises(ConfigurationError):
        ParameterSpace((ParamSpec("x", Ranged(1, 4), scaled_by=("x",)),))


def test_chooser_arity_must_match_candidates():
    params = (
        ParamSpec("which", Categorical(3)),
        ParamSpec("a", Ranged(1, 9)),
        ParamSpec("x", Ranged(1, 9), scaled_by=(Select("which", ("a", 4)),)),
    )
    with pytest.raises(ConfigurationError):
        ParameterSpace(params)


def test_sort_key_slots_must_be_dense():
    params = (
        ParamSpec("k0", SortKey("o", 0)),
        ParamSpec("k2", SortKey("o", 2)),
    )
    with pytest.raises(ConfigurationError):
        ParameterSpace(params)


def test_sort_keys_cannot_be_scaled():
    params = (
        ParamSpec("a", Ranged(1, 4)),
        ParamSpec("k", SortKey("o", 0), scaled_by=("a",)),
    )
    with pytest.raises(ConfigurationError):
        ParameterSpace(params)


# ---------------------------------------------------------------------------
# scaling graph and topological order


def test_topological_order_follows_dependencies():
    space = ParameterSpace(
        (
            ParamSpec("a", Ranged(1, 4), scaled_by=("b",)),
            ParamSpec("b", Ranged(1, 4), scaled_by=("c",)),
            ParamSpec("c", Ranged(1, 4)),
        )
    )
    assert space.order == ("c", "b", "a")


def test_topological_order_ties_keep_declaration_order():
    space = ParameterSpace(
        (
            ParamSpec("z", Ranged(1, 2)),
            ParamSpec("m", Ranged(1, 2)),
            ParamSpec("a", Ranged(1, 2)),
        )
    )
    assert space.order == ("z", "m", "a")


def test_select_contributes_chooser_and_candidate_edges():
    space = ParameterSpace(
        (
            ParamSpec("which", Categorical(2)),
            ParamSpec("a", Ranged(1, 9)),
            ParamSpec("x", Ranged(1, 9), scaled_by=(Select("which", ("a", 7)),)),
        )
    )
    g = scaling_graph(space)
    assert ("which", "x") in g.edges
    assert ("a", "x") in g.edges
    assert space.order.index("which") < space.order.index("x")
    assert space.order.index("a") < space.order.index("x")


def test_cycle_detection_names_the_cycle():
    params = (
        ParamSpec("a", Ranged(1, 4), scaled_by=("b",)),
        ParamSpec("b", Ranged(1, 4), scaled_by=("a",)),
    )
    with pytest.raises(CycleError) as err:
        ParameterSpace(params)
    assert "a" in str(err.value) and "b" in str(err.value)


# ---------------------------------------------------------------------------
# whole-space decode


def _mixed_space():
    return ParameterSpace(
        (
            ParamSpec("n", Ranged(2, 8, 2)),
            ParamSpec("which", Categorical(2)),
            ParamSpec("t", Ranged(1, 16)),
            ParamSpec("p", Ranged(1, 16), scaled_by=(Select("which", ("n", "t")),)),
            ParamSpec("k0", SortKey("ord", 0)),
            ParamSpec("k1", SortKey("ord", 1)),
            ParamSpec("k2", SortKey("ord", 2)),
        )
    )


def test_decode_values_resolves_select():
    space = _mixed_space()
    # which = 0 picks n as the bound: n decodes to 8 -> p in 1..8, b=1.0 -> 8
    v = decode_values(space, [0.99, 0, 0.2, 1.0, 0.3, 0.1, 0.2])
    assert v["n"] == 8
    assert v["t"] == 4
    assert v["p"] == 8
    assert v["ord"] == (0, 2, 1)
    # which = 1 picks t instead
    v = decode_values(space, [0.99, 1, 0.2, 1.0, 0.3, 0.1, 0.2])
    assert v["p"] == 4


def test_decode_values_literal_int_source():
    space = ParameterSpace(
        (ParamSpec("p", Ranged(1, 100), scaled_by=(5,)),)
    )
    assert decode_values(space, [1.0])["p"] == 5


def test_decode_values_without_scaling_uses_declared_bounds():
    space = _mixed_space()
    v = decode_values(space, [0.0, 0, 0.0, 1.0, 0.5, 0.5, 0.5], use_scaling=False)
    assert v["p"] == 16  # declared up, not min(n, t) = 2


def test_decode_values_wrong_length():
    with pytest.raises(ShapeError):
        decode_values(_mixed_space(), [0.5, 0])


def test_decode_values_category_out_of_range():
    space = _mixed_space()
    with pytest.raises(ShapeError):
        decode_values(space, [0.5, 2, 0.5, 0.5, 0.1, 0.2, 0.3])


def test_sort_keys_do_not_leak_into_values():
    v = decode_values(_mixed_space(), [0.5, 0, 0.5, 0.5, 0.1, 0.2, 0.3])
    assert "k0" not in v and "ord" in v


# ---------------------------------------------------------------------------
# cardinality and enumeration


def test_cardinality_simple_product():
    space = ParameterSpace(
        (
            ParamSpec("x", Ranged(2, 8, 2)),  # 4 values
            ParamSpec("k0", SortKey("o", 0)),
            ParamSpec("k1", SortKey("o", 1)),
            ParamSpec("k2", SortKey("o", 2)),  # 3! = 6 orders
            ParamSpec("y", Ranged(5, 5)),  # 1 value
        )
    )
    assert space_cardinality(space) == 4 * 6 * 1


def test_cardinality_scaled_sum():
    space = ParameterSpace(
        (
            ParamSpec("x", Ranged(1, 3)),
            ParamSpec("y", Ranged(1, 6), scaled_by=("x",)),
        )
    )
    # sum over x of |1..x| = 1 + 2 + 3
    assert space_cardinality(space) == 6


def test_cardinality_degenerate_bound_counts_one():
    space = ParameterSpace(
        (
            ParamSpec("x", Ranged(1, 3)),
            ParamSpec("y", Ranged(4, 6), scaled_by=("x",)),
        )
    )
    # every x clamps y to its low bound: one value each
    assert space_cardinality(space) == 3


def test_cardinality_limit_marker():
    space = ParameterSpace(
        (
            ParamSpec("x", Ranged(1, 3)),
            ParamSpec("y", Ranged(1, 6), scaled_by=("x",)),
        )
    )
    assert space_cardinality(space, limit=5) is None
    assert space_cardinality(space, limit=6) == 6


def test_enumeration_matches_cardinality_and_is_unique():
    space = _mixed_space()
    seen = set()
    for values in enumerate_values(space):
        key = tuple(sorted((k, tuple(v) if isinstance(v, tuple) else v) for k, v in values.items()))
        assert key not in seen
        seen.add(key)
    assert len(seen) == space_cardinality(space)


def test_enumerated_values_decode_consistently():
    space = ParameterSpace(
        (
            ParamSpec("x", Ranged(1, 4)),
            ParamSpec("y", Ranged(1, 8), scaled_by=("x",)),
        )
    )
    combos = {(v["x"], v["y"]) for v in enumerate_values(space)}
    assert combos == {(x, y) for x in range(1, 5) for y in range(1, x + 1)}
    # decode can reproduce each combo through some raw vector
    hit = set()
    for bx in np.linspace(0.001, 0.999, 40):
        for by in np.linspace(0.001, 0.999, 40):
            v = decode_values(space, [bx, by])
            hit.add((v["x"], v["y"]))
    assert hit == combos
