import numpy as np
import pytest

from coredse.cli import CliError, Setup
from coredse.design import (
    DIMS,
    CoDesignSpace,
    DesignConfig,
    Layer,
    LevelMapping,
    SpaceOptions,
    Workload,
    parse_workload,
    validate_config,
)
from coredse.space import ConfigurationError, space_cardinality


def small_workload():
    return Workload("small", (Layer(K=8, C=4, X=4, Y=4, R=3, S=3),))


def default_space(**kw):
    return CoDesignSpace(small_workload(), SpaceOptions(**kw))


def raw_for(codesign, fill, cat=0):
    raw = []
    for p in codesign.space.params:
        kind = type(p.kind).__name__
        raw.append(cat if kind == "Categorical" else fill)
    return np.array(raw, dtype=float)


# ---------------------------------------------------------------------------
# workload parsing


def test_parse_workload(tmp_path):
    f = tmp_path / "wl.txt"
    f.write_text("# layer table\n32 16 16 16 3 3\n\n8 4 4 4 1 1  # matmul-ish\n")
    wl = parse_workload(f)
    assert len(wl.layers) == 2
    assert wl.layers[0] == Layer(K=32, C=16, X=16, Y=16, R=3, S=3)
    assert wl.layers[1].dims() == (1, 1, 8, 4, 4, 4)


def test_parse_workload_reports_line(tmp_path):
    f = tmp_path / "wl.txt"
    f.write_text("8 4 4 4 1 1\n8 4 4\n")
    with pytest.raises(ConfigurationError) as err:
        parse_workload(f)
    assert "2" in str(err.value) and "wl.txt" in str(err.value)


def test_parse_workload_rejects_non_integer(tmp_path):
    f = tmp_path / "wl.txt"
    f.write_text("8 4 4 4 1 x\n")
    with pytest.raises(ConfigurationError):
        parse_workload(f)


def test_layer_kernel_cannot_exceed_input():
    with pytest.raises(ConfigurationError):
        Layer(K=8, C=4, X=2, Y=4, R=3, S=1)


def test_layer_dims_canonical_order():
    assert Layer(K=8, C=4, X=5, Y=6, R=2, S=3).dims() == (3, 2, 8, 4, 5, 6)


# ---------------------------------------------------------------------------
# decode extremes


def test_decode_all_low():
    cd = default_space(
        n_pe=(2, 16, 2), l1_bytes=(64, 256, 64), l2_bytes=(1024, 4096, 1024)
    )
    config = cd.decode(raw_for(cd, 0.0))
    assert config.n_pe == 2
    assert config.l1_bytes == 64
    assert config.l2_bytes == 1024
    lvl1, lvl2 = config.mappings[0]
    assert lvl1.tiles == (1, 1, 1, 1, 1, 1)
    assert lvl2.tiles == (1, 1, 1, 1, 1, 1)
    assert lvl1.parallelism == 1 and lvl2.parallelism == 1
    assert validate_config(config, cd.workload) == []


def test_decode_all_high_saturates_bounds():
    cd = default_space(
        n_pe=(2, 16, 2), l1_bytes=(64, 256, 64), l2_bytes=(1024, 4096, 1024)
    )
    config = cd.decode(raw_for(cd, 0.999999, cat=2))  # parallel dim = K
    assert config.n_pe == 16
    lvl1, lvl2 = config.mappings[0]
    assert lvl2.tiles == (3, 3, 8, 4, 4, 4)  # full layer dims
    assert lvl1.tiles == lvl2.tiles  # level-1 capped by level-2
    assert lvl1.parallel_dim == "K"
    assert lvl1.parallelism == 8  # min(n_pe=16, t2.K=8)
    assert lvl2.parallelism == 8  # t2.K
    assert validate_config(config, cd.workload) == []


def test_decode_order_block():
    cd = default_space()
    raw = []
    for p in cd.space.params:
        kind = type(p.kind).__name__
        if kind == "Categorical":
            raw.append(0)
        elif "order1" in p.name and kind == "SortKey":
            raw.append(0.1 * (p.kind.slot + 1))  # ascending keys -> reversed order
        else:
            raw.append(0.5)
    config = cd.decode(np.array(raw, dtype=float))
    assert config.mappings[0][0].order == ("Y", "X", "C", "K", "R", "S")


def test_feasibility_by_construction_random_actions():
    cd = default_space(
        n_pe=(2, 64, 2), l1_bytes=(64, 1024, 64), l2_bytes=(1024, 65536, 1024)
    )
    rng = np.random.default_rng(7)
    for _ in range(2000):
        raw = []
        for p in cd.space.params:
            if type(p.kind).__name__ == "Categorical":
                raw.append(rng.integers(0, p.kind.k))
            else:
                raw.append(rng.random())
        config = cd.decode(np.array(raw, dtype=float))
        assert validate_config(config, cd.workload) == []


def test_no_scaling_decode_can_violate():
    cd = default_space(n_pe=(2, 64, 2))
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(500):
        raw = []
        for p in cd.space.params:
            if type(p.kind).__name__ == "Categorical":
                raw.append(rng.integers(0, p.kind.k))
            else:
                raw.append(rng.random())
        config = cd.decode(np.array(raw, dtype=float), use_scaling=False)
        if validate_config(config, cd.workload):
            bad += 1
    assert bad > 0  # declared bounds alone do not keep tiles and parallelism consistent


# ---------------------------------------------------------------------------
# options

def test_fixed_hw_leaves_no_parameters():
    cd = default_space(
        n_pe=(8, 8, 2),
        l1_bytes=(256, 256, 1),
        l2_bytes=(4096, 4096, 1),
        include_order=False,
        include_parallel=False,
        vary_level1=False,
        tile_dims=("K",),
    )
    assert [p.name for p in cd.space.params] == ["l0.t2.K"]
    config = cd.decode(np.array([1.0]))
    assert config.n_pe == 8
    lvl1, lvl2 = config.mappings[0]
    assert lvl2.tiles == (3, 3, 8, 4, 4, 4)
    assert lvl1.tiles == (3, 3, 1, 4, 4, 4)  # varying dim drops to 1, excluded stay full
    assert lvl1.parallel_dim == "K" and lvl1.parallelism == 1


def test_fixed_npe_still_caps_parallelism():
    cd = default_space(
        n_pe=(4, 4, 2),
        l1_bytes=(256, 256, 1),
        l2_bytes=(4096, 4096, 1),
        include_order=False,
        vary_parallel_dim=False,
        fixed_parallel_dim="K",
    )
    raw = raw_for(cd, 1.0)
    config = cd.decode(raw)
    lvl1, lvl2 = config.mappings[0]
    assert lvl1.parallelism == 4  # min(n_pe=4, t2.K=8) even with n_pe pinned
    assert lvl2.parallelism == 8
    assert validate_config(config, cd.workload) == []


def test_unknown_space_option_rejected(tmp_path):
    # SpaceOptions are read from a config's "space" section, which refuses unknown keys.
    (tmp_path / "wl.txt").write_text("8 4 4 4 3 3\n")
    config = {"workload": "wl.txt", "space": {"n_pe": 8, "bogus": 1}}
    with pytest.raises(CliError, match="'space'.*bogus"):
        Setup(config, tmp_path, None)


def test_a_step_below_one_is_rejected():
    for kw, match in (
        (dict(tile_step=0), "tile_step"),
        (dict(n_pe=(2, 8, 0)), "n_pe: step"),
        (dict(l1_bytes=(1, 9, -1)), "l1_bytes: step"),
    ):
        with pytest.raises(ConfigurationError, match=match):
            default_space(**kw)


def test_bad_fixed_order_rejected():
    with pytest.raises(ConfigurationError):
        CoDesignSpace(small_workload(), SpaceOptions(fixed_order=("K",) * 6))


def test_fixed_parallelism_outside_its_caps_is_rejected():
    # Below 1, or above n_pe's upper bound or the layer's size along the
    # fixed dim (K=8, C=4), every design breaks a parallelism rule.
    for value, kw in ((0, {}), (9, {}), (5, dict(n_pe=(2, 4, 2))), (5, dict(fixed_parallel_dim="C"))):
        with pytest.raises(ConfigurationError, match="fixed_parallelism"):
            default_space(include_parallel=False, fixed_parallelism=value, **kw)
    for value, kw in ((1, {}), (8, {}), (4, dict(n_pe=(2, 4, 2))), (4, dict(fixed_parallel_dim="C"))):
        cd = default_space(include_parallel=False, fixed_parallelism=value, **kw)
        config = cd.decode(raw_for(cd, 1.0))
        assert config.mappings[0][0].parallelism == value
        assert validate_config(config, cd.workload) == []
    default_space(fixed_parallelism=0)  # unused while parallelism is searched


def test_cardinality_counts_fixed_space():
    cd = default_space(
        n_pe=(8, 8, 2),
        l1_bytes=(256, 256, 1),
        l2_bytes=(4096, 4096, 1),
        include_order=False,
        include_parallel=False,
        vary_level1=False,
        tile_dims=("K",),
    )
    assert space_cardinality(cd.space) == 8
    configs = list(cd.enumerate_configs())
    assert len(configs) == 8
    assert sorted(c.mappings[0][1].tiles[2] for c in configs) == list(range(1, 9))


# ---------------------------------------------------------------------------
# validator


def _valid_config():
    m1 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=2, tiles=(1, 1, 2, 2, 2, 2))
    m2 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=4, tiles=(3, 3, 4, 4, 4, 4))
    return DesignConfig(n_pe=8, l1_bytes=64, l2_bytes=4096, mappings=((m1, m2),))


def test_validator_accepts_consistent_config():
    assert validate_config(_valid_config(), small_workload()) == []


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda c: c.__class__(7, c.l1_bytes, c.l2_bytes, c.mappings), "n_pe"),
        (lambda c: c.__class__(c.n_pe, 0, c.l2_bytes, c.mappings), "l1_bytes"),
        (lambda c: c.__class__(c.n_pe, c.l1_bytes, c.l2_bytes, ()), "mappings"),
    ],
)
def test_validator_flags_bad_hw(mutate, needle):
    bad = validate_config(mutate(_valid_config()), small_workload())
    assert bad and needle in " ".join(bad)


def test_validator_flags_tile_hierarchy():
    m1 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=1, tiles=(1, 1, 5, 2, 2, 2))
    m2 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=1, tiles=(3, 3, 4, 4, 4, 4))
    config = DesignConfig(8, 64, 4096, ((m1, m2),))
    bad = validate_config(config, small_workload())
    assert any("level-1 tile" in b and "level-2" in b for b in bad)


def test_validator_flags_parallelism_over_npe():
    m1 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=8, tiles=(1, 1, 1, 1, 1, 1))
    m2 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=1, tiles=(3, 3, 8, 4, 4, 4))
    config = DesignConfig(4, 64, 4096, ((m1, m2),))
    bad = validate_config(config, small_workload())
    assert any("parallelism" in b for b in bad)


def test_validator_flags_level2_parallelism_over_tile():
    m1 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=1, tiles=(1, 1, 1, 1, 1, 1))
    m2 = LevelMapping(order=DIMS, parallel_dim="C", parallelism=5, tiles=(3, 3, 8, 4, 4, 4))
    config = DesignConfig(8, 64, 4096, ((m1, m2),))
    bad = validate_config(config, small_workload())
    assert any("parallelism" in b for b in bad)


def test_validator_flags_non_permutation_order():
    m1 = LevelMapping(order=("K",) * 6, parallel_dim="K", parallelism=1, tiles=(1, 1, 1, 1, 1, 1))
    m2 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=1, tiles=(3, 3, 8, 4, 4, 4))
    config = DesignConfig(8, 64, 4096, ((m1, m2),))
    bad = validate_config(config, small_workload())
    assert any("order" in b for b in bad)


def test_validator_flags_tile_above_dim():
    m1 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=1, tiles=(1, 1, 1, 1, 1, 1))
    m2 = LevelMapping(order=DIMS, parallel_dim="K", parallelism=1, tiles=(3, 3, 16, 4, 4, 4))
    config = DesignConfig(8, 64, 4096, ((m1, m2),))
    bad = validate_config(config, small_workload())
    assert bad


def test_config_dict_roundtrip():
    config = _valid_config()
    assert DesignConfig.from_dict(config.to_dict()) == config
