import itertools
import math

import numpy as np
import pytest

from coredse.costmodel import (
    CLOUD,
    CostConstants,
    EDGE,
    Platform,
    area_mm2,
    layer_latency,
    make_evaluator,
    platform_by_name,
    simulate,
    tensor_volume,
    traffic_bytes,
)
from coredse.design import (
    DIM_INDEX,
    CoDesignSpace,
    DesignConfig,
    Layer,
    LevelMapping,
    SpaceOptions,
    Workload,
)

# Independent restatement of which loop dimensions index each tensor.
REL_DIMS = {
    "weights": ("K", "C", "R", "S"),
    "inputs": ("C", "X", "Y"),
    "outputs": ("K", "X", "Y"),
}

CONSTS = CostConstants()


def tiles_of(**kw) -> tuple:
    """Canonical (S,R,K,C,X,Y) tile tuple, defaulting to 1."""
    return tuple(kw.get(d, 1) for d in ("S", "R", "K", "C", "X", "Y"))


def fetch_count_oracle(outer, tiles, order) -> dict:
    """Walk the whole loop nest and count distinct loop-prefix states per tensor.

    The buffer refills once per iteration of every loop at or outside a
    tensor's innermost relevant loop, so fetches = |{prefix tuples}|.
    """
    trips = [math.ceil(outer[DIM_INDEX[d]] / tiles[DIM_INDEX[d]]) for d in order]
    counts = {}
    for tensor, rel in REL_DIMS.items():
        pos_tau = max(order.index(d) for d in rel)
        seen = set()
        for point in itertools.product(*(range(t) for t in trips)):
            seen.add(point[: pos_tau + 1])
        counts[tensor] = len(seen)
    return counts


# ---------------------------------------------------------------------------
# volumes and traffic


def test_tensor_volume_hand_cases():
    t = tiles_of(S=2, R=3, K=4, C=3, X=8, Y=8)
    assert tensor_volume("weights", t) == 4 * 3 * 3 * 2
    assert tensor_volume("inputs", t) == 3 * 8 * 8
    assert tensor_volume("outputs", t) == 4 * 8 * 8
    assert tensor_volume("inputs", tiles_of(C=2, X=8, Y=8)) == 128


def test_traffic_hand_case_all_dims_inside():
    outer = tiles_of(S=2, R=3, K=8, C=6, X=16, Y=8)
    tiles = tiles_of(S=2, R=3, K=4, C=3, X=8, Y=8)
    order = ("K", "X", "C", "Y", "R", "S")
    # trips: K=2, X=2, C=2, Y=1, R=1, S=1
    # weights see S at the innermost slot, so every trip multiplies: 8 fetches
    assert traffic_bytes("weights", outer, tiles, order, 2) == 2 * 72 * 8
    # inputs/outputs end at Y (slot 3): K,X,C trips = 8 fetches
    assert traffic_bytes("inputs", outer, tiles, order, 2) == 2 * 192 * 8
    assert traffic_bytes("outputs", outer, tiles, order, 2) == 2 * 256 * 8


def test_traffic_hand_case_inner_reuse():
    outer = tiles_of(S=2, R=3, K=8, C=6, X=16, Y=8)
    tiles = tiles_of(S=2, R=3, K=4, C=3, X=8, Y=8)
    order = ("R", "S", "C", "X", "Y", "K")
    # inputs stop at Y (slot 4): factor = trips(R,S,C,X,Y) = 1*1*2*2*1 = 4
    assert traffic_bytes("inputs", outer, tiles, order, 2) == 2 * 192 * 4
    # K sits innermost, so weights and outputs pay the full 8
    assert traffic_bytes("weights", outer, tiles, order, 2) == 2 * 72 * 8
    assert traffic_bytes("outputs", outer, tiles, order, 2) == 2 * 256 * 8


def test_traffic_single_trip_is_tile_volume():
    outer = tiles_of(S=2, R=3, K=4, C=3, X=8, Y=8)
    order = ("S", "R", "K", "C", "X", "Y")
    for tensor in REL_DIMS:
        got = traffic_bytes(tensor, outer, outer, order, 2)
        assert got == 2 * tensor_volume(tensor, outer)


def test_traffic_matches_loop_walk_oracle():
    rng = np.random.default_rng(77)
    dims = ("S", "R", "K", "C", "X", "Y")
    for _ in range(200):
        outer = tuple(int(rng.integers(1, 7)) for _ in range(6))
        tiles = tuple(int(rng.integers(1, d + 1)) for d in outer)
        order = tuple(rng.permutation(dims))
        counts = fetch_count_oracle(outer, tiles, order)
        for tensor, fetches in counts.items():
            want = 2 * tensor_volume(tensor, tiles) * fetches
            assert traffic_bytes(tensor, outer, tiles, order, 2) == want


def test_traffic_never_below_full_tensor_size():
    rng = np.random.default_rng(78)
    dims = ("S", "R", "K", "C", "X", "Y")
    for _ in range(500):
        outer = tuple(int(rng.integers(1, 40)) for _ in range(6))
        tiles = tuple(int(rng.integers(1, d + 1)) for d in outer)
        order = tuple(rng.permutation(dims))
        for tensor, rel in REL_DIMS.items():
            size = 2 * math.prod(outer[DIM_INDEX[d]] for d in rel)
            assert traffic_bytes(tensor, outer, tiles, order, 2) >= size


# ---------------------------------------------------------------------------
# latency and area


def full_mapping(layer, parallelism=2, order=("S", "R", "K", "C", "X", "Y")):
    tiles = layer.dims()
    lvl = LevelMapping(order=order, parallel_dim="K", parallelism=parallelism, tiles=tiles)
    return (lvl, lvl)


def test_layer_latency_compute_bound_hand_case():
    layer = Layer(K=4, C=3, X=8, Y=8, R=3, S=3)  # 6912 MACs
    m = layer_latency(layer, full_mapping(layer, parallelism=2), n_pe=16, consts=CONSTS)
    assert m.compute == math.ceil(6912 / 4)
    # single-trip traffic at both levels: W 216 B, I 384 B, O 512 B
    assert m.mem == (4 + 6 + 8) + (14 + 24 + 32)
    assert m.latency == m.compute == 1728
    assert m.l1_bytes_needed == 2 * (108 + 192 + 256)
    assert m.l2_bytes_needed == m.l1_bytes_needed


def test_layer_latency_memory_bound_hand_case():
    layer = Layer(K=4, C=3, X=8, Y=8, R=3, S=3)
    m = layer_latency(layer, full_mapping(layer, parallelism=32), n_pe=1024, consts=CONSTS)
    assert m.compute == math.ceil(6912 / 1024)
    assert m.latency == m.mem == 88


def test_parallelism_is_capped_by_pe_count():
    layer = Layer(K=8, C=16, X=32, Y=32, R=3, S=3)  # 1179648 MACs
    m = layer_latency(layer, full_mapping(layer, parallelism=64), n_pe=16, consts=CONSTS)
    assert m.compute == 73728  # ceil(1179648 / 16), not / 4096


def test_area_hand_case():
    assert abs(area_mm2(16, 4096, 262144, CONSTS) - 0.33408) < 1e-12
    assert area_mm2(0, 0, 0, CONSTS) == 0.0


def test_area_monotone_in_every_argument():
    base = area_mm2(64, 1024, 65536, CONSTS)
    assert area_mm2(65, 1024, 65536, CONSTS) > base
    assert area_mm2(64, 1025, 65536, CONSTS) > base
    assert area_mm2(64, 1024, 65537, CONSTS) > base


def test_platform_lookup():
    assert platform_by_name("edge") is EDGE and EDGE.area_budget_mm2 == 0.2
    assert platform_by_name("cloud") is CLOUD and CLOUD.area_budget_mm2 == 7.0
    with pytest.raises(ValueError, match="unknown platform"):
        platform_by_name("mobile")


def test_cost_constants_validation():
    with pytest.raises(ValueError):
        CostConstants(bytes_per_element=0)
    with pytest.raises(ValueError):
        CostConstants(bw_dram_bytes_per_cycle=0)
    for kw in (dict(area_per_pe_mm2=float("nan")), dict(area_per_byte_mm2=float("inf"))):
        with pytest.raises(ValueError, match="area constants must be finite"):
            CostConstants(**kw)


# ---------------------------------------------------------------------------
# simulate


def toy_workload():
    return Workload("toy", (Layer(K=4, C=3, X=8, Y=8, R=3, S=3),))


def toy_config(n_pe=16, l1=2048, l2=2048, parallelism=2):
    layer = toy_workload().layers[0]
    return DesignConfig(
        n_pe=n_pe, l1_bytes=l1, l2_bytes=l2, mappings=(full_mapping(layer, parallelism),)
    )


def test_simulate_reports_metrics_and_feasibility():
    out = simulate(toy_config(), toy_workload(), CLOUD, CONSTS)
    assert out.feasible
    lat, area_um2 = out.metrics
    assert lat == 1728.0
    assert abs(area_um2 - area_mm2(16, 2048, 2048, CONSTS) * 1e6) < 1e-9


def test_simulate_area_residual_is_relative():
    wl = toy_workload()
    cfg = toy_config()
    area = area_mm2(cfg.n_pe, cfg.l1_bytes, cfg.l2_bytes, CONSTS)
    half = Platform("half", area / 2.0)
    out = simulate(cfg, wl, half, CONSTS)
    assert [v.name for v in out.violations] == ["area"]
    assert abs(out.violations[0].residual - 1.0) < 1e-12


def test_simulate_capacity_residuals():
    # footprint is 1112 bytes per level; give l1 half of that
    out = simulate(toy_config(l1=556, l2=4096), toy_workload(), CLOUD, CONSTS)
    names = [v.name for v in out.violations]
    assert names == ["l1_capacity"]
    assert abs(out.violations[0].residual - (1112 - 556) / 556) < 1e-12

    out = simulate(toy_config(l1=2048, l2=1000), toy_workload(), CLOUD, CONSTS)
    assert [v.name for v in out.violations] == ["l2_capacity"]
    assert abs(out.violations[0].residual - (1112 - 1000) / 1000) < 1e-12


def test_simulate_validates_before_costing():
    wl = toy_workload()
    cfg = toy_config()
    broken = DesignConfig(n_pe=cfg.n_pe, l1_bytes=cfg.l1_bytes, l2_bytes=cfg.l2_bytes, mappings=())
    out = simulate(broken, wl, CLOUD, CONSTS)
    assert out.anomalous
    assert "mapping" in out.note


def test_simulate_mean_latency_over_layers():
    big = Layer(K=8, C=3, X=8, Y=8, R=3, S=3)  # 13824 MACs, compute 3456 at speedup 4
    wl = Workload("two", (toy_workload().layers[0], big))
    cfg = DesignConfig(
        n_pe=16,
        l1_bytes=4096,
        l2_bytes=4096,
        mappings=(full_mapping(wl.layers[0]), full_mapping(big)),
    )
    out = simulate(cfg, wl, CLOUD, CONSTS)
    assert out.metrics[0] == (1728 + 3456) / 2.0


def test_make_evaluator_binds_workload():
    wl = toy_workload()
    evaluate = make_evaluator(wl, CLOUD, CONSTS)
    assert evaluate(toy_config()).metrics == simulate(toy_config(), wl, CLOUD, CONSTS).metrics


# ---------------------------------------------------------------------------
# invariants over random decoded designs


def test_invariants_over_random_designs():
    wl = Workload("pair", (Layer(K=16, C=16, X=14, Y=14, R=3, S=3), Layer(K=32, C=16, X=7, Y=7)))
    codesign = CoDesignSpace(wl, SpaceOptions(n_pe=(2, 64, 2), l1_bytes=(64, 8192, 64), l2_bytes=(1024, 65536, 1024)))
    rng = np.random.default_rng(5)
    n = len(codesign.space.params)
    for _ in range(2000):
        cfg = codesign.decode(rng.random(n))
        out = simulate(cfg, wl, EDGE, CONSTS)
        assert not out.anomalous
        lat, area_um2 = out.metrics
        for layer, mapping in zip(wl.layers, cfg.mappings):
            macs = math.prod(layer.dims())
            m = layer_latency(layer, mapping, cfg.n_pe, CONSTS)
            assert m.latency >= math.ceil(macs / cfg.n_pe)
            assert m.latency >= m.compute and m.latency >= m.mem
            # DRAM side must move at least every tensor once
            for tensor, rel in REL_DIMS.items():
                size = 2 * math.prod(layer.dims()[DIM_INDEX[d]] for d in rel)
                dram = traffic_bytes(tensor, layer.dims(), mapping[1].tiles, mapping[1].order, 2)
                assert dram >= size
        assert area_um2 > 0.0 and lat >= 1.0
