"""Analytical latency/area model for two-level spatial accelerators.

Latency per layer is max(compute, memory): compute is the MAC count
divided by the effective speedup min(P1 * P2, n_pe); memory is the cycle
cost of moving each tensor's traffic across DRAM->L2 and L2->L1 at the
respective bandwidths.

Traffic follows the classic tiled-reuse rule: a tensor's tile is
refetched once per iteration of every loop at or outside its innermost
relevant loop, so

    traffic(tau) = bytes_per_element * volume(tau, tiles)
                   * prod{ trips(d) : position(d) <= pos(tau) }

with trips(d) = ceil(outer_d / tile_d) and pos(tau) the innermost
position among tau's index dimensions (weights: K,C,R,S; inputs: C,X,Y;
outputs: K,X,Y -- output spatial sizes are approximated by input tiles).

`simulate` prices one design and checks its structure first;
`make_batch_evaluator` prices a whole `DesignBatch` of designs already
checked valid (`design.valid_rows`) in int64 arrays, and `simulate` is its
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import DIM_INDEX, DesignBatch, DesignConfig, Layer, Workload, validate_config
from .objective import EvalOutcome, OutcomeBatch, Violation
from .space import EXACT_INT

__all__ = [
    "TENSORS",
    "CostConstants",
    "Platform",
    "EDGE",
    "CLOUD",
    "platform_by_name",
    "LayerMetrics",
    "tensor_volume",
    "traffic_bytes",
    "layer_latency",
    "area_mm2",
    "simulate",
    "make_evaluator",
    "make_batch_evaluator",
]

TENSORS = ("weights", "inputs", "outputs")
_CONSTRAINTS = ("area", "l1_capacity", "l2_capacity")  # simulate()'s violation names, in its order

# Index dimensions per tensor, as positions into the canonical (S,R,K,C,X,Y) tuple.
_REL = {
    "weights": (DIM_INDEX["K"], DIM_INDEX["C"], DIM_INDEX["R"], DIM_INDEX["S"]),
    "inputs": (DIM_INDEX["C"], DIM_INDEX["X"], DIM_INDEX["Y"]),
    "outputs": (DIM_INDEX["K"], DIM_INDEX["X"], DIM_INDEX["Y"]),
}
_REL_MASK = np.array([[d in _REL[t] for d in range(6)] for t in TENSORS])  # (tensor, dim)


@dataclass(frozen=True)
class CostConstants:
    bytes_per_element: int = 2
    bw_l2_bytes_per_cycle: int = 64
    bw_dram_bytes_per_cycle: int = 16
    area_per_pe_mm2: float = 4e-4
    area_per_byte_mm2: float = 1e-6

    def __post_init__(self):
        if self.bytes_per_element < 1 or self.bw_l2_bytes_per_cycle < 1 or self.bw_dram_bytes_per_cycle < 1:
            raise ValueError("cost constants must be positive")


@dataclass(frozen=True)
class Platform:
    name: str
    area_budget_mm2: float


EDGE = Platform("edge", 0.2)
CLOUD = Platform("cloud", 7.0)


def platform_by_name(name: str) -> Platform:
    try:
        return {"edge": EDGE, "cloud": CLOUD}[name]
    except KeyError:
        raise ValueError(f"unknown platform {name!r} (expected edge or cloud)") from None


@dataclass(frozen=True)
class LayerMetrics:
    latency: int
    compute: int
    mem: int
    l1_bytes_needed: int
    l2_bytes_needed: int


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def tensor_volume(tensor: str, tiles) -> int:
    """Element count of one tensor tile, canonical (S,R,K,C,X,Y) tile tuple."""
    vol = 1
    for d in _REL[tensor]:
        vol *= tiles[d]
    return vol


def traffic_bytes(tensor: str, outer, tiles, order, bytes_per_element: int) -> int:
    """Bytes moved for one tensor across one level; ``order`` is outermost-first dim names."""
    pos_of = {DIM_INDEX[d]: i for i, d in enumerate(order)}
    pos_tau = max(pos_of[d] for d in _REL[tensor])
    factor = 1
    for place, d in enumerate(order):
        if place <= pos_tau:
            di = DIM_INDEX[d]
            factor *= _ceil_div(outer[di], tiles[di])
    return bytes_per_element * tensor_volume(tensor, tiles) * factor


def _footprint_bytes(tiles, bpe: int) -> int:
    return bpe * sum(tensor_volume(t, tiles) for t in TENSORS)


def layer_latency(layer: Layer, mapping, n_pe: int, consts: CostConstants) -> LayerMetrics:
    lvl1, lvl2 = mapping
    dims = layer.dims()
    bpe = consts.bytes_per_element

    macs = 1
    for d in dims:
        macs *= d
    speedup = min(lvl1.parallelism * lvl2.parallelism, n_pe)
    compute = _ceil_div(macs, speedup)

    mem = 0
    for t in TENSORS:
        l2l1 = traffic_bytes(t, lvl2.tiles, lvl1.tiles, lvl1.order, bpe)
        dram = traffic_bytes(t, dims, lvl2.tiles, lvl2.order, bpe)
        mem += _ceil_div(l2l1, consts.bw_l2_bytes_per_cycle)
        mem += _ceil_div(dram, consts.bw_dram_bytes_per_cycle)

    return LayerMetrics(
        latency=max(compute, mem),
        compute=compute,
        mem=mem,
        l1_bytes_needed=_footprint_bytes(lvl1.tiles, bpe),
        l2_bytes_needed=_footprint_bytes(lvl2.tiles, bpe),
    )


def area_mm2(n_pe: int, l1_bytes: int, l2_bytes: int, consts: CostConstants) -> float:
    return n_pe * consts.area_per_pe_mm2 + (n_pe * l1_bytes + l2_bytes) * consts.area_per_byte_mm2


def simulate(
    config: DesignConfig,
    workload: Workload,
    platform: Platform,
    consts: CostConstants = CostConstants(),
) -> EvalOutcome:
    """Evaluate one design: metrics (mean layer latency, area in um^2) plus residuals.

    Structurally inconsistent designs come back anomalous rather than raising,
    so upstream search loops never abort on a bad decode.
    """
    problems = validate_config(config, workload)
    if problems:
        return EvalOutcome.failed("; ".join(problems[:4]))

    per_layer = [
        layer_latency(layer, mapping, config.n_pe, consts)
        for layer, mapping in zip(workload.layers, config.mappings)
    ]
    mean_latency = sum(m.latency for m in per_layer) / len(per_layer)
    area = area_mm2(config.n_pe, config.l1_bytes, config.l2_bytes, consts)

    violations = []
    if area > platform.area_budget_mm2:
        violations.append(
            Violation("area", (area - platform.area_budget_mm2) / platform.area_budget_mm2)
        )
    l1_need = max(m.l1_bytes_needed for m in per_layer)
    if l1_need > config.l1_bytes:
        violations.append(Violation("l1_capacity", (l1_need - config.l1_bytes) / config.l1_bytes))
    l2_need = max(m.l2_bytes_needed for m in per_layer)
    if l2_need > config.l2_bytes:
        violations.append(Violation("l2_capacity", (l2_need - config.l2_bytes) / config.l2_bytes))

    return EvalOutcome.ok((mean_latency, area * 1e6), violations)


def make_evaluator(workload: Workload, platform: Platform, consts: CostConstants = CostConstants()):
    """Bind simulate() to a workload/platform; the resulting callable is pure."""

    def evaluate(config: DesignConfig) -> EvalOutcome:
        return simulate(config, workload, platform, consts)

    return evaluate


def _int64_exact(workload: Workload, platform: Platform, consts: CostConstants) -> bool:
    """Whether int64/float64 pricing reproduces simulate() on every valid design.

    For tiles 1 <= t1 <= t2 <= d a level moves at most bytes_per_element *
    prod(2d) bytes per tensor (t * ceil(o / t) < 2o), so a layer's latency
    is below 6 * 64 * bytes_per_element * MACs. Their sum over the layers
    must stay below 2**53, where float64 still holds every integer, so
    that the mean divides exactly as Python's int / int does. The constants
    must be of the types simulate() computes with, and a non-positive area
    budget, which makes simulate() raise, is left to it.
    """
    ints = (consts.bytes_per_element, consts.bw_l2_bytes_per_cycle, consts.bw_dram_bytes_per_cycle)
    floats = (consts.area_per_pe_mm2, consts.area_per_byte_mm2, platform.area_budget_mm2)
    if not all(type(v) is int for v in ints) or not all(type(v) is float for v in floats):
        return False
    bound = sum(384 * consts.bytes_per_element * math.prod(layer.dims()) for layer in workload.layers)
    return bound < EXACT_INT and platform.area_budget_mm2 > 0


def make_batch_evaluator(workload: Workload, platform: Platform, consts: CostConstants = CostConstants()):
    """simulate() over a DesignBatch of valid designs, or None where int64
    pricing could differ from it.

    The evaluator takes a batch whose every row passes `valid_rows` (the
    caller checks) and returns its OutcomeBatch: row for row the metrics
    and residuals simulate() gives. Arrays run over rows x layers x levels
    x tensors.
    """
    if not _int64_exact(workload, platform, consts):
        return None
    dims = np.asarray([layer.dims() for layer in workload.layers], dtype=np.int64)
    macs = dims.prod(axis=1)
    bpe = consts.bytes_per_element
    bw = np.asarray([[consts.bw_l2_bytes_per_cycle], [consts.bw_dram_bytes_per_cycle]])  # per level
    budget = platform.area_budget_mm2

    def evaluate(batch: DesignBatch) -> OutcomeBatch:
        tiles = batch.tiles
        # Level 1 tiles level-2 tiles; level 2 tiles the layer.
        outer = np.stack([tiles[:, :, 1], np.broadcast_to(dims, tiles[:, :, 1].shape)], axis=2)
        trips = -(-outer // tiles)
        pos = np.argsort(batch.order, axis=-1)  # each dim's loop position
        pos_tau = np.where(_REL_MASK, pos[..., None, :], -1).max(axis=-1)
        counted = pos[..., None, :] <= pos_tau[..., None]
        factor = np.where(counted, trips[..., None, :], 1).prod(axis=-1)
        volume = np.where(_REL_MASK, tiles[..., None, :], 1).prod(axis=-1)  # (rows, L, level, tensor)
        traffic = bpe * volume * factor
        mem = (-(-traffic // bw)).sum(axis=(2, 3))
        speedup = np.minimum(batch.parallelism.prod(axis=-1), batch.n_pe[:, None])
        latency = np.maximum(-(-macs // speedup), mem)
        footprint = bpe * volume.sum(axis=-1)
        n_pe, l1, l2 = batch.n_pe, batch.l1_bytes, batch.l2_bytes
        area = n_pe * consts.area_per_pe_mm2 + (n_pe * l1 + l2) * consts.area_per_byte_mm2
        metrics = np.stack([latency.sum(axis=1) / len(dims), area * 1e6], axis=1)
        # In _CONSTRAINTS order: simulate()'s value and cap of each.
        checks = ((area, budget), (footprint[:, :, 0].max(axis=1), l1), (footprint[:, :, 1].max(axis=1), l2))
        residuals = np.stack([np.where(value > cap, (value - cap) / cap, 0.0) for value, cap in checks], axis=1)
        return OutcomeBatch(metrics, residuals, _CONSTRAINTS, np.zeros(len(metrics), dtype=bool), designs=batch)

    return evaluate
