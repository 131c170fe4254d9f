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
"""

from __future__ import annotations

from dataclasses import dataclass

from .design import DIM_INDEX, DesignConfig, Layer, Workload, validate_config
from .objective import EvalOutcome, Violation

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
]

TENSORS = ("weights", "inputs", "outputs")

# Index dimensions per tensor, as positions into the canonical (S,R,K,C,X,Y) tuple.
_REL = {
    "weights": (DIM_INDEX["K"], DIM_INDEX["C"], DIM_INDEX["R"], DIM_INDEX["S"]),
    "inputs": (DIM_INDEX["C"], DIM_INDEX["X"], DIM_INDEX["Y"]),
    "outputs": (DIM_INDEX["K"], DIM_INDEX["X"], DIM_INDEX["Y"]),
}


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
    validate: bool = True,
) -> EvalOutcome:
    """Evaluate one design: metrics (mean layer latency, area in um^2) plus residuals.

    Structurally inconsistent designs come back anomalous rather than raising,
    so upstream search loops never abort on a bad decode.
    """
    if validate:
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
