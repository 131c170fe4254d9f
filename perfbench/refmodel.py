"""Reference pricing of a design, restated apart from the program under test.

Nothing here imports ``coredse``: the formulas below are written out again
from the model's definition, so that a fault in the program's cost model,
area budget or structural validator shows up as a mismatch instead of being
copied into the check.

A design is the dict that ``DesignConfig.to_dict()`` produces and that
``summary.json`` stores: ``n_pe``, ``l1_bytes``, ``l2_bytes`` and per layer a
pair of level mappings, each with ``order`` (outermost first),
``parallel_dim``, ``parallelism`` and ``tiles`` in (S, R, K, C, X, Y) order.

- compute = ceil(MACs / min(P1 * P2, n_pe));
- a tensor's tile is refetched once per trip of every loop at or outside its
  innermost relevant loop, at each of the DRAM->L2 and L2->L1 levels;
- memory = sum over tensors and levels of ceil(bytes / bandwidth);
- layer latency = max(compute, memory); a design's latency is the mean over
  layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DIMS = ("S", "R", "K", "C", "X", "Y")
RELEVANT = {
    "weights": ("K", "C", "R", "S"),
    "inputs": ("C", "X", "Y"),
    "outputs": ("K", "X", "Y"),
}

BYTES_PER_ELEMENT = 2
BW_L2 = 64  # bytes per cycle, L2 -> L1
BW_DRAM = 16  # bytes per cycle, DRAM -> L2
AREA_PER_PE_MM2 = 4e-4
AREA_PER_BYTE_MM2 = 1e-6
AREA_BUDGET_MM2 = {"edge": 0.2, "cloud": 7.0}
MAX_PES = 1024
MAX_BUFFER_BYTES = 2**32


@dataclass(frozen=True)
class Space:
    """What the reference needs to know about a search: its layers, its
    platform and the largest PE count its space allows."""

    layers: tuple[tuple[int, int, int, int, int, int], ...]  # (K, C, X, Y, R, S)
    platform: str
    max_pe: int

    def dims(self, li: int) -> dict[str, int]:
        k, c, x, y, r, s = self.layers[li]
        return {"S": s, "R": r, "K": k, "C": c, "X": x, "Y": y}

    def compute_floor(self) -> float:
        """Mean layer latency no design of this space can beat."""
        total = sum(-(-math.prod(layer) // self.max_pe) for layer in self.layers)
        return total / len(self.layers)


@dataclass(frozen=True)
class Price:
    problems: tuple[str, ...]  # structural faults; empty means well formed
    latency: float  # mean layer latency in cycles
    area_mm2: float
    feasible: bool


def _volume(tensor: str, tile: dict[str, int]) -> int:
    return math.prod(tile[d] for d in RELEVANT[tensor])


def _traffic(tensor: str, outer: dict[str, int], tile: dict[str, int], order) -> int:
    innermost = max(order.index(d) for d in RELEVANT[tensor])
    trips = math.prod(-(-outer[d] // tile[d]) for d in order[: innermost + 1])
    return BYTES_PER_ELEMENT * _volume(tensor, tile) * trips


def _footprint(tile: dict[str, int]) -> int:
    return BYTES_PER_ELEMENT * sum(_volume(t, tile) for t in RELEVANT)


def structural_problems(design: dict, space: Space) -> list[str]:
    """The structural rules every decoded design must keep."""
    bad = []
    n_pe = design["n_pe"]
    if not (2 <= n_pe <= MAX_PES and n_pe % 2 == 0):
        bad.append(f"n_pe {n_pe} is not an even count in 2..{MAX_PES}")
    for key in ("l1_bytes", "l2_bytes"):
        if not 1 <= design[key] <= MAX_BUFFER_BYTES:
            bad.append(f"{key} {design[key]} out of range")
    if len(design["mappings"]) != len(space.layers):
        return bad + [f"{len(design['mappings'])} mappings for {len(space.layers)} layers"]
    for li, (lvl1, lvl2) in enumerate(design["mappings"]):
        dims = space.dims(li)
        for level, m in ((1, lvl1), (2, lvl2)):
            if sorted(m["order"]) != sorted(DIMS):
                bad.append(f"layer {li} level {level}: order {m['order']} is not a permutation")
            if m["parallel_dim"] not in DIMS:
                bad.append(f"layer {li} level {level}: parallel dim {m['parallel_dim']!r}")
            if len(m["tiles"]) != 6 or min(m["tiles"]) < 1:
                bad.append(f"layer {li} level {level}: tiles {m['tiles']}")
            if m["parallelism"] < 1:
                bad.append(f"layer {li} level {level}: parallelism {m['parallelism']}")
        if bad:
            continue
        t1 = dict(zip(DIMS, lvl1["tiles"]))
        t2 = dict(zip(DIMS, lvl2["tiles"]))
        for d in DIMS:
            if t2[d] > dims[d]:
                bad.append(f"layer {li}: level-2 tile {d}={t2[d]} exceeds the layer's {dims[d]}")
            if t1[d] > t2[d]:
                bad.append(f"layer {li}: level-1 tile {d}={t1[d]} exceeds level-2 tile {t2[d]}")
        if lvl1["parallelism"] > min(n_pe, t2[lvl1["parallel_dim"]]):
            bad.append(f"layer {li}: level-1 parallelism {lvl1['parallelism']} over its cap")
        if lvl2["parallelism"] > t2[lvl2["parallel_dim"]]:
            bad.append(f"layer {li}: level-2 parallelism {lvl2['parallelism']} over its cap")
    return bad


def price(design: dict, space: Space) -> Price:
    """Re-price one design; a structurally faulty one gets no latency."""
    bad = structural_problems(design, space)
    if bad:
        return Price(tuple(bad), math.nan, math.nan, False)
    n_pe = design["n_pe"]
    latencies, l1_need, l2_need = [], 0, 0
    for li, (lvl1, lvl2) in enumerate(design["mappings"]):
        dims = space.dims(li)
        t1 = dict(zip(DIMS, lvl1["tiles"]))
        t2 = dict(zip(DIMS, lvl2["tiles"]))
        compute = -(-math.prod(dims.values()) // min(lvl1["parallelism"] * lvl2["parallelism"], n_pe))
        memory = 0
        for tensor in RELEVANT:
            memory += -(-_traffic(tensor, t2, t1, lvl1["order"]) // BW_L2)
            memory += -(-_traffic(tensor, dims, t2, lvl2["order"]) // BW_DRAM)
        latencies.append(max(compute, memory))
        l1_need = max(l1_need, _footprint(t1))
        l2_need = max(l2_need, _footprint(t2))
    area = n_pe * AREA_PER_PE_MM2 + (n_pe * design["l1_bytes"] + design["l2_bytes"]) * AREA_PER_BYTE_MM2
    feasible = (
        area <= AREA_BUDGET_MM2[space.platform]
        and l1_need <= design["l1_bytes"]
        and l2_need <= design["l2_bytes"]
    )
    return Price((), sum(latencies) / len(latencies), area, feasible)


def objective(p: Price, weights) -> float:
    """The minimised objective for metrics (latency, area in um^2)."""
    return -(weights[0] * p.latency + weights[1] * (p.area_mm2 * 1e6))
