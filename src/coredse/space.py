"""Structured parameter spaces with dependency-aware decoding.

A space is an ordered list of parameters, each one of three kinds:

* ``Ranged(low, up, step)``   -- bounded integer grid, decoded from a real
  in [0, 1] produced by a Beta head.
* ``Categorical(k)``          -- index in ``range(k)`` from a categorical head.
* ``SortKey(block, slot)``    -- one real key of a permutation block; the
  block's keys are argsorted (descending) into an order at decode time.

A ranged parameter may declare ``scaled_by`` sources.  When decoding with
scaling enabled its upper bound is replaced by the minimum of the decoded
source values, which keeps every decoded configuration feasible by
construction.  A source is either a parameter name or a ``Select`` whose
chooser (a categorical parameter) picks one candidate name at decode time.

``decode_values`` walks that scaling graph for any space, one raw vector at
a time, and is the reference decode.  There is no generic batch decode: the
accelerator space decodes a raw matrix in its own fields
(``CoDesignSpace.batch_decoder``, built on ``_decode_range_arrays`` below),
and is checked against ``decode_values``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

__all__ = [
    "Ranged",
    "Categorical",
    "SortKey",
    "Select",
    "ParamSpec",
    "ParameterSpace",
    "ScalingGraph",
    "ConfigurationError",
    "CycleError",
    "ShapeError",
    "scaling_graph",
    "topological_order",
    "decode_range",
    "decode_scaled",
    "decode_order",
    "decode_values",
    "space_cardinality",
    "enumerate_values",
]


class ConfigurationError(ValueError):
    """A parameter spec, graph, or decode input is malformed."""


class CycleError(ConfigurationError):
    """Scaling dependencies form a cycle."""


class ShapeError(ValueError):
    """An action vector does not match the declared space."""


@dataclass(frozen=True)
class Ranged:
    low: int
    up: int
    step: int = 1


@dataclass(frozen=True)
class Categorical:
    k: int


@dataclass(frozen=True)
class SortKey:
    block: str
    slot: int


@dataclass(frozen=True)
class Select:
    """Bound source resolved at decode time by a categorical chooser.

    Candidates are parameter names or literal ints (pre-resolved bounds).
    """

    chooser: str
    candidates: tuple

Kind = Union[Ranged, Categorical, SortKey]
Source = Union[str, int, Select]


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: Kind
    scaled_by: tuple[Source, ...] = ()


@dataclass(frozen=True)
class ScalingGraph:
    """Dependency view of a space: nodes in declaration order, source->target edges."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


def _validate_ranged(name: str, kind: Ranged) -> None:
    if kind.step < 1:
        raise ConfigurationError(f"{name}: step must be >= 1, got {kind.step}")
    if kind.low > kind.up:
        raise ConfigurationError(f"{name}: low {kind.low} > up {kind.up}")
    if (kind.up - kind.low) % kind.step != 0:
        raise ConfigurationError(
            f"{name}: span {kind.up - kind.low} not divisible by step {kind.step}"
        )


class ParameterSpace:
    """Ordered, validated collection of ParamSpecs plus derived decode structures."""

    def __init__(self, params: Iterator[ParamSpec] | tuple[ParamSpec, ...] | list[ParamSpec]):
        self.params: tuple[ParamSpec, ...] = tuple(params)
        self.index: dict[str, int] = {}
        for i, p in enumerate(self.params):
            if p.name in self.index:
                raise ConfigurationError(f"duplicate parameter name {p.name!r}")
            self.index[p.name] = i
        self._validate()
        self.graph = scaling_graph(self)
        self.order: tuple[str, ...] = tuple(topological_order(self.graph))
        self.blocks: dict[str, tuple[str, ...]] = self._collect_blocks()
        self._units = _build_units(self)

    def __len__(self) -> int:
        return len(self.params)

    def spec(self, name: str) -> ParamSpec:
        return self.params[self.index[name]]

    def _validate(self) -> None:
        for p in self.params:
            if isinstance(p.kind, Ranged):
                _validate_ranged(p.name, p.kind)
            elif isinstance(p.kind, Categorical):
                if p.kind.k < 2:
                    raise ConfigurationError(f"{p.name}: categorical needs k >= 2")
            elif isinstance(p.kind, SortKey):
                if p.scaled_by:
                    raise ConfigurationError(f"{p.name}: sort keys cannot be scaled")
            else:
                raise ConfigurationError(f"{p.name}: unknown kind {p.kind!r}")
            if p.scaled_by and not isinstance(p.kind, Ranged):
                raise ConfigurationError(f"{p.name}: only ranged parameters take scaled_by")
            for src in p.scaled_by:
                for ref in _source_names(src):
                    if ref not in self.index:
                        raise ConfigurationError(f"{p.name}: unknown source {ref!r}")
                    if ref == p.name:
                        raise ConfigurationError(f"{p.name}: scales by itself")
                if isinstance(src, Select):
                    chooser = self.params[self.index[src.chooser]]
                    if not isinstance(chooser.kind, Categorical):
                        raise ConfigurationError(
                            f"{p.name}: chooser {src.chooser!r} is not categorical"
                        )
                    if chooser.kind.k != len(src.candidates):
                        raise ConfigurationError(
                            f"{p.name}: chooser {src.chooser!r} has {chooser.kind.k} "
                            f"choices but {len(src.candidates)} candidates given"
                        )

    def _collect_blocks(self) -> dict[str, tuple[str, ...]]:
        raw: dict[str, list[tuple[int, str]]] = {}
        for p in self.params:
            if isinstance(p.kind, SortKey):
                raw.setdefault(p.kind.block, []).append((p.kind.slot, p.name))
        blocks: dict[str, tuple[str, ...]] = {}
        for block, members in raw.items():
            slots = sorted(s for s, _ in members)
            if slots != list(range(len(members))):
                raise ConfigurationError(f"block {block!r}: slots {slots} not 0..{len(members) - 1}")
            blocks[block] = tuple(name for _, name in sorted(members))
        return blocks


def _source_names(src: Source) -> tuple[str, ...]:
    """Parameter names a source depends on; literal int bounds contribute none."""
    if isinstance(src, Select):
        return (src.chooser, *(c for c in src.candidates if isinstance(c, str)))
    if isinstance(src, int):
        return ()
    return (src,)


def scaling_graph(space: ParameterSpace) -> ScalingGraph:
    edges: list[tuple[str, str]] = []
    for p in space.params:
        seen: set[str] = set()
        for src in p.scaled_by:
            for ref in _source_names(src):
                if ref not in seen:
                    seen.add(ref)
                    edges.append((ref, p.name))
    return ScalingGraph(nodes=tuple(p.name for p in space.params), edges=tuple(edges))


def topological_order(graph: ScalingGraph) -> list[str]:
    """Kahn's algorithm; ties broken by declaration order. Raises CycleError on cycles."""
    pos = {n: i for i, n in enumerate(graph.nodes)}
    indeg = {n: 0 for n in graph.nodes}
    out: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for src, dst in graph.edges:
        indeg[dst] += 1
        out[src].append(dst)
    ready = sorted((n for n in graph.nodes if indeg[n] == 0), key=pos.__getitem__)
    order: list[str] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        changed = False
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
                changed = True
        if changed:
            ready.sort(key=pos.__getitem__)
    if len(order) < len(graph.nodes):
        rest = [n for n in graph.nodes if indeg[n] > 0]
        cycle = _find_cycle(rest, out)
        raise CycleError(f"scaling dependencies contain a cycle: {' -> '.join(cycle)}")
    return order


def _find_cycle(nodes: list[str], out: dict[str, list[str]]) -> list[str]:
    remaining = set(nodes)
    node = nodes[0]
    seen: dict[str, int] = {}
    path: list[str] = []
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = next(m for m in out[node] if m in remaining)
    return path[seen[node] :] + [node]


def decode_range(b: float, low: int, up: int, step: int = 1) -> int:
    """Map b in [0, 1] onto the grid {low, low+step, ..., up}.

    Bucketed floor mapping: idx = floor(count * b) clamped to count - 1 so
    b = 1.0 lands on the last value instead of overflowing.
    """
    if step < 1 or low > up:
        raise ConfigurationError(f"invalid range low={low} up={up} step={step}")
    if not math.isfinite(b):
        raise ConfigurationError(f"non-finite raw value {b!r}")
    idx_max = (up - low) // step
    idx = math.floor((idx_max + 1) * b)
    if idx < 0:
        idx = 0
    elif idx > idx_max:
        idx = idx_max
    return low + idx * step


def decode_scaled(
    b: float,
    low: int,
    step: int,
    sources: tuple[int, ...] | list[int],
) -> int:
    """decode_range with the upper bound replaced by min(sources); a bound below low gives low."""
    if not sources:
        raise ConfigurationError("decode_scaled needs at least one source value")
    up = min(sources)
    if up < low:
        return low
    return decode_range(b, low, up, step)


def decode_order(keys) -> tuple[int, ...]:
    """Argsort keys descending; ties broken by slot index (first slot wins)."""
    ks = [float(k) for k in keys]
    for k in ks:
        if not math.isfinite(k):
            raise ConfigurationError(f"non-finite sort key {k!r}")
    return tuple(sorted(range(len(ks)), key=lambda i: (-ks[i], i)))


# ---------------------------------------------------------------------------
# Whole-space decode

def _resolve_sources(spec: ParamSpec, values: dict) -> list[int]:
    resolved: list[int] = []
    for src in spec.scaled_by:
        if isinstance(src, Select):
            picked = src.candidates[values[src.chooser]]
            resolved.append(picked if isinstance(picked, int) else values[picked])
        elif isinstance(src, int):
            resolved.append(src)
        else:
            resolved.append(values[src])
    return resolved


def decode_values(
    space: ParameterSpace,
    raw,
    use_scaling: bool = True,
) -> dict:
    """Decode a raw action vector into {param: value, block: permutation}.

    ``raw`` holds one entry per declared parameter, in declaration order:
    reals in [0, 1] for ranged parameters and sort keys, an integer index
    for categorical parameters.  Sort keys do not appear individually in
    the result; each block maps to its decoded slot permutation.
    """
    if len(raw) != len(space.params):
        raise ShapeError(f"expected {len(space.params)} raw values, got {len(raw)}")
    values: dict = {}
    keys: dict[str, float] = {}
    for name in space.order:
        spec = space.params[space.index[name]]
        r = raw[space.index[name]]
        kind = spec.kind
        if isinstance(kind, Categorical):
            idx = int(r)
            if not 0 <= idx < kind.k:
                raise ShapeError(f"{name}: category index {idx} out of range({kind.k})")
            values[name] = idx
        elif isinstance(kind, SortKey):
            keys[name] = float(r)
        elif spec.scaled_by and use_scaling:
            srcs = _resolve_sources(spec, values)
            values[name] = decode_scaled(float(r), kind.low, kind.step, srcs)
        else:
            values[name] = decode_range(float(r), kind.low, kind.up, kind.step)
    for block, members in space.blocks.items():
        values[block] = decode_order([keys[m] for m in members])
    return values


# ---------------------------------------------------------------------------
# Array helpers for a batch decode

EXACT_INT = 2**53  # int64 and float64 both hold every integer below this


def _decode_range_arrays(b: np.ndarray, low, up, step):
    """decode_range elementwise: (values, finite), finite False where it raises."""
    idx_max = (up - low) // step
    x = (idx_max + 1) * b
    finite = np.isfinite(x)
    idx = np.clip(np.floor(np.where(finite, x, 0.0)), 0, idx_max)
    return low + idx.astype(np.int64) * step, finite


# ---------------------------------------------------------------------------
# Exhaustive enumeration and counting

@dataclass(frozen=True)
class _Unit:
    block: str | None  # permutation block name, or None for a single parameter
    names: tuple[str, ...]


def _build_units(space: ParameterSpace) -> tuple[_Unit, ...]:
    units: list[_Unit] = []
    seen_blocks: set[str] = set()
    for name in space.order:
        kind = space.spec(name).kind
        if isinstance(kind, SortKey):
            if kind.block not in seen_blocks:
                seen_blocks.add(kind.block)
                units.append(_Unit(kind.block, space.blocks[kind.block]))
        else:
            units.append(_Unit(None, (name,)))
    return tuple(units)


def _param_choices(spec: ParamSpec, values: dict) -> range:
    kind = spec.kind
    if isinstance(kind, Categorical):
        return range(kind.k)
    assert isinstance(kind, Ranged)
    up = kind.up
    if spec.scaled_by:
        up = min(_resolve_sources(spec, values))
        if up < kind.low:
            return range(kind.low, kind.low + 1)  # degenerate bound clamps to low
    return range(kind.low, up + 1, kind.step)


def space_cardinality(space: ParameterSpace, limit: int | None = None):
    """Exact count of distinct decodable configurations.

    Returns None once the count provably exceeds ``limit`` (the
    exceeds-limit marker); with limit=None the count is always exact.
    """
    influencers: set[str] = set()
    for p in space.params:
        for src in p.scaled_by:
            influencers.update(_source_names(src))
    units = space._units

    def count(i: int, values: dict) -> int | None:
        if i == len(units):
            return 1
        unit = units[i]
        if unit.block is not None:
            tail = count(i + 1, values)
            if tail is None:
                return None
            total = math.factorial(len(unit.names)) * tail
            return None if limit is not None and total > limit else total
        name = unit.names[0]
        spec = space.spec(name)
        choices = _param_choices(spec, values)
        if name not in influencers:
            tail = count(i + 1, values)
            if tail is None:
                return None
            total = len(choices) * tail
            return None if limit is not None and total > limit else total
        total = 0
        for v in choices:
            values[name] = v
            sub = count(i + 1, values)
            if sub is None:
                return None
            total += sub
            if limit is not None and total > limit:
                return None
        del values[name]
        return total

    return count(0, {})


def enumerate_values(space: ParameterSpace) -> Iterator[dict]:
    """Yield every decodable configuration as a {param/block: value} dict."""
    units = space._units

    def rec(i: int, values: dict) -> Iterator[dict]:
        if i == len(units):
            yield dict(values)
            return
        unit = units[i]
        if unit.block is not None:
            for perm in itertools.permutations(range(len(unit.names))):
                values[unit.block] = perm
                yield from rec(i + 1, values)
            del values[unit.block]
            return
        name = unit.names[0]
        for v in _param_choices(space.spec(name), values):
            values[name] = v
            yield from rec(i + 1, values)
        del values[name]

    return rec(0, {})
