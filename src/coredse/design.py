"""Accelerator/mapping co-design points over a two-level PE hierarchy.

A design fixes the shared hardware (PE count, per-PE L1 bytes, shared L2
bytes) and, per workload layer and per level, a mapping: loop order over
the six layer dimensions, a parallelized dimension, a parallelism amount,
and a tile size per dimension.  Tiles nest (level 1 <= level 2 <= layer
dim) and parallelism is capped by the PE count and the level-2 tile of
the parallelized dimension, so decoding with scaling enabled can only
produce structurally valid designs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .space import (
    EXACT_INT,
    BatchDecoder,
    Categorical,
    ConfigurationError,
    ParameterSpace,
    ParamSpec,
    Ranged,
    Select,
    SortKey,
    decode_values,
    enumerate_values,
    space_cardinality,
)

# Canonical dimension order; sort-key slots and tile tuples follow it.
DIMS = ("S", "R", "K", "C", "X", "Y")
DIM_INDEX = {d: i for i, d in enumerate(DIMS)}

MAX_PES = 1024
MAX_BUFFER_BYTES = 2**32


@dataclass(frozen=True)
class Layer:
    """One conv/matmul layer; matmuls use R = S = 1."""

    K: int
    C: int
    X: int
    Y: int
    R: int = 1
    S: int = 1

    def __post_init__(self):
        for name in ("K", "C", "X", "Y", "R", "S"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigurationError(f"layer dim {name}={v!r} must be a positive int")
        if self.R > self.X or self.S > self.Y:
            raise ConfigurationError(
                f"filter ({self.R},{self.S}) exceeds input ({self.X},{self.Y})"
            )

    def dims(self) -> tuple[int, int, int, int, int, int]:
        """Dimension sizes in canonical (S, R, K, C, X, Y) order."""
        return (self.S, self.R, self.K, self.C, self.X, self.Y)


@dataclass(frozen=True)
class Workload:
    name: str
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ConfigurationError("workload has no layers")


def parse_workload(path: str, name: str | None = None) -> Workload:
    """Read a workload file: one `K C X Y R S` line per layer, `#` comments."""
    layers = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 6:
                raise ConfigurationError(f"{path}:{lineno}: expected 6 integers, got {text!r}")
            try:
                k, c, x, y, r, s = (int(p) for p in parts)
            except ValueError as err:
                raise ConfigurationError(f"{path}:{lineno}: {err}") from None
            layers.append(Layer(K=k, C=c, X=x, Y=y, R=r, S=s))
    if not layers:
        raise ConfigurationError(f"{path}: no layers found")
    return Workload(name=name or path, layers=tuple(layers))


@dataclass(frozen=True)
class LevelMapping:
    order: tuple[str, ...]  # six dims, outermost first
    parallel_dim: str
    parallelism: int
    tiles: tuple[int, int, int, int, int, int]  # canonical (S,R,K,C,X,Y)


@dataclass(frozen=True)
class DesignConfig:
    n_pe: int
    l1_bytes: int
    l2_bytes: int
    mappings: tuple[tuple[LevelMapping, LevelMapping], ...]  # per layer: (level1, level2)

    def to_dict(self) -> dict:
        return {
            "n_pe": self.n_pe,
            "l1_bytes": self.l1_bytes,
            "l2_bytes": self.l2_bytes,
            "mappings": [
                [
                    {
                        "order": list(m.order),
                        "parallel_dim": m.parallel_dim,
                        "parallelism": m.parallelism,
                        "tiles": list(m.tiles),
                    }
                    for m in pair
                ]
                for pair in self.mappings
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "DesignConfig":
        mappings = tuple(
            tuple(
                LevelMapping(
                    order=tuple(m["order"]),
                    parallel_dim=m["parallel_dim"],
                    parallelism=int(m["parallelism"]),
                    tiles=tuple(int(t) for t in m["tiles"]),
                )
                for m in pair
            )
            for pair in data["mappings"]
        )
        return DesignConfig(
            n_pe=int(data["n_pe"]),
            l1_bytes=int(data["l1_bytes"]),
            l2_bytes=int(data["l2_bytes"]),
            mappings=mappings,
        )


def validate_config(config: DesignConfig, workload: Workload) -> list[str]:
    """Independent structural check; returns human-readable failures (empty = valid)."""
    bad: list[str] = []
    if not (2 <= config.n_pe <= MAX_PES) or config.n_pe % 2 != 0:
        bad.append(f"n_pe {config.n_pe} outside even 2..{MAX_PES}")
    for label, v in (("l1_bytes", config.l1_bytes), ("l2_bytes", config.l2_bytes)):
        if not (1 <= v <= MAX_BUFFER_BYTES):
            bad.append(f"{label} {v} outside 1..{MAX_BUFFER_BYTES}")
    if len(config.mappings) != len(workload.layers):
        bad.append(f"{len(config.mappings)} mappings for {len(workload.layers)} layers")
        return bad
    for li, (pair, layer) in enumerate(zip(config.mappings, workload.layers)):
        dims = layer.dims()
        lvl1, lvl2 = pair
        for level, m in ((1, lvl1), (2, lvl2)):
            if sorted(m.order) != sorted(DIMS):
                bad.append(f"layer {li} level {level}: order {m.order} not a permutation")
            if m.parallel_dim not in DIM_INDEX:
                bad.append(f"layer {li} level {level}: bad parallel dim {m.parallel_dim!r}")
            if len(m.tiles) != 6 or any(t < 1 for t in m.tiles):
                bad.append(f"layer {li} level {level}: bad tiles {m.tiles}")
            if m.parallelism < 1:
                bad.append(f"layer {li} level {level}: parallelism {m.parallelism} < 1")
        for d in range(6):
            if lvl2.tiles[d] > dims[d]:
                bad.append(
                    f"layer {li}: level-2 tile {DIMS[d]}={lvl2.tiles[d]} over dim {dims[d]}"
                )
            if lvl1.tiles[d] > lvl2.tiles[d]:
                bad.append(
                    f"layer {li}: level-1 tile {DIMS[d]}={lvl1.tiles[d]} over level-2 "
                    f"{lvl2.tiles[d]}"
                )
        if lvl1.parallel_dim in DIM_INDEX:
            cap1 = min(config.n_pe, lvl2.tiles[DIM_INDEX[lvl1.parallel_dim]])
            if lvl1.parallelism > cap1:
                bad.append(f"layer {li}: level-1 parallelism {lvl1.parallelism} over {cap1}")
        if lvl2.parallel_dim in DIM_INDEX:
            cap2 = lvl2.tiles[DIM_INDEX[lvl2.parallel_dim]]
            if lvl2.parallelism > cap2:
                bad.append(f"layer {li}: level-2 parallelism {lvl2.parallelism} over {cap2}")
    return bad


@dataclass(frozen=True)
class DesignBatch:
    """Designs as arrays, one row each: the struct-of-arrays form of DesignConfig.

    Axis 1 is the layer and axis 2 the level (0 for level 1, 1 for level 2).
    Tiles are in canonical (S,R,K,C,X,Y) order, orders hold dim indices
    outermost first, and parallel dims are dim indices.
    """

    n_pe: np.ndarray  # (B,)
    l1_bytes: np.ndarray  # (B,)
    l2_bytes: np.ndarray  # (B,)
    tiles: np.ndarray  # (B, L, 2, 6)
    order: np.ndarray  # (B, L, 2, 6)
    parallel_dim: np.ndarray  # (B, L, 2)
    parallelism: np.ndarray  # (B, L, 2)

    def take(self, rows) -> "DesignBatch":
        return DesignBatch(*(getattr(self, f.name)[rows] for f in fields(self)))

    def configs(self) -> list[DesignConfig]:
        """One DesignConfig per row."""
        n_rows, n_layers = self.tiles.shape[:2]
        orders = map(_ORDER_NAMES.__getitem__, (self.order @ _ORDER_CODE).ravel().tolist())
        pdims = map(DIMS.__getitem__, self.parallel_dim.ravel().tolist())
        tiles = map(tuple, self.tiles.reshape(-1, 6).tolist())
        maps = list(map(LevelMapping, orders, pdims, self.parallelism.ravel().tolist(), tiles))
        pairs = list(zip(maps[0::2], maps[1::2]))
        per_row = [tuple(pairs[i : i + n_layers]) for i in range(0, n_rows * n_layers, n_layers)]
        return list(
            map(DesignConfig, self.n_pe.tolist(), self.l1_bytes.tolist(), self.l2_bytes.tolist(), per_row)
        )


# A loop order's dim names by its code, sum(order[i] * 6**i).
_ORDER_CODE = 6 ** np.arange(6)
_ORDER_NAMES = {
    sum(int(c) * p for c, p in zip(_ORDER_CODE, perm)): tuple(DIMS[i] for i in perm)
    for perm in itertools.permutations(range(6))
}


def valid_rows(batch: DesignBatch, workload: Workload) -> np.ndarray:
    """validate_config's rules over a batch: True where it finds nothing wrong.

    The batch has one mapping pair per workload layer by construction.
    """
    n_pe = batch.n_pe
    ok = (n_pe >= 2) & (n_pe <= MAX_PES) & (n_pe % 2 == 0)
    for v in (batch.l1_bytes, batch.l2_bytes):
        ok &= (v >= 1) & (v <= MAX_BUFFER_BYTES)
    pdim, par = batch.parallel_dim, batch.parallelism
    levels = (
        (np.sort(batch.order, axis=-1) == np.arange(6)).all(axis=-1)
        & (batch.tiles >= 1).all(axis=-1)
        & (par >= 1)
    )
    t1, t2 = batch.tiles[:, :, 0], batch.tiles[:, :, 1]
    dims = np.asarray([layer.dims() for layer in workload.layers])
    nested = (t2 <= dims).all(axis=-1) & (t1 <= t2).all(axis=-1)
    caps = np.take_along_axis(t2, pdim, axis=-1)
    caps[:, :, 0] = np.minimum(caps[:, :, 0], n_pe[:, None])
    return ok & (levels.all(axis=-1) & nested & (par <= caps).all(axis=-1)).all(axis=-1)


# ---------------------------------------------------------------------------
# Space construction

def _as_range(name: str, value) -> tuple[int, int, int]:
    if isinstance(value, int):
        return (value, value, 1)
    low, up, step = (int(v) for v in value)
    if (up - low) % step != 0:
        raise ConfigurationError(f"{name}: span {up - low} not divisible by step {step}")
    return (low, up, step)


@dataclass(frozen=True)
class SpaceOptions:
    """Which co-design parameters vary, and over what grids.

    Anything not varied is pinned: excluded tile dims sit at the full layer
    dimension on both levels, level-1 tiles of varying dims sit at 1 when
    ``vary_level1`` is off, excluded orders fall back to ``fixed_order``,
    excluded parallelization to ``fixed_parallel_dim``/``fixed_parallelism``.
    """

    n_pe: object = (2, MAX_PES, 2)
    l1_bytes: object = (1, MAX_BUFFER_BYTES, 1)
    l2_bytes: object = (1, MAX_BUFFER_BYTES, 1)
    tile_dims: tuple[str, ...] = DIMS
    tile_step: int = 1
    vary_level1: bool = True
    include_order: bool = True
    include_parallel: bool = True
    vary_parallel_dim: bool = True
    fixed_order: tuple[str, ...] = DIMS
    fixed_parallel_dim: str = "K"
    fixed_parallelism: int = 1

    @staticmethod
    def from_dict(data: dict) -> "SpaceOptions":
        kwargs = dict(data)
        for key in ("tile_dims", "fixed_order"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        for key in ("n_pe", "l1_bytes", "l2_bytes"):
            if key in kwargs and not isinstance(kwargs[key], int):
                kwargs[key] = tuple(kwargs[key])
        unknown = set(kwargs) - set(SpaceOptions.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(f"space: unknown option(s) {sorted(unknown)}")
        return SpaceOptions(**kwargs)


class CoDesignSpace:
    """Parameter space for one workload plus the decode plan into DesignConfig."""

    def __init__(self, workload: Workload, options: SpaceOptions = SpaceOptions()):
        self.workload = workload
        self.options = options
        self.fixed: dict[str, object] = {}
        self.space = self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> ParameterSpace:
        opt = self.options
        params: list[ParamSpec] = []
        for d in opt.tile_dims:
            if d not in DIM_INDEX:
                raise ConfigurationError(f"unknown tile dim {d!r}")
        if sorted(opt.fixed_order) != sorted(DIMS):
            raise ConfigurationError(f"fixed_order {opt.fixed_order} not a permutation")

        def add_or_fix(name: str, value) -> None:
            low, up, step = _as_range(name, value)
            if low == up:
                self.fixed[name] = low
            else:
                params.append(ParamSpec(name, Ranged(low, up, step)))

        add_or_fix("n_pe", opt.n_pe)
        add_or_fix("l1_bytes", opt.l1_bytes)
        add_or_fix("l2_bytes", opt.l2_bytes)

        npe_cap = _as_range("n_pe", opt.n_pe)[1]
        npe_src = int(self.fixed["n_pe"]) if "n_pe" in self.fixed else "n_pe"
        for li, layer in enumerate(self.workload.layers):
            dims = layer.dims()
            prefix = f"l{li}."
            for d, size in zip(DIMS, dims):
                t2 = f"{prefix}t2.{d}"
                t1 = f"{prefix}t1.{d}"
                if d in opt.tile_dims and size > 1:
                    if (size - 1) % opt.tile_step != 0:
                        raise ConfigurationError(
                            f"{t2}: span {size - 1} not divisible by tile_step {opt.tile_step}"
                        )
                    params.append(ParamSpec(t2, Ranged(1, size, opt.tile_step)))
                    if opt.vary_level1:
                        params.append(ParamSpec(t1, Ranged(1, size, opt.tile_step), (t2,)))
                    else:
                        self.fixed[t1] = 1
                else:
                    self.fixed[t2] = size
                    self.fixed[t1] = 1 if d in opt.tile_dims else size
            max_dim = max(dims)
            for level in (1, 2):
                pdim = f"{prefix}pdim{level}"
                par = f"{prefix}par{level}"
                if not opt.include_parallel:
                    self.fixed[pdim] = opt.fixed_parallel_dim
                    self.fixed[par] = opt.fixed_parallelism
                    continue
                # Fixed tiles enter bounds as literal ints, varying ones by name.
                tile_refs = tuple(
                    int(self.fixed[f"{prefix}t2.{d}"])
                    if f"{prefix}t2.{d}" in self.fixed
                    else f"{prefix}t2.{d}"
                    for d in DIMS
                )
                if opt.vary_parallel_dim:
                    params.append(ParamSpec(pdim, Categorical(6)))
                    picked: object = Select(pdim, tile_refs)
                else:
                    self.fixed[pdim] = opt.fixed_parallel_dim
                    picked = tile_refs[DIM_INDEX[opt.fixed_parallel_dim]]
                if level == 1:
                    cap = min(npe_cap, max_dim)
                    sources = (npe_src, picked)
                else:
                    cap = max_dim
                    sources = (picked,)
                params.append(ParamSpec(par, Ranged(1, cap, 1), sources))
            for level in (1, 2):
                block = f"{prefix}order{level}"
                if opt.include_order:
                    for d in DIMS:
                        params.append(
                            ParamSpec(f"{block}.{d}", SortKey(block, DIM_INDEX[d]))
                        )
                else:
                    self.fixed[block] = tuple(DIM_INDEX[d] for d in opt.fixed_order)
        return ParameterSpace(params)

    # -- decoding ----------------------------------------------------------

    def decode(self, raw, use_scaling: bool = True) -> DesignConfig:
        values = decode_values(self.space, raw, use_scaling=use_scaling)
        return self.assemble(values)

    def batch_decoder(self, use_scaling: bool = True):
        """decode() over a (B, n) raw matrix: ``raws -> (DesignBatch, ok)``.

        ok is False on each row for which decode() raises; on the other rows
        ``DesignBatch.configs()`` equals decode()'s designs. Raises
        ConfigurationError when a bound is too large to decode exactly in
        int64 (see `BatchDecoder`), or a fixed parallel dim is not a dim name.
        """
        decoder = BatchDecoder(self.space, use_scaling=use_scaling)
        n_layers = len(self.workload.layers)
        width = decoder.width
        # Every scalar field as a column of [decoded values | fixed values].
        per_level = [(li, level) for li in range(n_layers) for level in (1, 2)]
        names = [
            "n_pe",
            "l1_bytes",
            "l2_bytes",
            *(f"l{li}.t{level}.{d}" for li, level in per_level for d in DIMS),
            *(f"l{li}.par{level}" for li, level in per_level),
            *(f"l{li}.pdim{level}" for li, level in per_level),
        ]
        fixed = {}
        for name in names:
            if name not in self.space.index:
                v = self.fixed[name]
                if ".pdim" in name:
                    if not (isinstance(v, str) and v in DIM_INDEX):
                        raise ConfigurationError(f"{name}: {v!r} is not a dim name")
                    v = DIM_INDEX[v]
                elif abs(int(v)) >= EXACT_INT:
                    raise ConfigurationError(f"{name}: {v} is beyond the batch decode's exact range")
                fixed[name] = int(v)
        columns = np.asarray(
            [self.space.index[n] if n in self.space.index else width + list(fixed).index(n) for n in names],
            dtype=np.intp,
        )
        fixed_values = np.asarray(list(fixed.values()), dtype=np.int64)
        blocks = [(li, level - 1, f"l{li}.order{level}") for li, level in per_level]
        n_tiles = 12 * n_layers

        def decode_batch(raws: np.ndarray):
            values, orders, ok = decoder(raws)
            table = np.concatenate([values, np.broadcast_to(fixed_values, (len(raws), len(fixed)))], axis=1)
            g = table[:, columns]
            order = np.empty((len(raws), n_layers, 2, 6), dtype=np.int64)
            for li, lv, block in blocks:
                order[:, li, lv] = orders[block] if block in orders else self.fixed[block]
            pars = g[:, 3 + n_tiles :].reshape(len(raws), 2, n_layers, 2)
            batch = DesignBatch(
                n_pe=g[:, 0],
                l1_bytes=g[:, 1],
                l2_bytes=g[:, 2],
                tiles=g[:, 3 : 3 + n_tiles].reshape(len(raws), n_layers, 2, 6),
                order=order,
                parallel_dim=pars[:, 1],
                parallelism=pars[:, 0],
            )
            return batch, ok

        return decode_batch

    def assemble(self, values: dict) -> DesignConfig:
        def get(name: str):
            if name in values:
                return values[name]
            return self.fixed[name]

        mappings = []
        for li in range(len(self.workload.layers)):
            prefix = f"l{li}."
            pair = []
            for level in (1, 2):
                perm = get(f"{prefix}order{level}")
                pdim = get(f"{prefix}pdim{level}")
                if isinstance(pdim, int):
                    pdim = DIMS[pdim]
                pair.append(
                    LevelMapping(
                        order=tuple(DIMS[i] for i in perm),
                        parallel_dim=pdim,
                        parallelism=int(get(f"{prefix}par{level}")),
                        tiles=tuple(int(get(f"{prefix}t{level}.{d}")) for d in DIMS),
                    )
                )
            mappings.append(tuple(pair))
        return DesignConfig(
            n_pe=int(get("n_pe")),
            l1_bytes=int(get("l1_bytes")),
            l2_bytes=int(get("l2_bytes")),
            mappings=tuple(mappings),
        )

    # -- enumeration -------------------------------------------------------

    def cardinality(self, limit: int | None = None):
        return space_cardinality(self.space, limit=limit)

    def enumerate_configs(self):
        for values in enumerate_values(self.space):
            yield self.assemble(values)

