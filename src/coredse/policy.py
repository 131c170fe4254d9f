"""Factorized stochastic policy over a parameter space.

A 4-layer ReLU MLP maps a fixed context vector (all ones) to one
distribution per parameter: ranged parameters and sort keys get a
Beta(alpha, beta) head with alpha = 1 + softplus(u), beta = 1 +
softplus(v) (so both stay > 1 and all-zero weights give the near-uniform
Beta(1 + ln 2, 1 + ln 2)); categorical parameters get a softmax head.
The softmax heads are one zero-padded (n_cat, k_max) matrix, a row a head,
and every categorical computation is one array expression over it.

Gradients are computed in closed form (digamma/trigamma terms for the
Beta heads) and pushed through the MLP by hand-written reverse mode;
there is no autodiff anywhere.

`sample` draws a batch of i.i.d. actions from one generator, with one
`Generator.beta` call for all the Beta heads of the batch and one `random`
call for all its categorical heads.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.random import Generator
from scipy.special import betaln, digamma

from .space import Categorical, ParameterSpace, ShapeError

__all__ = [
    "RAW_CLIP",
    "CHECKPOINT_MAGIC",
    "HeadLayout",
    "DistributionSet",
    "ActionBatch",
    "PolicyParams",
    "PolicyNumericsError",
    "DomainError",
    "layout_for_space",
    "context_vector",
    "init_params",
    "mlp_forward",
    "mlp_backward",
    "heads_from_raw",
    "forward_cached",
    "head_backward",
    "sample",
    "stack_actions",
    "log_probs",
    "entropy",
    "kl",
    "save_params",
    "load_params",
]

RAW_CLIP = 1e-6
CHECKPOINT_MAGIC = b"COREPOL1"


class PolicyNumericsError(FloatingPointError):
    """A forward pass produced non-finite activations."""


class DomainError(ValueError):
    """An action lies outside the support of its distribution."""


@dataclass(frozen=True)
class HeadLayout:
    """Mapping between parameters, distribution heads, and raw MLP outputs;
    categorical head j is row j of a padded (n_cat, k_max) matrix."""

    n_params: int
    beta_params: np.ndarray  # parameter indices owning beta heads
    cat_params: np.ndarray
    beta_off: np.ndarray  # raw-output offset of each beta head's (u, v) pair
    out_width: int
    cat_sizes: np.ndarray  # k of each categorical head, in head order
    cat_cols: np.ndarray  # (n_cat, k_max) raw-output index of each logit, 0 on padding
    cat_mask: np.ndarray  # (n_cat, k_max) True on real entries

    @property
    def n_beta(self) -> int:
        return len(self.beta_params)


def _make_layout(cat_k) -> HeadLayout:
    """The layout of one head per parameter: cat_k[i] choices, 0 for a Beta head."""
    k = np.asarray(cat_k, dtype=np.intp)
    width = np.where(k > 0, k, 2)
    off = np.cumsum(width) - width
    beta_params, cat_params = np.flatnonzero(k == 0), np.flatnonzero(k > 0)
    sizes = k[cat_params]
    cols = np.arange(sizes.max(initial=0))
    mask = cols < sizes[:, None]
    return HeadLayout(
        n_params=k.size,
        beta_params=beta_params,
        cat_params=cat_params,
        beta_off=off[beta_params],
        out_width=int(width.sum()),
        cat_sizes=sizes,
        cat_cols=np.where(mask, off[cat_params, None] + cols, 0),
        cat_mask=mask,
    )


def layout_for_space(space: ParameterSpace) -> HeadLayout:
    """A softmax head for each categorical parameter, a Beta head for each ranged one or sort key."""
    return _make_layout([p.kind.k if isinstance(p.kind, Categorical) else 0 for p in space.params])


@dataclass(frozen=True)
class DistributionSet:
    """One distribution per parameter: Beta(alphas, betas) and categorical
    heads, whose probabilities are the rows of `cat_probs`, zero on padding.

    A set is immutable: its arrays are never modified after construction,
    and a different set is a new instance, from `heads_from_raw` or
    `dataclasses.replace` (which runs `__post_init__` again). The terms
    below are computed once per set from those arrays and shared by
    `log_probs`, `kl`, `entropy` and the surrogate gradients; editing an
    array in place would leave them stale.
    """

    layout: HeadLayout
    alphas: np.ndarray  # (n_beta,)
    betas: np.ndarray  # (n_beta,)
    cat_probs: np.ndarray  # (n_cat, k_max)
    beta_norm: np.ndarray = field(init=False, repr=False, compare=False)  # ln B(alpha, beta)
    dg_alpha: np.ndarray = field(init=False, repr=False, compare=False)  # digamma(alpha)
    dg_beta: np.ndarray = field(init=False, repr=False, compare=False)  # digamma(beta)
    dg_sum: np.ndarray = field(init=False, repr=False, compare=False)  # digamma(alpha + beta)
    cat_log_probs: np.ndarray = field(init=False, repr=False, compare=False)  # 0 where p == 0

    def __post_init__(self):
        a, b, p = self.alphas, self.betas, self.cat_probs
        cached = {
            "beta_norm": betaln(a, b),
            "dg_alpha": digamma(a),
            "dg_beta": digamma(b),
            "dg_sum": digamma(a + b),
            "cat_log_probs": np.log(np.where(p > 0.0, p, 1.0)),  # so that p * log p needs no mask
        }
        for name, value in cached.items():
            object.__setattr__(self, name, value)


@dataclass
class PolicyParams:
    weights: list  # 4 matrices, shape (fan_out, fan_in)
    biases: list  # 4 vectors

    def copy(self) -> "PolicyParams":
        return PolicyParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def arrays(self) -> list:
        flat = []
        for w, b in zip(self.weights, self.biases):
            flat.append(w)
            flat.append(b)
        return flat


def context_vector(width: int) -> np.ndarray:
    return np.ones(width, dtype=float)


def init_params(rng: np.random.Generator, input_width: int, hidden_width: int, out_width: int) -> PolicyParams:
    sizes = [input_width, hidden_width, hidden_width, hidden_width, out_width]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return PolicyParams(weights, biases)


def mlp_forward(params: PolicyParams, s0: np.ndarray):
    """Returns (raw head outputs, cache for the backward pass)."""
    if s0.shape != (params.weights[0].shape[1],):
        raise ShapeError(f"context width {s0.shape} != {params.weights[0].shape[1]}")
    inputs = [s0]
    pres = []
    h = s0
    last = len(params.weights) - 1
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = w @ h + b
        if not np.isfinite(a).all():
            raise PolicyNumericsError(f"non-finite activations at layer {layer}")
        if layer < last:
            pres.append(a)
            h = np.maximum(a, 0.0)
            inputs.append(h)
        else:
            return a, (inputs, pres)
    raise AssertionError("unreachable")


def mlp_backward(params: PolicyParams, cache, g_out: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradient of a scalar wrt every weight and bias, given d(scalar)/d(raw out).

    With one context vector every weight gradient has rank 1, so each layer
    is returned as its factors (delta, h), in layer order: the weight
    gradient is ``np.outer(delta, h)`` and the bias gradient is delta.
    h is the layer's input from the forward cache; neither is a copy.
    """
    inputs, pres = cache
    n = len(params.weights)
    factors = [None] * n
    g = g_out
    for layer in range(n - 1, -1, -1):
        factors[layer] = (g, inputs[layer])
        if layer > 0:
            g = params.weights[layer].T @ g
            g = g * (pres[layer - 1] > 0.0)
    return factors


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def heads_from_raw(out: np.ndarray, layout: HeadLayout) -> DistributionSet:
    """Softplus Beta heads, and a row-wise softmax of the logit matrix with -inf padding.

    numpy adds a row of fewer than 8 entries in order, so padding leaves each
    normaliser as a per-head softmax has it; with a head of 8 or more choices,
    rows are summed pairwise and may round differently in the last bit."""
    alphas = 1.0 + _softplus(out[layout.beta_off])
    betas = 1.0 + _softplus(out[layout.beta_off + 1])
    z = np.where(layout.cat_mask, out[layout.cat_cols], -np.inf)
    e = np.exp(z - z.max(axis=1, initial=-np.inf, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return DistributionSet(layout=layout, alphas=alphas, betas=betas, cat_probs=probs)


def forward_cached(params: PolicyParams, s0: np.ndarray, layout: HeadLayout):
    """The policy's distributions at context s0, and the cache `mlp_backward` needs."""
    out, cache = mlp_forward(params, s0)
    if out.shape != (layout.out_width,):
        raise ShapeError(f"output width {out.shape[0]} != layout {layout.out_width}")
    return heads_from_raw(out, layout), cache


def head_backward(dists: DistributionSet, d_alpha: np.ndarray, d_beta: np.ndarray, d_logits: np.ndarray) -> np.ndarray:
    """Chain head-space gradients, with d_logits (n_cat, k_max), back to raw MLP outputs.

    d softplus(u)/du recovered from alpha itself: sigmoid(u) = 1 - exp(1 - alpha).
    """
    layout = dists.layout
    g = np.zeros(layout.out_width)
    g[layout.beta_off] = d_alpha * (1.0 - np.exp(1.0 - dists.alphas))
    g[layout.beta_off + 1] = d_beta * (1.0 - np.exp(1.0 - dists.betas))
    g[layout.cat_cols[layout.cat_mask]] = d_logits[layout.cat_mask]
    return g


def sample(dists: DistributionSet, rng: Generator, n: int) -> np.ndarray:
    """Draw n i.i.d. actions from rng as an (n, n_params) raw matrix.

    Beta draws are clipped into [RAW_CLIP, 1 - RAW_CLIP]; a categorical head
    maps one uniform through its inverse CDF, and its index is stored as a
    float. The batch takes one `beta` call of shape (n, n_beta), then one
    `random` call of shape (n, n_cat), so a row's values depend on n as
    well as on the generator's state: n one-row draws give other rows.
    An index counts the CDF entries at or below its uniform, capped at k - 1.
    """
    layout = dists.layout
    raw = np.empty((n, layout.n_params))
    x = rng.beta(dists.alphas, dists.betas, size=(n, layout.n_beta))
    raw[:, layout.beta_params] = np.clip(x, RAW_CLIP, 1.0 - RAW_CLIP)
    u = rng.random((n, len(layout.cat_params)))
    index = (np.cumsum(dists.cat_probs, axis=1) <= u[..., None]).sum(axis=-1)
    raw[:, layout.cat_params] = np.minimum(index, layout.cat_sizes - 1)
    return raw


class ActionBatch(NamedTuple):
    """A batch of raw actions, validated and reduced to what densities need."""

    log_x: np.ndarray  # (E, n_beta) log of each Beta-head value
    log_1mx: np.ndarray  # (E, n_beta) log(1 - x)
    cat_index: np.ndarray  # (E, n_cat) chosen category of each categorical head


def stack_actions(layout: HeadLayout, raws: np.ndarray) -> ActionBatch:
    """Reduce a non-empty (E, n) raw matrix, one action a row, to what densities need.

    Raises ShapeError for rows of the wrong length and DomainError for a Beta
    value outside (0, 1) or a category outside range(k). Category values
    truncate toward zero, as `int()` does.
    """
    raw = np.asarray(raws, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != layout.n_params:
        raise ShapeError(f"action matrix shape {raw.shape} != (E, {layout.n_params})")
    x = raw.take(layout.beta_params, axis=1)
    if ((x <= 0.0) | (x >= 1.0)).any():
        raise DomainError("beta-head values must lie strictly inside (0, 1)")
    idx = np.trunc(raw.take(layout.cat_params, axis=1))
    in_range = (idx >= 0.0) & (idx < layout.cat_sizes)
    if not in_range.all():
        e, h = np.argwhere(~in_range)[0]
        raise DomainError(f"category index {idx[e, h]:g} out of range({layout.cat_sizes[h]})")
    return ActionBatch(np.log(x), np.log1p(-x), idx.astype(np.intp))


def _check_same_structure(new: DistributionSet, old: DistributionSet) -> None:
    a, b = ((d.layout.n_params, d.layout.cat_params.tolist(), d.layout.cat_sizes.tolist()) for d in (new, old))
    if a != b:
        raise ShapeError("distribution sets have different head structure")


def log_probs(dists: DistributionSet, batch: ActionBatch) -> np.ndarray:
    """log dists(a) for every action of the batch, in one pass.

    The Beta log-densities are linear in (log x, log(1 - x)) with
    coefficients (alpha - 1, beta - 1) and the cached normalisers as
    constant; the categorical part gathers each head's probability at its
    chosen category. A zero-probability category gives -inf.
    """
    total = batch.log_x @ (dists.alphas - 1.0) + batch.log_1mx @ (dists.betas - 1.0)
    total -= dists.beta_norm.sum()
    chosen = dists.cat_probs[np.arange(len(dists.cat_probs)), batch.cat_index]
    with np.errstate(divide="ignore"):
        return total + np.log(chosen).sum(axis=1)


def entropy(dists: DistributionSet) -> float:
    a, b = dists.alphas, dists.betas
    total = float(
        (
            dists.beta_norm
            - (a - 1.0) * dists.dg_alpha
            - (b - 1.0) * dists.dg_beta
            + (a + b - 2.0) * dists.dg_sum
        ).sum()
    )
    real = dists.layout.cat_mask
    return total - float(dists.cat_probs[real] @ dists.cat_log_probs[real])


def kl(new: DistributionSet, old: DistributionSet) -> float:
    """Forward KL(new || old), summed over heads."""
    _check_same_structure(new, old)
    da, db = new.alphas - old.alphas, new.betas - old.betas
    total = (
        float((old.beta_norm - new.beta_norm).sum())
        + float(da @ (new.dg_alpha - new.dg_sum))
        + float(db @ (new.dg_beta - new.dg_sum))
    )
    if ((new.cat_probs > 0.0) & (old.cat_probs <= 0.0)).any():
        return float("inf")
    real = new.layout.cat_mask
    return total + float(new.cat_probs[real] @ (new.cat_log_probs - old.cat_log_probs)[real])


# ---------------------------------------------------------------------------
# Checkpoints: magic, u64 array count, per-array u64 ndim + dims,
# then all values as row-major little-endian float64.

def save_params(params: PolicyParams, path: str) -> None:
    arrays = params.arrays()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(arrays)))
        for arr in arrays:
            fh.write(struct.pack("<Q", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").data)


def load_params(path: str) -> PolicyParams:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a policy checkpoint (bad magic {magic!r})")
        (count,) = struct.unpack("<Q", fh.read(8))
        shapes = []
        for _ in range(count):
            (ndim,) = struct.unpack("<Q", fh.read(8))
            shapes.append(struct.unpack(f"<{ndim}Q", fh.read(8 * ndim)))
        values = sum(math.prod(shape) for shape in shapes)
        if 8 * values > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValueError(f"{path}: truncated checkpoint")
        arrays = []
        for shape in shapes:
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError(f"{path}: truncated checkpoint")
            arrays.append(arr)
    if len(arrays) % 2 != 0:
        raise ValueError(f"{path}: expected weight/bias pairs, got {len(arrays)} arrays")
    weights = arrays[0::2]
    biases = arrays[1::2]
    return PolicyParams(weights, biases)
