"""Test helpers: a DistributionSet built straight from head parameters, and
the one-action-at-a-time reference that `policy.log_probs` is checked
against."""

import numpy as np

from coredse.policy import DistributionSet, DomainError, _make_layout
from coredse.space import ShapeError


def dists_from_heads(heads) -> DistributionSet:
    """Build from [("beta", a, b) | ("cat", probs), ...], one head per parameter."""
    kinds, cat_k, alphas, betas, cats = [], [], [], [], []
    for h in heads:
        if h[0] == "beta":
            kinds.append("beta")
            cat_k.append(0)
            alphas.append(float(h[1]))
            betas.append(float(h[2]))
        elif h[0] == "cat":
            probs = np.asarray(h[1], dtype=float)
            kinds.append("cat")
            cat_k.append(len(probs))
            cats.append(probs)
        else:
            raise ValueError(f"unknown head {h!r}")
    return DistributionSet(
        layout=_make_layout(kinds, cat_k),
        alphas=np.asarray(alphas, dtype=float),
        betas=np.asarray(betas, dtype=float),
        cat_probs=tuple(cats),
    )


def log_prob(dists: DistributionSet, raw: np.ndarray) -> float:
    """log dists(raw) of one action, head by head."""
    layout = dists.layout
    if raw.shape != (layout.n_params,):
        raise ShapeError(f"action length {raw.shape} != {layout.n_params}")
    total = 0.0
    if layout.n_beta:
        x = raw[layout.beta_params]
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise DomainError("beta-head values must lie strictly inside (0, 1)")
        a, b = dists.alphas, dists.betas
        total += float(np.sum((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - dists.beta_norm))
    for j, pi in enumerate(layout.cat_params):
        idx = int(raw[pi])
        if not 0 <= idx < layout.cat_k[pi]:
            raise DomainError(f"category index {idx} out of range({layout.cat_k[pi]})")
        p = dists.cat_probs[j][idx]
        total += float(np.log(p)) if p > 0.0 else float("-inf")
    return total
