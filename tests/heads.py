"""Test helper: a DistributionSet built straight from head parameters."""

import numpy as np

from coredse.policy import DistributionSet, _make_layout


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
